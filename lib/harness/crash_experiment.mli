(** Fail-stop crash sweep: the sharpest form of the paper's
    non-blocking claim (§1, §3.1).

    A non-blocking queue tolerates not just delays but {e deaths}: kill
    a process at {e any} instruction — including between a
    lock-acquire and its release, or between the two CASes of an
    enqueue (E9/E13) — and the survivors still finish their own
    operations.  A blocking queue fails this whenever the victim dies
    inside its critical section: the lock (or the MC queue's
    unlinked-tail window) is held forever and every other process spins
    until the watchdog declares the run [Blocked].

    The experiment sweeps the crash point uniformly across the victim's
    whole operation count (measured on an uncrashed reference run), so
    crashes land both inside and outside critical sections.  Everything
    is driven by the deterministic simulator: a given seed reproduces
    the same crash points and the same verdicts. *)

type trial = { crash_after : int; outcome : Sim.Engine.outcome }

type result = {
  algorithm : string;
  trials : int;
  survived_trials : int;  (** runs in which every surviving process finished *)
  blocked_trials : int;  (** runs ended by the watchdog or step budget *)
  victim_total_ops : int;  (** victim's op count in the uncrashed reference *)
  points : trial list;
}

val survives_all : result -> bool
(** Every crash point survived — the crash-tolerance form of
    non-blocking progress. *)

val run :
  (module Squeues.Intf.S) ->
  ?procs:int ->
  ?pairs:int ->
  ?trials:int ->
  ?seed:int64 ->
  unit ->
  result
(** Defaults: 4 processors, 2,000 pairs, 12 crash points; a
    2,000,000-cycle watchdog window (far above any legitimate
    inter-pair gap at this scale, small enough that blocked trials end
    quickly).  Raises [Failure] if the uncrashed reference run does not
    complete. *)

val replay_traced :
  (module Squeues.Intf.S) ->
  ?procs:int ->
  ?pairs:int ->
  ?trace_limit:int ->
  ?seed:int64 ->
  crash_after:int ->
  unit ->
  Sim.Engine.outcome * Sim.Trace.t * Sim.Engine.blocked_info option
(** Re-run one crash point with structured tracing enabled, to export a
    Chrome trace of a [Blocked] verdict ([msq_check crash
    --trace-out]).  Deterministic: the replay reproduces the sweep's
    outcome for that point exactly. *)

val pp_result : Format.formatter -> result -> unit

(** {1 The dichotomy gate} *)

val sweep :
  ?keys:string list ->
  ?trials:int ->
  ?seed:int64 ->
  unit ->
  (string * result) list
(** {!run} at its defaults for each key (default {!Registry.keys}, the
    figures' six), with 48 crash points unless [?trials] says
    otherwise — [msq_check crash]'s sweep. *)

val dichotomy : (string * result) list -> Verdict.t list
(** The paper's dichotomy, one verdict per key of {!Registry.keys}: a
    {!Registry.nonblocking} one ("ms", "plj", "valois") must block in
    no trial, the others ("single-lock", "two-lock", "mc") in at least
    one.  Other keys get no verdict. *)

val trace_first_blocked :
  ?seed:int64 ->
  (string * result) list ->
  (string * Sim.Trace.t * Sim.Engine.blocked_info option) option
(** Replay the first blocked trial of a sweep with tracing: its label
    (["<key> crash after <n> ops"]), trace and watchdog verdict. *)
