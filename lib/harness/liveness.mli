(** Non-blocking liveness measurement (paper §3.3 and the motivation in
    §1): does a long delay of one process delay the others?

    One victim process is stalled for a very long time; every other
    process runs the usual workload.  Whether the delay propagates
    depends on where it lands — a blocking algorithm is only vulnerable
    while the victim holds the lock (or the MC queue's unlinked-tail
    gap) — so the experiment {e sweeps} the injection time across
    [trials] points in the run.  A non-blocking queue is unaffected in
    every trial; a blocking one is caught holding the resource in some
    fraction of them, and then everyone waits out the stall. *)

type verdict =
  | Completed  (** every trial ran *)
  | Timed_out of { trials_done : int }
      (** the per-case wall-clock deadline cut the sweep after this many
          trials; [blocked_trials]/[worst_others_finish] cover only the
          trials that ran *)

type result = {
  algorithm : string;
  stall_duration : int;
  trials : int;  (** trials {e requested} — see [verdict] for attempted *)
  blocked_trials : int;
      (** trials in which the others' finish time grew by more than half
          the stall duration *)
  worst_others_finish : int;  (** latest finish among non-victims, cycles *)
  undelayed_elapsed : int;  (** reference run with no stall *)
  verdict : verdict;
}

val setup :
  (module Squeues.Intf.S) ->
  Params.t ->
  ?trace_limit:int ->
  unit ->
  Sim.Engine.t * Sim.Engine.pid list * Sim.Trace.t option
(** The workload of this sweep and {!Crash_experiment}'s: each process
    makes its share of enqueue/dequeue pairs and marks progress after
    each.  The first pid is the victim; [?trace_limit] turns tracing on. *)

val non_blocking : result -> bool
(** No trial propagated the delay. *)

val verdict_string : verdict -> string
(** ["completed"] or ["timed_out after N trials"]. *)

val run :
  (module Squeues.Intf.S) ->
  ?procs:int ->
  ?pairs:int ->
  ?trials:int ->
  ?stall_duration:int ->
  ?seed:int64 ->
  ?deadline_s:float ->
  unit ->
  result
(** Defaults: 8 processors (dedicated), 8,000 pairs, 12 trials with
    injection times spread uniformly across the undelayed run's
    duration, 50,000,000-cycle stall.  Runs under the default
    {!Params.watchdog}, so a pathological trial ends in a [Blocked]
    verdict (counted as a blocked trial) rather than a hang.

    [?deadline_s] additionally bounds the {e whole case} in wall-clock
    seconds: checked between trials, and on expiry the sweep stops with
    a structured [Timed_out] verdict instead of relying solely on the
    engine watchdog (whose budget is per-trial simulated cycles, not
    wall time). *)

val run_all :
  ?queues:Registry.entry list ->
  ?procs:int ->
  ?pairs:int ->
  ?trials:int ->
  ?stall_duration:int ->
  ?seed:int64 ->
  ?deadline_s:float ->
  unit ->
  result list
(** The sweep over a whole registry slice (default {!Registry.all}) —
    results render through [Report.liveness_table] and land in the
    robustness section of [BENCH_queues.json]. *)

val pp_result : Format.formatter -> result -> unit
