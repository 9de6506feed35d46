(** Chaos layer for the native queues: seeded, randomized timing
    perturbation at the algorithms' most delicate points.

    The linearizable queues must tolerate {e any} interleaving, but an
    unperturbed stress test explores only the narrow band of schedules
    the hardware happens to produce.  This module widens that band: it
    installs a handler on the labeled injection sites the queues mark
    via {!Locks.Probe.site} — immediately before and after linearizing
    CAS/FAA instructions, inside lock-held critical sections — and, at
    each, sometimes spins through a randomized [Domain.cpu_relax] burst
    (occasionally a 16x longer one, standing in for a preemption).
    Delays stretch exactly the windows the algorithms must defend:
    between the MS queue's E9 link and E13 tail swing (forcing the
    E12/D9 helping paths), between a hazard-pointer publication and its
    validation, between a segment claim and its slot write.

    Randomness is deterministic per domain: one SplitMix64 stream per
    domain row, each a pure function of the configured seed and the
    domain id.  The OS still schedules domains, so native runs are not
    replayable the way simulator runs are, but a seed fixes the delay
    {e decisions}, which is what a qcheck counter-example needs.

    When disabled (the default), every site is a single [bool ref]
    test and the wrappers are transparent — queues wrapped statically
    in a test suite cost nothing until chaos is switched on. *)

type config = {
  seed : int64;
  one_in : int;  (** perturb at a site with probability 1/[one_in] *)
  max_delay : int;  (** short-burst bound, [cpu_relax] iterations *)
}

val default : config
val configure : ?seed:int64 -> ?one_in:int -> ?max_delay:int -> unit -> unit
(** Update the global configuration and reseed every domain stream.
    Raises [Invalid_argument] if [one_in] or [max_delay] < 1. *)

val current : unit -> config

val enable : unit -> unit
(** Install the site handler ({!Locks.Probe.set_site_hook}) and
    activate the wrappers. *)

val disable : unit -> unit
val enabled : unit -> bool

val with_enabled : ?seed:int64 -> (unit -> 'a) -> 'a
(** [with_enabled ?seed f]: optionally reconfigure with [seed], enable,
    run [f], restore the previous on/off state (even on exceptions). *)

val hits : unit -> int
(** Number of delays actually injected since {!reset_hits} — lets a
    test assert its workload really crossed perturbed sites. *)

val reset_hits : unit -> unit

val maybe_delay : string -> unit
(** The site handler itself: no-op when disabled, possible perturbation
    when enabled.  Exposed so harnesses can add ad-hoc sites. *)

(** {1 Wrapping whole queues}

    For queues (or paths) without internal site marks, the functors
    perturb around every operation instead.  The wrapped queue is
    observationally identical when chaos is disabled.  One body,
    [Make_bounded], holds the delay sites; [Make] and [Make_batch]
    apply it through {!Core.Queue_intf.Unbounded} and only delegate. *)

module Make (Q : Core.Queue_intf.S) : Core.Queue_intf.S
module Make_batch (Q : Core.Queue_intf.BATCH) : Core.Queue_intf.BATCH
module Make_bounded (Q : Core.Queue_intf.BOUNDED) : Core.Queue_intf.BOUNDED
