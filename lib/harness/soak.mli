(** Fault-storm soak: a seeded, long-running mixed workload that layers
    every adversary this repository knows about — chaos delay storms
    ({!Obs.Chaos}), stalled hazard-pointer readers, and producer/consumer
    {e crash + restart} — over the native queues, with periodic invariant
    audits and a wall-clock watchdog.

    The paper proves safety and progress against an adversarial
    scheduler; the soak turns that adversary up to eleven and checks the
    proofs' conclusions empirically.  Each round alternates a {e calm}
    and a {e storm} chaos configuration, arms one producer and one
    consumer as crash victims (a countdown raises {!Crashed} at a
    labeled probe site mid-protocol, or between operations for queues
    whose abandoned mid-protocol state is unrecoverable by design, such
    as the MC queue's unlinked-tail gap), and on each crash a fresh
    replacement domain re-joins and continues the slot's plan — fresh
    domain id, fresh hazard-pointer slots, fresh backoff/chaos streams,
    exactly like a worker restart in a serving system.

    Producers and consumers run through {!Resilience.Resilient}, so
    every deadline, shed, rejection and breaker transition taken under
    the storm is attributed and lands in the report's
    {!Resilience.Resilient.outcomes}.

    Audits at the end of every round (after a full drain):
    - {b conservation} — no duplicates; nothing consumed that was never
      produced; at most one value lost per dequeue crash; values whose
      enqueue crashed mid-operation may or may not appear (tracked as
      {e maybe-enqueued});
    - {b per-producer FIFO} — each consumer observes every producer's
      values in increasing sequence order;
    - {b length bounds} — zero after the drain, never above capacity for
      bounded queues;
    - {b hazard-pointer reclamation lag} — the deferred-reclamation
      backlog stays bounded (checked via the [?gauge] hook, wired to
      [Core.Ms_queue_hp.pending_reclamation] by {!run_all}).

    A watchdog domain bounds the whole run in wall-clock time: on expiry
    it raises the stop flag, the site hook turns into an escape hatch
    (so even a worker spinning inside a blocking queue's wait loop
    unwinds), and the report carries [watchdog_expired = true] — a
    structured verdict, not a hung CI job.

    Determinism caveat: the OS still schedules domains, so two runs with
    one seed are not bit-identical; the seed fixes every {e decision} —
    chaos delays, backoff jitter, victim choice, crash countdowns. *)

exception Crashed of string
(** Raised at a probe site (or between operations) to fell a crash
    victim; the label names the site where the crash landed. *)

exception Aborted
(** Raised at probe sites once the watchdog has expired — the escape
    hatch that unwinds workers stuck in unbounded wait loops. *)

type crash_mode =
  | Mid_protocol
      (** victims abandon the queue operation at a labeled probe site —
          mid-CAS-loop, inside a critical section (locks release on
          unwind, matching a real exception; lock-free algorithms must
          help past whatever the victim left behind) *)
  | Between_ops
      (** victims abandon their slot between operations — for queues
          whose abandoned mid-protocol state no helper can repair (the
          MC queue's unlinked-tail gap, the SCQ ring's claimed slot) *)

type report = {
  queue : string;
  seed : int64;
  rounds : int;  (** rounds actually completed *)
  producers : int;
  consumers : int;
  ops : int;  (** enqueues planned per producer per round *)
  enqueued : int;  (** enqueues that definitely completed *)
  maybe_enqueued : int;  (** enqueues abandoned mid-operation by a crash *)
  consumed : int;  (** values dequeued by consumers *)
  drained : int;  (** values recovered by the end-of-round drains *)
  crashes : int;
  restarts : int;  (** replacement domains spawned (≤ [crashes]) *)
  enq_crashes : int;
  deq_crashes : int;
  chaos_hits : int;  (** delays actually injected by {!Obs.Chaos} *)
  hp_lag_high_water : int;
      (** worst end-of-round reclamation backlog; [-1] without a gauge *)
  deq_p999_ns : int;
      (** the consumers' 99.9th-percentile latency of a successful
          resilient dequeue call, in ns, timed by the soak itself (0
          when no dequeue completed) — the soak tail the
          {!Bench_compare} p999 gate watches *)
  outcomes : Resilience.Resilient.outcomes;
      (** timeouts/sheds/rejections/breaker transitions taken by the
          resilient consumers under the storm *)
  audit_failures : string list;  (** empty iff every audit held *)
  watchdog_expired : bool;
  elapsed_s : float;
}

val passed : report -> bool
(** No audit failed and the watchdog did not expire. *)

val report_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit

module Make (B : Core.Queue_intf.BOUNDED) : sig
  val run :
    ?capacity:int ->
    ?gauge:(int B.t -> int) ->
    ?rounds:int ->
    ?producers:int ->
    ?consumers:int ->
    ?ops:int ->
    ?deadline_s:float ->
    ?crash_mode:crash_mode ->
    seed:int64 ->
    unit ->
    report
  (** Defaults: capacity 64, 4 rounds (calm/storm alternating), 2
      producers, 2 consumers, 1,000 enqueues per producer per round,
      60 s wall-clock deadline, [Mid_protocol] crashes.  An unbounded
      queue soaks as [Make (Core.Queue_intf.Unbounded (Q))], which
      ignores [?capacity]; a bounded one keeps its deliberately small
      capacity bouncing off both the full and the empty refusal paths,
      so producers exercise the enqueue-side deadlines/shedding/breaker
      as well.  [?gauge] reads a reclamation backlog from the queue at
      every end-of-round audit. *)
end

module Broken_ms : Core.Queue_intf.S
(** The planted bug: the MS queue silently dropping every 97th enqueue. *)

val self_test : seed:int64 -> bool
(** Planted-bug check: soaks {!Broken_ms} and returns [true] iff the
    conservation audit catches it — proof the oracle has teeth, run by
    [msq_check soak] before trusting a green result. *)

(** {1 Simulator mirror}

    The same adversary inside the deterministic simulator:
    {!Sim.Faults.Crash_restart} fells a producer mid-operation
    (simulator-op granularity, so the crash can land mid-CAS or inside
    a critical section) and a replacement process re-joins on the same
    processor.  Non-blocking algorithms must complete and conserve;
    blocking ones end in the watchdog's structured [Blocked] verdict
    (the crashed holder strands the survivors — the paper's point). *)

type sim_result = {
  algorithm : string;
  crash_after : int;  (** simulator ops the victim executed before dying *)
  sim_outcome : string;  (** ["completed"] / ["blocked"] / ["step-limit"] *)
  conservation_ok : bool;
  lost : int;  (** values definitely enqueued but never consumed *)
  phantom : int;
      (** values consumed whose enqueue never returned (crash landed
          after the linearizing link — at most 1) *)
}

val sim_ok : sim_result -> bool
(** [Completed] with conservation, or a structured [Blocked] verdict. *)

val sim_battery :
  ?queues:Registry.entry list ->
  ?procs:int ->
  ?per:int ->
  ?seed:int64 ->
  unit ->
  sim_result list
(** One crash+restart trial per simulated algorithm (default
    {!Registry.all}): [procs - 1] producers and one consumer; the first
    producer crashes halfway through its reference-run op count and a
    replacement enqueues a fresh range [restart_after] cycles later.
    Defaults: 4 processors, 400 enqueues per producer. *)

(** {1 The soak gate}

    One function behind [msq_check soak] and the benchmark's [soak]
    section: the optional planted-bug self-test, the simulated
    crash+restart battery and the native soak, with the flight
    recorder's anomaly latch armed in between. *)

type gate = {
  seed : int64;
  self_test : bool option;  (** [None] when the self-test did not run *)
  sim : (string * sim_result) list;  (** registry key, battery result *)
  native : report list;
  flight_dump : (string * string) option;
      (** path and reason of the flight recorder's dump, when [?flight_out]
          armed it and an anomaly fired *)
}

val gate :
  ?keys:string list ->
  ?self_test:bool ->
  ?flight_out:string ->
  ?rounds:int ->
  ?ops:int ->
  ?deadline_s:float ->
  seed:int64 ->
  unit ->
  gate
(** The battery over {!Registry.all}, then {!Make}'s soak of every
    registered native queue ({!Registry.native}) with 2 producers and 2
    consumers, each with the crash mode its design requires
    ([Between_ops] for ["mc"], ["plj"] and the bounded ring ["scq"])
    and the hazard-pointer gauge wired for ["ms-hp"]; [?keys]
    restricts both.  ["fabric"] is never soaked: its domain-keyed
    routing makes per-producer FIFO a per-domain promise, which a
    restart's replacement domain deliberately breaks — its
    crash/restart coverage lives in {!Open_loop}.  [?self_test]
    (default [false]) first runs {!self_test}; [?flight_out] then arms
    {!Obs.Flight.arm_dump}, so the planted bug never claims the latch,
    and disarms it at the end. *)

val verdicts : gate -> Verdict.t list
(** The self-test caught its bug; each battery result is {!sim_ok}, and
    the non-blocking ["ms"], ["plj"] and ["valois"] completed; each
    native report {!passed}. *)

val gate_json : gate -> Obs.Json.t
(** [{seed, self_test, native, sim}], [self_test] only when it ran. *)

val first_failure : gate -> string option
(** The first failing native report, as pretty JSON followed by one
    ["audit failure: ..."] line per failed audit. *)
