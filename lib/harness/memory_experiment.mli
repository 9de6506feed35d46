(** The paper's §1 memory-boundedness experiment.

    "In experiments with a queue of maximum length 12 items, we ran out
    of memory several times during runs of ten million enqueues and
    dequeues, using a free list initialized with 64,000 nodes."

    Here: [procs] processes run the standard workload (so the queue
    never exceeds [procs] items) on a {e bounded} node pool while one
    victim process suffers a long planned delay.  Under Valois's
    reference-counted scheme the delayed process pins a node and —
    through the counted [next] links — every node enqueued after it, so
    the pool drains and an allocation fails.  The MS queue recycles
    dequeued nodes immediately regardless of delays, so the same
    configuration completes. *)

type result = {
  algorithm : string;
  pool : int;
  pairs_requested : int;
  pairs_done : int;
  exhausted : bool;  (** the bounded pool ran dry *)
  completed : bool;
}

val run :
  (module Squeues.Intf.S) ->
  ?procs:int ->
  ?pool:int ->
  ?pairs:int ->
  ?stall_at:int ->
  ?stall_duration:int ->
  unit ->
  result
(** Defaults: 12 processors (dedicated), 2,000-node pool, 40,000 pairs,
    victim (process 0) stalled at cycle 200,000 for 20,000,000 cycles. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Live memory of the native queues}

    ROADMAP item 3's generalization of the free-list experiment: what
    holding N items costs on the real OCaml 5 heap, and whether
    steady-state churn allocates.  Footprints are live-heap deltas
    bracketed by full major collections (single domain, exact); the
    churn figure is GC words allocated per warm enqueue/dequeue pair.
    These feed the [memory] section of BENCH_queues.json. *)

type footprint = {
  queue : string;
  elements : int;
  baseline_bytes : int;  (** the empty queue, as created *)
  footprint_bytes : int;  (** the queue holding [elements] items *)
  bytes_per_element : float;
      (** (footprint - baseline) / elements — the marginal cost of one
          resident item *)
  steady_words_per_pair : float;
      (** GC words allocated per enqueue/dequeue pair once warm; ~0 for
          free-list/ring designs, one node for allocate-per-enqueue *)
}

val footprint :
  (module Core.Queue_intf.BOUNDED) -> ?elements:int -> unit -> footprint
(** Creates at capacity [elements] (default 1024), fills to [elements]
    or to the first refusal ([elements] in the result reports how many
    fit), and churns dequeue-first.  An unbounded queue enters through
    {!Core.Queue_intf.Unbounded} and never refuses.  A bounded queue
    with no per-element allocation keeps [footprint_bytes] within a
    small constant factor of [baseline_bytes] — the SCQ acceptance
    bound (2x) is asserted in the test suite. *)

val pp_footprint : Format.formatter -> footprint -> unit
val footprint_json : footprint -> Obs.Json.t

(** {2 Hazard-pointer reclamation lag under stall injection}

    Two domains churn {!Core.Ms_queue_hp} while {!Obs.Chaos} injects
    seeded delays at the probe sites — including between a hazard
    publication and its validation, the window during which a stalled
    peer blocks reclamation.  [max_pending] is the high-water mark of
    the main domain's retired-but-unreclaimed list: the node budget a
    deployment must absorb while a peer stalls. *)

type hp_lag = {
  ops : int;
  delays : int;
  max_pending : int;
  final_pending : int;
  final_pool : int;
}

val hp_reclamation_lag : ?ops:int -> ?seed:int64 -> unit -> hp_lag
(** Default 20,000 pairs per domain; the seed fixes the chaos delay
    decisions (not the OS schedule). *)

val pp_hp_lag : Format.formatter -> hp_lag -> unit
val hp_lag_json : hp_lag -> Obs.Json.t

(** {2 Simulated free-list reclamation lag}

    The §1 experiment's quantitative face: the workload on an
    {e unbounded} pool prefilled with [pool] nodes, one victim
    stalled; [heap_allocs] counts allocations past the free list —
    each one a moment reclamation had fallen [pool] nodes behind.
    Deterministic per seed. *)

type sim_lag = {
  algorithm : string;
  pool : int;
  pairs : int;
  heap_allocs : int;
  completed : bool;
}

val sim_reclamation_lag :
  (module Squeues.Intf.S) ->
  ?procs:int ->
  ?pool:int ->
  ?pairs:int ->
  ?stall_at:int ->
  ?stall_duration:int ->
  unit ->
  sim_lag
(** Defaults: 8 processors, 64-node prefill, 20,000 pairs, victim
    stalled at cycle 100,000 for 5,000,000 cycles. *)

val pp_sim_lag : Format.formatter -> sim_lag -> unit
val sim_lag_json : sim_lag -> Obs.Json.t
