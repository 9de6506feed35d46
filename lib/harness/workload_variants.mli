(** Workload variants beyond the paper's symmetric loop.

    The paper's benchmark has every process alternate enqueue/dequeue.
    Two natural variations probe different parts of the design space:

    - {!producer_consumer}: half the processes only enqueue, half only
      dequeue.  This is the two-lock queue's best case — its whole
      concurrency story is one enqueuer {e in parallel with} one
      dequeuer, and with disjoint populations the head and tail locks
      never contend with each other.
    - {!burst}: each process enqueues a burst of [burst] items, then
      drains as many.  The queue gets genuinely long, exercising
      free-list growth and the traversal-free property of all the
      list-based queues (cost must not grow with queue length). *)

type measurement = {
  algorithm : string;
  variant : string;
  total_ops : int;
  cycles_per_op : float;
  completed : bool;
}

val producer_consumer :
  (module Squeues.Intf.S) ->
  ?processors:int ->
  ?items:int ->
  ?other_work:int ->
  unit ->
  measurement
(** Defaults: 8 processors (4 producers, 4 consumers), 16,000 items,
    1,200-cycle other work. *)

val burst :
  (module Squeues.Intf.S) ->
  ?processors:int ->
  ?bursts:int ->
  ?burst:int ->
  ?other_work:int ->
  unit ->
  measurement
(** Defaults: 8 processors, 50 bursts of 32 items per process,
    300-cycle other work between operations. *)

val pp_measurement : Format.formatter -> measurement -> unit

(** {1 Native batched workload}

    Runs on the OCaml 5 queues (real domains, wall clock), not in the
    simulator: batch operations only exist natively
    ({!Core.Queue_intf.BATCH}).  All [domains] domains share one queue
    with no think time — the highest-contention shape — each
    alternating an [enqueue_batch] of [batch] items with dequeues of
    the same count, so a sweep over [batch] holds the item total fixed
    while dividing the index-claim (FAA) count by the batch size.
    [batch = 1] is the single-element baseline. *)

type batch_measurement = {
  queue : string;
  batch : int;
  domains : int;
  total_items : int;  (** items enqueued (= dequeued) across all domains *)
  seconds : float;
  items_per_second : float;
}

(** The workload reduced to two closures, so one sweep core drives both
    a single {!Core.Queue_intf.BATCH} queue and the fabric's
    producer-batching path (whose batch enqueue takes a routing key and
    returns refusals, so it is not a [BATCH] instance). *)
type batch_driver = {
  bd_name : string;
  bd_enqueue_batch : int list -> unit;
  bd_dequeue_batch : max:int -> int list;
}

val batched_driver :
  batch_driver -> ?domains:int -> ?items:int -> batch:int -> unit -> batch_measurement
(** Defaults: 2 domains, 20,000 items per domain (rounded down to a
    multiple of [batch]). *)

val batched :
  (module Core.Queue_intf.BATCH) ->
  ?domains:int ->
  ?items:int ->
  batch:int ->
  unit ->
  batch_measurement
(** {!batched_driver} over a fresh [Q.create ()]. *)

val fabric_batched :
  ?shards:int ->
  ?domains:int ->
  ?items:int ->
  batch:int ->
  unit ->
  batch_measurement
(** {!batched_driver} over a fresh fabric of [Segmented] shards
    ([shards] defaults to 4): each domain batches to its own key ([enqueue_batch
    ~key:domain-id]), the fabric's intended producer-batching shape, so
    the sweep compares one-FAA-per-batch range claims against the
    fabric's route+engine overhead.  Reported as ["fabric-<n>sh"]. *)

val pp_batch_measurement : Format.formatter -> batch_measurement -> unit
