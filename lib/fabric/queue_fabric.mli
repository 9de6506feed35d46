(** A sharded MPMC queue fabric — the million-users serving topology.

    One queue, however fast, serializes every producer and consumer on
    a handful of cache lines (the paper's Head/Tail bottleneck, priced
    by the simulator heatmaps).  The fabric composes [N] independent
    shards behind two fetch-and-add splitters so that, under keyed
    routing, producers touch disjoint lines and aggregate throughput
    scales with the shard count:

    - {b shards} are any of the repository's primitives: bounded
      {!Core.Scq_queue} rings (whose [try_enqueue] refusal is the
      backpressure signal), unbounded {!Core.Segmented_queue}s (whose
      one-FAA batch range claims the producer batching composes), or
      {e elastic} chains of SCQ rings ({!S.Elastic}, a queue-of-queues
      in the LSCQ style: full rings are closed and a fresh ring is
      appended, so capacity grows by whole rings);
    - {b routing}: [?key] pins an operation's shard ([key mod shards] —
      per-key FIFO holds because one key always lands in one shard);
      without a key a fetch-and-add splitter round-robins.  Dequeues
      sweep all shards starting from a second splitter.  Cross-shard
      order is deliberately not FIFO — that is the scalability trade —
      so the fabric is not linearizable against a single-queue FIFO
      spec (project onto one key to check it; see {!Single_key});
    - {b backpressure}: every shard's enqueue side runs through its own
      {!Resilience.Resilient.Engine} — deadline, bounded retries,
      [Fail_fast]/[Shed]/[Block_until] policy and an independent
      circuit breaker per shard — so one hot shard trips its breaker
      without darkening the others.  Dequeues share one fabric-level
      engine whose attempt is a full sweep;
    - {b producer batching}: {!S.Producer} buffers per-producer pushes
      and flushes them as one {!S.enqueue_batch}, which routes the
      whole batch to a single shard — on segmented shards a single
      fetch-and-add claims the whole index range.

    Everything is a functor over {!Core.Atomic_intf.ATOMIC} like the
    primitives it composes; the top level is the [Stdlib_atomic]
    instantiation.  [Harness.Open_loop] drives the fabric with
    open-loop offered load and reports sojourn-latency percentiles;
    [msq_check fabric] gates the scaling and cache-disjointness
    claims. *)

type shard_kind =
  | Bounded  (** {!Core.Scq_queue} rings: full shards refuse (backpressure) *)
  | Elastic
      (** chains of SCQ rings: a full ring is closed and a fresh one
          appended, so enqueue always succeeds and capacity grows in
          ring-sized steps *)
  | Segmented
      (** {!Core.Segmented_queue}: unbounded, with the one-FAA batch
          range claims *)

type config = {
  shards : int;  (** shard count, >= 1 *)
  shard_capacity : int;
      (** per-shard ring capacity ([Bounded]: the refusal bound;
          [Elastic]: the growth granularity; ignored for [Segmented]) *)
  kind : shard_kind;
  batch : int;  (** default {!S.Producer} flush threshold *)
  resilience : Resilience.Resilient.config;
      (** per-shard enqueue engines and the fabric dequeue engine *)
}

val default_config : config
(** 8 [Bounded] shards of 1024, producer batch 16,
    {!Resilience.Resilient.default} policies. *)

type error = Resilience.Resilient.error

module type S = sig
  type 'a t

  (** Unbounded elastic queue: a chain of bounded SCQ rings (the
      queue-of-queues overflow topology).  FIFO and linearizable on its
      own; used as the [Elastic] shard kind and exposed for direct
      composition. *)
  module Elastic : sig
    type 'a q

    val create : ring_capacity:int -> unit -> 'a q
    val enqueue : 'a q -> 'a -> unit
    (** Never refuses: a full tail ring is closed and a new ring
        appended (helping, lock-free). *)

    val dequeue : 'a q -> 'a option
    (** [None] iff observed empty.  A drained ring is retired from the
        chain only once it is closed and no enqueuer is in flight. *)

    val length : 'a q -> int
    val is_empty : 'a q -> bool

    val rings : 'a q -> int
    (** Live rings in the chain (>= 1); grows on overflow, shrinks as
        drained rings are retired. *)
  end

  val name : string
  val create : ?config:config -> unit -> 'a t
  val config : 'a t -> config
  val shard_count : 'a t -> int

  val try_enqueue : ?key:int -> 'a t -> 'a -> (unit, error) result
  (** Route to shard [key mod shards] (or round-robin via the splitter
      when [key] is absent) and enqueue through that shard's policy
      engine.  [Bounded] shards refuse when full — the policy decides
      whether that surfaces as [Rejected], [Shedded] or [Timed_out];
      [Elastic]/[Segmented] shards cannot refuse. *)

  val try_dequeue : 'a t -> ('a, error) result
  (** Sweep every shard once per attempt, starting from the dequeue
      splitter's next position, through the fabric-level policy engine.
      An [Error] means every shard was observed empty on every attempt
      the policy allowed — a quiescent fabric reports emptiness
      exactly, but under concurrent enqueues the sweep is not a single
      linearization point (the price of sharding; same spirit as
      {!Core.Queue_intf.S.length}'s racy-snapshot contract). *)

  val enqueue_batch : ?key:int -> 'a t -> 'a list -> 'a list
  (** The whole batch routes to one shard, preserving per-key order.
      On [Segmented] shards a single engine attempt covers the batch
      and one fetch-and-add claims the whole index range; on [Bounded]
      shards each element runs through the shard engine and the
      refused elements are returned in list order (accepted elements
      keep their relative order).  [[]] means everything was accepted. *)

  val dequeue_batch : 'a t -> max:int -> 'a list
  (** Raw batch sweep (no policy engine): up to [max] items collected
      across shards starting at the dequeue splitter, in per-shard FIFO
      order.  [[]] does not prove emptiness. *)

  val drain_one : 'a t -> 'a option
  (** Raw single sweep from shard 0, outside the policy engines — for
      drains and audits (cf. {!Resilience.Resilient.BOUNDED.queue}). *)

  val peek_any : 'a t -> 'a option
  (** Head of the first non-empty shard (sweep from 0), without
      removing it.  [None] when all shards look empty, and always
      [None] for [Bounded]/[Elastic] shards (SCQ rings cannot peek —
      see {!Core.Queue_intf.BOUNDED}). *)

  val length : 'a t -> int
  (** Sum of shard lengths: exact at quiescence, racy snapshot under
      concurrency with the usual [0 <= length] bound. *)

  val is_empty : 'a t -> bool
  val shard_lengths : 'a t -> int array

  (** Per-producer batching: buffer pushes, flush as one
      {!enqueue_batch} to the handle's (fixed) key.  A handle is owned
      by one producer — it is not safe to share across domains. *)
  module Producer : sig
    type 'a handle

    val create : ?key:int -> ?batch:int -> 'a t -> 'a handle
    (** [batch] defaults to the fabric's [config.batch]. *)

    val push : 'a handle -> 'a -> 'a list
    (** Buffer [v]; when the buffer reaches [batch], flush.  Returns
        the refused elements of an implied flush ([[]] otherwise —
        including when nothing was flushed). *)

    val flush : 'a handle -> 'a list
    (** Enqueue the buffer now (in push order); returns refusals. *)

    val pending : 'a handle -> int
  end

  val shard_outcomes : 'a t -> Resilience.Resilient.outcomes array
  val outcomes : 'a t -> Resilience.Resilient.outcomes
  (** Aggregate over every shard engine plus the dequeue engine. *)

  val enq_breaker_states : 'a t -> Resilience.Resilient.breaker_state array
  val dequeue_metrics : 'a t -> Obs.Metrics.t

  val register_telemetry : ?prefix:string -> 'a t -> unit
  (** Register live gauges with {!Obs.Sampler}: total [length], each
      shard's depth and enqueue breaker state (Closed=0, Half_open=1,
      Open=2; labelled [shard="i"]), and the dequeue engine's metrics —
      all named under [prefix] (default ["fabric"]) so a harness can
      tear them down with one [Obs.Sampler.remove ~prefix].  The
      engine's series move only while [Obs.Control] is enabled; the
      depth and breaker gauges always do. *)

  val to_json : 'a t -> Obs.Json.t
end

module Make (_ : Core.Atomic_intf.ATOMIC) : S

include S

(** The fabric as a plain {!Core.Queue_intf.S} queue, for the registry
    and every generic harness (qcheck suites, chaos/instrumented
    wrappers, bench).  Four [Segmented] shards (so [peek] exists and
    enqueue is total), routing keyed by the calling domain — each
    producer's values land in one shard in order, so per-producer FIFO
    holds; cross-producer order is not FIFO, which is why [native-lin]
    checks {!Single_key} instead.  The adapter's engines run
    [Fail_fast] with the breaker disabled, keeping [dequeue]/[length]
    exact at quiescence as the generic suites require. *)
module As_queue : Core.Queue_intf.S

(** Same fabric, every operation pinned to key 0: degenerates to one
    shard and is therefore FIFO-linearizable — the sound projection for
    [msq_check native-lin -q fabric], exercising the fabric's routing,
    sweep and engine plumbing under a checkable spec. *)
module Single_key : Core.Queue_intf.S
