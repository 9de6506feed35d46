(** A sharded MPMC queue fabric — the million-users serving topology.

    One queue, however fast, serializes every producer and consumer on
    a handful of cache lines (the paper's Head/Tail bottleneck, priced
    by the simulator heatmaps).  The fabric composes [N] independent
    shards behind two fetch-and-add splitters so that, under keyed
    routing, producers touch disjoint lines and aggregate throughput
    scales with the shard count.  It has no concurrent protocol of its
    own: every shared-memory step is a shard primitive's, a splitter's
    fetch-and-add, or the policy engine's.

    - {b shards} are bounded {!Core.Scq_queue} rings (whose
      [try_enqueue] refusal is the backpressure signal) or unbounded
      {!Core.Segmented_queue}s (whose batch enqueue claims its whole
      index range with one fetch-and-add);
    - {b routing}: [?key] pins an operation's shard ([key mod shards] —
      per-key FIFO holds because one key always lands in one shard);
      without a key a fetch-and-add splitter round-robins.  Dequeues
      sweep all shards starting from a second splitter.  Cross-shard
      order is deliberately not FIFO — that is the scalability trade —
      so the fabric is not linearizable against a single-queue FIFO
      spec (project onto one key to check it; see {!Single_key});
    - {b backpressure}: every shard's enqueue side runs through its own
      {!Resilience.Resilient.Engine} — deadline, bounded retries,
      [Fail_fast]/[Shed] policy and an independent circuit breaker per
      shard — so one hot shard trips its breaker without darkening the
      others.  Dequeues share one fabric-level engine whose attempt is
      a full sweep; it runs without a breaker, because an empty poll of
      either shard kind costs only loads, so there is nothing for a
      breaker to shield, and an open one would only reject an idle
      consumer's polls for its cooldown.  On [Bounded] shards the
      sweep claims a ticket only on a ring whose two-load empty test
      ({!Core.Scq_queue.S.maybe_nonempty}) fails, so polling an empty
      fabric writes no shared line and records no probe mark; and the
      engine's retries wait for an arrival rather than a blind spin:
      the fabric builds one hint at {!S.create}, true when any ring's
      test fails, and the engine's backoff spin ends as soon as it
      holds.  The dequeue wait ends early only on SCQ shards:
      [Segmented] shards give no hint and spin blind;
    - {b batching}: {!S.enqueue_batch} routes a whole batch to one
      shard — on [Segmented] shards one fetch-and-add claims the whole
      index range.

    Everything is a functor over {!Core.Atomic_intf.ATOMIC} like the
    primitives it composes; the top level is the [Stdlib_atomic]
    instance, compiled from the functor's own text with the atomic
    bound statically, and its shards are the specialized
    {!Core.Scq_queue} and {!Core.Segmented_queue}.  [Harness.Open_loop] drives the fabric with
    open-loop offered load and reports sojourn-latency percentiles;
    [msq_check fabric] gates the scaling and cache-disjointness
    claims. *)

type shard_kind =
  | Bounded  (** {!Core.Scq_queue} rings: full shards refuse (backpressure) *)
  | Segmented
      (** {!Core.Segmented_queue}: unbounded, with the one-FAA batch
          range claims *)

type config = {
  shards : int;  (** shard count, >= 1 *)
  shard_capacity : int;
      (** per-shard ring capacity ([Bounded]: the refusal bound;
          ignored for [Segmented]) *)
  kind : shard_kind;
  resilience : Resilience.Resilient.config;
      (** every engine's policy: each shard's enqueue engine, breaker
          included, runs it as given; the fabric dequeue engine runs it
          with [breaker_threshold = 0] (no breaker) *)
}

val default_config : config
(** 8 [Bounded] shards of 1024, {!Resilience.Resilient.default}
    policies. *)

type error = Resilience.Resilient.error

module type S = sig
  type 'a t

  val name : string
  val create : ?config:config -> unit -> 'a t

  val try_enqueue : ?key:int -> 'a t -> 'a -> (unit, error) result
  (** Route to shard [key mod shards] (or round-robin via the splitter
      when [key] is absent) and enqueue through that shard's policy
      engine.  [Bounded] shards refuse when full — the policy decides
      whether that surfaces as [Rejected], [Shedded] or [Timed_out];
      [Segmented] shards cannot refuse. *)

  val try_dequeue : 'a t -> ('a, error) result
  (** Sweep every shard once per attempt, starting from the dequeue
      splitter's next position, through the fabric-level policy engine.
      On [Bounded] shards an attempt claims a ticket only on a shard
      whose two-load test says it may hold an item, and the engine's
      backoff spin between attempts stops as soon as any shard looks
      non-empty, so a call that starts on an empty fabric returns the
      next arrival soon after it lands.  The limits ([max_retries],
      the deadline) are the blind spin's, but a wake whose attempt
      finds nothing (the item's ticket taken and its deposit not yet
      made, or another consumer first) still spends a retry: under the
      deadline such a call can end [Shedded] where the blind spin
      would have ended [Timed_out].
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
      [None] for [Bounded] shards (SCQ rings cannot peek —
      see {!Core.Queue_intf.BOUNDED}). *)

  val length : 'a t -> int
  (** Sum of shard lengths: exact at quiescence, racy snapshot under
      concurrency with the usual [0 <= length] bound. *)

  val is_empty : 'a t -> bool

  val outcomes : 'a t -> Resilience.Resilient.outcomes
  (** Aggregate over every shard engine plus the dequeue engine. *)

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
