(** Operation metrics for any native queue.

    One instrumented body, written over {!Core.Queue_intf.BOUNDED},
    does all the counting and timing: {!Make_bounded} is that body, and
    {!Make}/{!Make_batch} apply it to an unbounded queue through
    {!Core.Queue_intf.Unbounded}, adding only the delegations their
    signatures need.  Each wrapper satisfies its queue's own signature
    (plus a [metrics] accessor), so it drops into every harness,
    benchmark and test unchanged — the randomized FIFO tests run
    through it to prove semantics are preserved.

    With metrics disabled ({!Control}) each operation is one branch plus
    delegating calls; enabled, the wrapper records per-operation
    latency (ns, monotonic clock) and attributes the {!Locks.Probe}
    events the wrapped operation emitted — failed-CAS retries, backoff
    spins, E12/D9 help-alongs — by differencing the calling domain's
    probe counters around the call. *)

module type S = sig
  include Core.Queue_intf.S

  val metrics : 'a t -> Metrics.t
end

module Make (Q : Core.Queue_intf.S) : S

(** {1 Batch-capable queues}

    [Make_batch (Q)] is [Make (Q)] plus instrumented
    [enqueue_batch]/[dequeue_batch]: each batch call records one
    latency sample (covering all its elements) in the per-operation
    histogram, advances the [enqueues]/[dequeues] counters by the
    element count (so counters keep meaning "elements", not "calls"),
    and attributes the probe events the batch emitted — including the
    segmented queue's segment-transition CAS retries — exactly as a
    single operation would.  An empty [dequeue_batch] result counts as
    one [empty_dequeues]. *)

module type BATCH_S = sig
  include Core.Queue_intf.BATCH

  val metrics : 'a t -> Metrics.t
end

module Make_batch (Q : Core.Queue_intf.BATCH) : BATCH_S

(** {1 Bounded queues}

    [Make_bounded (Q)] instruments a {!Core.Queue_intf.BOUNDED} queue;
    it is the body every functor here shares.  Verdicts are counted: a
    refused [try_enqueue] increments {!Metrics.t.full_enqueues} (and
    still records a latency sample: the cost of learning "full" is real
    work), a [None] [try_dequeue] increments [empty_dequeues]. *)

module type BOUNDED_S = sig
  include Core.Queue_intf.BOUNDED

  val metrics : 'a t -> Metrics.t
end

module Make_bounded (Q : Core.Queue_intf.BOUNDED) : BOUNDED_S
