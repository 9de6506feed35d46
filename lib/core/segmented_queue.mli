(** Lock-free MPMC FIFO built from fixed-size ring segments.

    Where the MS queue CASes a single Head or Tail word per operation —
    the contention bottleneck the paper measures — this queue claims a
    slot with a per-segment fetch-and-add (which always succeeds) and
    uses CAS only on the cold segment-boundary transitions: appending a
    fresh segment when the tail one fills, and advancing the head/tail
    pointers past exhausted segments (the segment-level analogue of the
    paper's E12/D9 help-alongs).  Contention on any one cache line is
    therefore bounded by the segment capacity before the algorithm
    moves on, in the style of the FAA-based MS-queue descendants
    (Morrison & Afek's LCRQ family, Nikolaev's SCQ).  The segment list
    itself is a Michael–Scott linked list, so the queue is unbounded.

    Linearizable; lock-free (an operation retries only when another
    operation made progress: a slot was poisoned, a segment appended,
    or a pointer advanced).  Memory is reclaimed by the GC: a consumed
    segment is unreachable once head moves past it, and consumed slots
    are overwritten so values are not retained.

    Also provides {!Core.Queue_intf.BATCH}: [enqueue_batch] and
    [dequeue_batch] claim a whole index range with a single
    fetch-and-add, amortizing the synchronization across the batch.

    {!Make} abstracts the atomic primitive ({!Atomic_intf.ATOMIC}) —
    the FAA claim/publish windows become explorable scheduling points —
    and the module itself is the [Stdlib_atomic] instance, compiled
    from the functor's own text with the atomic bound statically. *)

(** What the functor yields: the batch queue signature plus the
    segment-size constant. *)
module type S = sig
  include Queue_intf.BATCH

  val segment_capacity : int
  (** Slots per segment (the bound on per-cache-line contention, and the
      granularity of allocation).  Exposed for tests that need to cross
      a segment boundary deliberately. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
