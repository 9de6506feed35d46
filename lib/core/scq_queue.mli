(** A bounded MPMC FIFO with no per-element allocation: Nikolaev's SCQ
    (arXiv 1908.04511), the memory-optimal successor to the paper's
    free-list discipline and this repository's {!Segmented_queue}.

    Two fetch-and-add-claimed index rings of [2n] cycle-tagged slots
    ([fq] free indices, [aq] allocated indices) move the [n] slot
    indices of a plain data array back and forth; a full queue is
    exactly an empty [fq], so {!Queue_intf.BOUNDED.try_enqueue}'s
    [false] and {!Queue_intf.BOUNDED.try_dequeue}'s [None] are real
    linearization points (checked by the bounded sequential spec in
    [Lincheck.Checker] and the exhaustive battery in
    [Mcheck.Core_explore]).  Livelock on the empty verdict is bounded
    by the paper's 3n−1 threshold counter.  Lock-free; capacity is
    rounded up to a power of two.

    {b An empty verdict from two loads.}  {!S.maybe_nonempty} reads
    the allocated ring's [head] and then its [tail] and answers empty
    when [tail <= head], before any ticket is claimed.  [head] only
    grows, so that test seen in that order proves the ring was empty
    at the second load; read in the other order it does not (the model
    checker's [scq-tail-before-head] mutant shows the lost item).  A
    poller that calls {!try_dequeue} only when the test passes pays
    two loads per empty poll, writes no shared line and records
    nothing to {!Obs.Flight} or any other probe subscriber.
    {!try_dequeue} and {!try_enqueue} themselves do not make the test:
    each claims a ticket and opens its ["scq.deq"]/["scq.enq"] probe
    phase on every call, since two more loads before every
    fetch-and-add slowed two domains sharing one queue by 7-11%.

    The steady-state footprint is the two rings plus the data array —
    O(capacity) words total, nothing per element — measured against
    the node-based queues by [Harness.Memory_experiment].

    {!Make} threads an {!Atomic_intf.ATOMIC} through both rings so the
    traced instantiation model-checks the exact shipping text; the
    module itself is the [Stdlib_atomic] instance, compiled from the
    functor's own text with the atomic bound statically. *)

module type S = sig
  include Queue_intf.BOUNDED

  val maybe_nonempty : 'a t -> bool
  (** The two-load empty test, a racy hint: [false] when
      [tail <= head] at the two loads, so a [false] means the queue was
      empty at some point during the call, and answering [None]
      without a {!try_dequeue} is linearizable.  A [true] proves
      nothing: it also reads [true] while an enqueuer holds a ticket it
      has not yet deposited into, or another dequeuer is about to take
      the item.  Reads only; records no probe mark.  For pollers and
      for waiters that spin on a read until the state looks changed
      and only then attempt (the paper's test-and-test&set discipline,
      applied to an empty queue), as [Fabric.Queue_fabric]'s bounded
      shards and its dequeue engine do. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
