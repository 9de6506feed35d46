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

    The steady-state footprint is the two rings plus the data array —
    O(capacity) words total, nothing per element — measured against
    the node-based queues by [Harness.Memory_experiment].

    {!Make} threads an {!Atomic_intf.ATOMIC} through both rings so the
    traced instantiation model-checks the exact shipping text; the
    module itself is the [Stdlib_atomic] instance, compiled from the
    functor's own text with the atomic bound statically. *)

module Make (_ : Atomic_intf.ATOMIC) : Queue_intf.BOUNDED

include Queue_intf.BOUNDED
