(** The Michael–Scott two-lock queue (paper Figure 2) for OCaml 5.

    Separate head and tail locks with a dummy node: one enqueue and one
    dequeue proceed concurrently, enqueuers never touch [Head] and
    dequeuers never touch [Tail], so there is no lock-ordering deadlock.
    Livelock-free given livelock-free locks (§3.3).

    Two functors cover the two axes of variation:

    - {!Make_lock} builds the queue over any {!Locks.Lock_intf.LOCK}
      (hardware atomics for the node links) — the §3.3 lock-discipline
      comparison.
    - {!Make} builds it over any {!Atomic_intf.ATOMIC} with an internal
      test-and-test&set lock expressed in the same primitive, so a
      traced instantiation model-checks the lock acquisition windows
      along with the critical sections.

    Node [next] links are atomic because they cross the two critical
    sections: the tail-side write must be visible to head-side readers
    without a common lock.  The default instantiation (this module) is
    {!Make} over [Stdlib_atomic] — the paper's test-and-test&set lock
    with bounded exponential backoff.  Its text is compiled with the
    atomic bound statically like the other queues', but it is one
    application of the two-parameter functor behind {!Make_lock} and
    {!Make}, so its operations still reach the atomic and the lock
    through functor arguments. *)

module Make_lock (_ : Locks.Lock_intf.LOCK) : Queue_intf.S

module Make (_ : Atomic_intf.ATOMIC) : Queue_intf.S

include Queue_intf.S
