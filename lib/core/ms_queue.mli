(** The Michael–Scott non-blocking queue (paper Figure 1) for OCaml 5 —
    the idiomatic variant.

    A singly-linked list with atomic [Head] and [Tail] and a dummy node
    at the head; enqueue links at the tail with a CAS and helps lagging
    tails forward, dequeue swings [Head] with a CAS.  Linearizable and
    non-blocking.

    This variant leans on the garbage collector instead of the paper's
    counted pointers and free list: nodes are freshly allocated, and
    OCaml's [Atomic.compare_and_set] compares physically, so a stale
    expected value can never match a recycled one — the ABA problem is
    structurally impossible and no modification counters are needed.
    See {!Ms_queue_counted} for the faithful counted-pointer/free-list
    variant, and DESIGN.md for the trade-off discussion.

    The algorithm is a functor over its atomic primitive: {!Make} over
    any {!Atomic_intf.ATOMIC} yields the same code text running on that
    substrate, and the module itself is that text over
    [Atomic_intf.Stdlib_atomic] — hardware atomics with padded
    Head/Tail cells — compiled with the atomic bound statically rather
    than as a functor application, so a load is inline and a CAS a
    direct runtime call.  The model checker
    instantiates {!Make} with a traced atomic instead (see
    [Mcheck.Core_explore]) to exhaustively explore interleavings of
    this exact implementation. *)

module Make (_ : Atomic_intf.ATOMIC) : Queue_intf.S

include Queue_intf.S
