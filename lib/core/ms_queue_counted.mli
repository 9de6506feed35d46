(** The Michael–Scott non-blocking queue, faithful variant: counted
    pointers and a non-blocking free list, exactly as in the paper's
    Figure 1.

    Nodes are recycled through a Treiber-stack free list instead of
    being garbage collected, and both [Head]/[Tail] and every node's
    [next] field are {e counted pointers} — a target plus a modification
    count incremented by each successful CAS.  On the paper's hardware
    the count is what makes recycling safe against the ABA problem; in
    OCaml, [Atomic.compare_and_set]'s physical comparison of the
    (freshly allocated) pointer record already rules ABA out, so the
    counts here are faithful structure rather than a necessity — they
    also make the queue's update history observable ({!head_count},
    {!tail_count}), which the tests use.

    The free list keeps dequeued nodes available for reuse, bounding
    allocation: a queue that stays short allocates a bounded number of
    nodes no matter how many operations run — the property Valois's
    reference-counted scheme lacks (paper §1).  A dequeued value stays
    in the node that becomes the dummy until the next dequeue frees
    that node: clearing it any earlier races with the node's reuse.

    {!Make} abstracts the atomic primitive ({!Atomic_intf.ATOMIC});
    the module itself is the [Stdlib_atomic] instance, compiled from
    the functor's own text with the atomic bound statically. *)

(** What the functor yields: the queue signature plus the counted
    pointers' observable history. *)
module type S = sig
  include Queue_intf.S

  val head_count : 'a t -> int
  (** Number of successful [Head] CASes (= completed dequeues). *)

  val tail_count : 'a t -> int
  (** Number of successful [Tail] swings. *)

  val pool_size : 'a t -> int
  (** Nodes currently on the free list. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
