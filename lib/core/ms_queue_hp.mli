(** The Michael–Scott non-blocking queue with node pooling and
    hazard-pointer reclamation.

    The paper bounds allocation by recycling nodes through a free list
    and defends the recycling against ABA with counted pointers.  In
    OCaml the counted-pointer trick is unnecessary for fresh nodes (see
    {!Ms_queue}) but recycling brings ABA back: a reused node's [next]
    holds the immediate value [None], which a stale
    [Atomic.compare_and_set] happily matches.  This variant solves the
    recycling problem the way the literature eventually did — Michael's
    hazard pointers (2004) — making it both a faithful heir to the
    paper's free-list design and a demonstration of the "safe memory
    reclamation" future work that grew out of it.

    Operations protect the nodes they dereference in per-domain hazard
    slots; dequeued dummies are retired and return to the pool only when
    no domain still holds them.  Same API and progress guarantees as
    {!Ms_queue}.

    {!Make} threads one {!Atomic_intf.ATOMIC} through both the queue
    and its embedded {!Hazard_pointers.Make} manager, so a traced
    instantiation explores the protect/retire windows too; the module
    itself is the [Stdlib_atomic] instance, compiled from the functor's
    own text with the atomic bound statically, over the specialized
    {!Hazard_pointers}. *)

(** What the functor yields: the queue signature plus the reclamation
    observables. *)
module type S = sig
  include Queue_intf.S

  val pool_size : 'a t -> int
  (** Nodes currently available for reuse (post-reclamation). *)

  val pending_reclamation : 'a t -> int
  (** Retired nodes of the calling domain not yet proven unhazarded. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
