(** Treiber's non-blocking stack (paper ref. [21]).

    The paper uses it as the non-blocking free list backing the MS
    queue's node pool; it is exposed here as a first-class structure
    because it is useful on its own (LIFO work pools, free lists).
    Linearizable and non-blocking; a push or pop retries only when
    another operation succeeded.

    {!Make} abstracts the atomic primitive ({!Atomic_intf.ATOMIC});
    the module itself is the [Stdlib_atomic] instance, compiled from
    the functor's own text with the atomic bound statically. *)

(** What the functor yields. *)
module type S = sig
  type 'a t

  val name : string
  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val pop : 'a t -> 'a option
  (** [None] when the stack was observed empty. *)

  val peek : 'a t -> 'a option
  val is_empty : 'a t -> bool

  val length : 'a t -> int
  (** O(n) snapshot; for tests and monitoring. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
