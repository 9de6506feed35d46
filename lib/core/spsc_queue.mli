(** Lamport's wait-free single-producer/single-consumer queue (paper
    ref. [9]).

    The paper's survey notes Lamport's algorithm as the wait-free queue
    that "restricts concurrency to a single enqueuer and a single
    dequeuer" — with that restriction, a bounded ring buffer needs no
    atomic read-modify-write at all: the producer is the only writer of
    [tail], the consumer the only writer of [head], and each operation
    completes in a bounded number of steps unconditionally.

    The OCaml rendering keeps the two indices in atomic cells purely
    for inter-domain publication ordering (release/acquire); there are
    no CAS loops and no retries.  Exactly one domain may call [push] and
    exactly one (possibly different) domain may call [pop]; concurrent
    producers or consumers void the warranty.

    {!Make} abstracts the atomic primitive ({!Atomic_intf.ATOMIC}) so
    the index publications become explorable scheduling points; the
    module itself is the [Stdlib_atomic] instance, compiled from the
    functor's own text with the atomic bound statically. *)

(** What the functor yields. *)
module type S = sig
  type 'a t

  val create : capacity:int -> 'a t
  (** A ring holding at most [capacity] items.
      Raises [Invalid_argument] if [capacity < 1]. *)

  val capacity : 'a t -> int

  val push : 'a t -> 'a -> bool
  (** Producer side; [false] iff the queue is full.  Wait-free. *)

  val pop : 'a t -> 'a option
  (** Consumer side; [None] iff the queue is empty.  Wait-free. *)

  val peek : 'a t -> 'a option
  (** Consumer side. *)

  val length : 'a t -> int
  (** Snapshot of the occupancy; exact when called by either endpoint. *)

  val is_empty : 'a t -> bool
end

module Make (_ : Atomic_intf.ATOMIC) : S

include S
