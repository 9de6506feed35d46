(** The atomic primitive as a parameter: every native structure in
    {!Core} is a functor over this signature, so the same algorithm
    text runs on real hardware atomics ({!Stdlib_atomic}, the default
    instance re-exported under the historical module names, which the
    build compiles from each functor's text with [A] bound to it, so
    the compiler sees the primitives) and on
    instrumented ones — most importantly [Mcheck.Traced_atomic], which
    turns each primitive into a scheduling point so the model checker
    can exhaustively interleave native queue code.

    The signature is the subset of [Stdlib.Atomic] the queues use, plus
    three things a substitute implementation must be able to intercept:

    - [make_contended]: allocation padded to a cache line, for the
      top-level hot cells (Head, Tail, lock words).  On the native
      instantiation this is real padding; traced instantiations may
      treat it as [make].
    - [relax]: the spin-wait hint ([Domain.cpu_relax] natively).  A
      traced instantiation turns it into a yield so that spin loops
      (the two-lock queue's lock acquisition, the segmented queue's
      wait for an in-flight publisher) rotate the model checker's
      scheduler instead of hanging a single-threaded exploration.
    - [dls]: domain-local storage ([Domain.DLS] natively), used by
      {!Hazard_pointers} for per-domain hazard-slot indices.  A traced
      instantiation keys it by explored process instead, so each model
      process gets its own hazard slots. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t

  val make_contended : 'a -> 'a t
  (** Like [make], but the cell should not share a cache line with
      other allocations.  Use for top-level contended cells (Head,
      Tail, lock words), not per-node links. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit

  val relax : unit -> unit
  (** Spin-wait hint: the calling operation cannot progress until some
      other thread of control acts.  [Domain.cpu_relax] natively; a
      scheduling point under a model checker. *)

  type 'a dls
  (** A per-thread-of-control slot (domain-local natively). *)

  val dls_new : (unit -> 'a) -> 'a dls
  (** [dls_new init] allocates a slot; [init] runs once per thread of
      control on its first {!dls_get}. *)

  val dls_get : 'a dls -> 'a
end

module Stdlib_atomic :
  ATOMIC with type 'a t = 'a Stdlib.Atomic.t and type 'a dls = 'a Domain.DLS.key
(** The hardware instantiation.  [make_contended] returns a genuine
    [Stdlib.Atomic.t] whose block is padded to a cache line (the
    atomic primitives address field 0 regardless of block size), so
    cells it creates interoperate with plain [Stdlib.Atomic] code. *)
