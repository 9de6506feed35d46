(* The default instance of every re-exported queue module.  The build
   compiles each functor's body a second time with [A] bound to this
   module (tools/specialize), so [get] is an inline load and
   [compare_and_set]/[fetch_and_add] are direct runtime calls.
   [make_contended] pads the cell to its own cache line by copying the
   one-word atomic block into a larger one: the atomic primitives
   (%atomic_load, %atomic_cas, ...) operate on field 0 regardless of
   block size, and [Obj.new_block] initializes the trailing fields to
   [()] so the GC scans them harmlessly.  This is the multicore-magic
   idiom, inlined here because the repository adds no dependencies. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val make_contended : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
  val relax : unit -> unit

  type 'a dls

  val dls_new : (unit -> 'a) -> 'a dls
  val dls_get : 'a dls -> 'a
end

module Stdlib_atomic = struct
  include Stdlib.Atomic

  (* 16 words = 128 bytes: one cache line on common x86-64 parts, two
     64-byte lines' worth of separation elsewhere — enough either way
     to keep two contended cells off each other's line. *)
  let padded_words = 16

  let make_contended v =
    let src = Obj.repr (Stdlib.Atomic.make v) in
    let dst = Obj.new_block (Obj.tag src) padded_words in
    Obj.set_field dst 0 (Obj.field src 0);
    (Obj.obj dst : _ Stdlib.Atomic.t)

  let relax = Domain.cpu_relax

  type 'a dls = 'a Domain.DLS.key

  let dls_new f = Domain.DLS.new_key f
  let dls_get k = Domain.DLS.get k
end
