(** Hazard pointers: safe memory reclamation for the lock-free
    structures (Michael, IEEE TPDS 2004 — the follow-up line of work to
    this paper's counted pointers and free lists).

    The paper recycles nodes through a free list and defends against the
    ABA problem with modification counters.  In OCaml, recycling nodes
    reintroduces ABA even with physical-equality CAS — an immediate
    value such as [None] in a reused node's [next] compares equal to the
    stale expectation — so a pooled queue needs a reclamation protocol.
    Hazard pointers are that protocol: before dereferencing a shared
    node a thread {e publishes} it in a hazard slot and re-validates;
    [retire] defers reuse of a node until no slot holds it.

    One manager guards one family of nodes.  Each domain gets a dense
    index on first use and [slots] hazard cells; reclamation scans run
    when a domain's retired list reaches [threshold].  Values are
    compared physically, so only heap-allocated nodes may be guarded.

    Like the queues, the manager is a functor over the atomic primitive
    ({!Atomic_intf.ATOMIC}): the guarded cells have the instantiation's
    cell type, per-"domain" indices come from its [dls], and under a
    traced instantiation each explored process gets its own hazard
    slots — so protect/retire windows are themselves model-checked
    interleaving points.  The module itself is the [Stdlib_atomic]
    instance, compiled from the functor's own text with the atomic
    bound statically, whose cells are plain [Stdlib.Atomic.t]. *)

(** What the functor yields.  ['a cell] is the instantiation's atomic
    cell type — the protectable pointers a client structure must build
    its nodes from. *)
module type S = sig
  type 'a cell

  type 'a t

  val create :
    ?max_domains:int -> ?slots:int -> ?threshold:int -> free:('a -> unit) -> unit -> 'a t
  (** [free] receives each reclaimed value (e.g. pushes it onto a node
      pool).  Defaults: 64 domains, 2 slots each, scan threshold 64.
      Raises [Invalid_argument] on nonpositive parameters. *)

  val protect : 'a t -> slot:int -> 'a option cell -> 'a option
  (** [protect t ~slot cell] reads [cell], publishes the target in this
      domain's hazard slot, and re-reads until the value is stable — the
      returned node (if any) cannot be reclaimed until the slot is
      overwritten or cleared. *)

  val set : 'a t -> slot:int -> 'a -> unit
  (** Publish a value already known to be safe (e.g. reached via a
      protected pointer and re-validated by the caller). *)

  val clear : 'a t -> slot:int -> unit
  val clear_all : 'a t -> unit

  val retire : 'a t -> 'a -> unit
  (** Hand a detached node to the manager; it is passed to [free] by a
      later scan once no hazard slot holds it. *)

  val scan : 'a t -> unit
  (** Force a reclamation pass for the calling domain. *)

  val retired_count : 'a t -> int
  (** Nodes awaiting reclamation in the calling domain (tests). *)
end

module Make (A : Atomic_intf.ATOMIC) : S with type 'a cell = 'a A.t

include S with type 'a cell = 'a Stdlib.Atomic.t
