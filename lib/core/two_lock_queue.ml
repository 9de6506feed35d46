(* The queue body is generic in BOTH the atomic primitive and the lock:
   [Make_generic] is the common text, [Make_lock] fixes the atomics to
   the hardware ones and varies the lock (the paper's §3.3 comparison of
   lock disciplines), and [Make] fixes the lock to an internal
   test-and-test&set spin lock built over the same ATOMIC so that a
   traced instantiation can explore the lock words too. *)

(* Probe labels, bound outside the functors so every instance shares them. *)
let l_enq_locked = Locks.Probe.label "2lock.enq.locked"
let l_enq_critical = Locks.Probe.label "2lock.enq.critical"
let l_deq_locked = Locks.Probe.label "2lock.deq.locked"
let l_deq_critical = Locks.Probe.label "2lock.deq.critical"

module Make_generic (A : Atomic_intf.ATOMIC) (Lock : sig
  type t

  val create : unit -> t
  val with_lock : t -> (unit -> 'b) -> 'b
end) =
struct
  type 'a node = { mutable value : 'a option; next : 'a node option A.t }

  type 'a t = {
    mutable head : 'a node;  (* the dummy; touched only under h_lock *)
    mutable tail : 'a node;  (* the last node; touched only under t_lock *)
    h_lock : Lock.t;
    t_lock : Lock.t;
  }

  let create () =
    let dummy = { value = None; next = A.make None } in
    { head = dummy; tail = dummy; h_lock = Lock.create (); t_lock = Lock.create () }

  let enqueue t v =
    let node = { value = Some v; next = A.make None } in
    Lock.with_lock t.t_lock (fun () ->
        Locks.Probe.site l_enq_locked;
        Locks.Probe.phase_begin l_enq_critical;
        A.set t.tail.next (Some node); (* link at the end *)
        t.tail <- node (* swing Tail *);
        Locks.Probe.phase_end l_enq_critical)

  let dequeue t =
    Lock.with_lock t.h_lock (fun () ->
        Locks.Probe.site l_deq_locked;
        Locks.Probe.phase_begin l_deq_critical;
        let r =
          match A.get t.head.next with
          | None -> None
          | Some node ->
              (* [node] becomes the new dummy; take its payload *)
              let value = node.value in
              node.value <- None;
              t.head <- node;
              value
        in
        Locks.Probe.phase_end l_deq_critical;
        r)

  let peek t =
    Lock.with_lock t.h_lock (fun () ->
        match A.get t.head.next with
        | None -> None
        | Some node -> node.value)

  let is_empty t =
    Lock.with_lock t.h_lock (fun () ->
        match A.get t.head.next with
        | None -> true
        | Some _ -> false)

  let length t =
    Lock.with_lock t.h_lock (fun () ->
        let rec walk node acc =
          match A.get node.next with
          | None -> acc
          | Some n -> walk n (acc + 1)
        in
        walk t.head 0)
end

module Make_lock (Lock : Locks.Lock_intf.LOCK) = struct
  include
    Make_generic
      (Atomic_intf.Stdlib_atomic)
      (struct
        type t = Lock.t

        let create = Lock.create
        let with_lock = Lock.with_lock
      end)

  let name = "two-lock(" ^ Lock.name ^ ")"
end

module Make (A : Atomic_intf.ATOMIC) = struct
  (* {!Locks.Ttas_lock} over [A] instead of hard-wired [Stdlib.Atomic]:
     same test-and-test&set discipline and bounded backoff, with an
     [A.relax] per spin so a traced scheduler rotates instead of
     spinning forever inside one step. *)
  module Spin = struct
    type t = bool A.t

    let create () = A.make_contended false

    let acquire t =
      let b = Locks.Backoff.create () in
      let rec outer () =
        while A.get t do
          A.relax ();
          Locks.Backoff.once b
        done;
        if A.exchange t true then begin
          A.relax ();
          Locks.Backoff.once b;
          outer ()
        end
      in
      outer ()

    let release t = A.set t false

    let with_lock t f =
      acquire t;
      match f () with
      | result ->
          release t;
          result
      | exception e ->
          release t;
          raise e
  end

  include Make_generic (A) (Spin)

  let name = "two-lock"
end

include Make (Atomic_intf.Stdlib_atomic)
