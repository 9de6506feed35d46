(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_enq_locked = Locks.Probe.label "slock.enq.locked"
let l_enq_critical = Locks.Probe.label "slock.enq.critical"
let l_deq_locked = Locks.Probe.label "slock.deq.locked"
let l_deq_critical = Locks.Probe.label "slock.deq.critical"

module Make (Lock : Locks.Lock_intf.LOCK) = struct
  type 'a node = { value : 'a; mutable next : 'a node option }

  (* The lock serializes everything, so plain mutable fields suffice and
     no dummy node is needed: empty is [head = tail = None]. *)
  type 'a t = {
    mutable head : 'a node option;
    mutable tail : 'a node option;
    lock : Lock.t;
  }

  let name = "single-lock(" ^ Lock.name ^ ")"
  let create () = { head = None; tail = None; lock = Lock.create () }

  let enqueue t v =
    let node = { value = v; next = None } in
    Lock.with_lock t.lock (fun () ->
        Locks.Probe.site l_enq_locked;
        Locks.Probe.phase_begin l_enq_critical;
        (match t.tail with
        | None ->
            t.head <- Some node;
            t.tail <- Some node
        | Some last ->
            last.next <- Some node;
            t.tail <- Some node);
        Locks.Probe.phase_end l_enq_critical)

  let dequeue t =
    Lock.with_lock t.lock (fun () ->
        Locks.Probe.site l_deq_locked;
        Locks.Probe.phase_begin l_deq_critical;
        let r =
          match t.head with
          | None -> None
          | Some first ->
              t.head <- first.next;
              if first.next = None then t.tail <- None;
              Some first.value
        in
        Locks.Probe.phase_end l_deq_critical;
        r)

  let peek t =
    Lock.with_lock t.lock (fun () ->
        match t.head with
        | None -> None
        | Some first -> Some first.value)

  let is_empty t = Lock.with_lock t.lock (fun () -> t.head = None)

  let length t =
    Lock.with_lock t.lock (fun () ->
        let rec walk node acc =
          match node with
          | None -> acc
          | Some n -> walk n.next (acc + 1)
        in
        walk t.head 0)
end

include Make (Locks.Ttas_lock)

let name = "single-lock"
