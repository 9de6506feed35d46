(* Probe labels, interned once. *)
let l_enq_swap = Locks.Probe.label "mc.enq.swap"
let l_enq_link = Locks.Probe.label "mc.enq.link"
let l_deq_gap = Locks.Probe.label "mc.deq.gap"
let l_deq_head = Locks.Probe.label "mc.deq.head"

type 'a node = { mutable value : 'a option; next : 'a node option Atomic.t }

type 'a t = { head : 'a node Atomic.t; tail : 'a node Atomic.t }

let name = "mc-lockfree"

let create () =
  let dummy = { value = None; next = Atomic.make None } in
  { head = Atomic.make dummy; tail = Atomic.make dummy }

let enqueue t v =
  let node = { value = Some v; next = Atomic.make None } in
  Locks.Probe.site l_enq_swap;
  let prev = Atomic.exchange t.tail node in
  (* the blocking gap: between the exchange above and this link write,
     the list is disconnected and dequeuers at [prev] must wait *)
  Locks.Probe.site l_enq_link;
  Atomic.set prev.next (Some node)

let dequeue t =
  let b = Locks.Backoff.create () in
  let rec loop () =
    let head = Atomic.get t.head in
    match Atomic.get head.next with
    | None ->
        if Atomic.get t.tail == head then
          if Atomic.get t.head == head then None (* truly empty *) else loop ()
        else begin
          (* an enqueuer holds the gap: wait for its link write *)
          Locks.Probe.site l_deq_gap;
          Locks.Backoff.once b;
          loop ()
        end
    | Some n ->
        let value = n.value in
        Locks.Probe.site l_deq_head;
        if Atomic.compare_and_set t.head head n then begin
          n.value <- None;
          value
        end
        else begin
          Locks.Probe.cas_retry ();
          Locks.Backoff.once b;
          loop ()
        end
  in
  loop ()

let peek t =
  let rec loop () =
    let head = Atomic.get t.head in
    let next = Atomic.get head.next in
    let value = match next with None -> None | Some n -> n.value in
    if Atomic.get t.head == head then
      match next with
      | None -> None
      | Some _ -> value
    else loop ()
  in
  loop ()

let is_empty t =
  let head = Atomic.get t.head in
  match Atomic.get head.next with
  | None -> Atomic.get t.tail == head
  | Some _ -> false

let length t =
  let rec walk node acc =
    match Atomic.get node.next with
    | None -> acc
    | Some n -> walk n (acc + 1)
  in
  walk (Atomic.get t.head) 0
