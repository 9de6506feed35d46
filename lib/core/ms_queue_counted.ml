(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_enq_link = Locks.Probe.label "msc.enq.link"
let l_enq_swing = Locks.Probe.label "msc.enq.swing"
let l_deq_head = Locks.Probe.label "msc.deq.head"

module type S = sig
  include Queue_intf.S

  val head_count : 'a t -> int
  val tail_count : 'a t -> int
  val pool_size : 'a t -> int
end

module Make (A : Atomic_intf.ATOMIC) = struct
  (* The counted pointer of the paper's [structure pointer_t]: a record
     CASed as a unit.  [ptr = None] is the null pointer.  Every
     successful CAS installs a fresh record with [count + 1]. *)
  type 'a pointer = { ptr : 'a node option; count : int }

  and 'a node = { mutable value : 'a option; next : 'a pointer A.t }

  type 'a t = {
    head : 'a pointer A.t;
    tail : 'a pointer A.t;
    free : 'a pointer A.t;  (* Treiber-stack top; links reuse [next] *)
  }

  let name = "ms-counted"

  let create () =
    let dummy = { value = None; next = A.make { ptr = None; count = 0 } } in
    {
      head = A.make_contended { ptr = Some dummy; count = 0 };
      tail = A.make_contended { ptr = Some dummy; count = 0 };
      free = A.make_contended { ptr = None; count = 0 };
    }

  (* new_node(): pop from the free list, falling back to allocation.  The
     node's [next] keeps its old count (the paper's E3 nulls only the ptr
     subfield), preserving the cell's monotonic history. *)
  let rec new_node t =
    let top = A.get t.free in
    match top.ptr with
    | None -> { value = None; next = A.make { ptr = None; count = 0 } }
    | Some n ->
        let link = A.get n.next in
        if A.compare_and_set t.free top { ptr = link.ptr; count = top.count + 1 }
        then begin
          A.set n.next { ptr = None; count = link.count };
          n
        end
        else new_node t

  let rec free_node t n =
    let top = A.get t.free in
    let link = A.get n.next in
    A.set n.next { ptr = top.ptr; count = link.count };
    if A.compare_and_set t.free top { ptr = Some n; count = top.count + 1 } then ()
    else free_node t n

  let enqueue t v =
    let node = new_node t in (* E1 *)
    node.value <- Some v; (* E2; E3 happened in new_node *)
    let b = Locks.Backoff.create () in
    let rec loop () =
      let tail = A.get t.tail in (* E5 *)
      let tail_node = Option.get tail.ptr in
      let next = A.get tail_node.next in (* E6 *)
      if A.get t.tail == tail then (* E7 *)
        match next.ptr with
        | None ->
            Locks.Probe.site l_enq_link;
            if
              A.compare_and_set tail_node.next next (* E9 *)
                { ptr = Some node; count = next.count + 1 }
            then tail
            else begin
              Locks.Probe.cas_retry ();
              Locks.Backoff.once b;
              loop ()
            end
        | Some n ->
            Locks.Probe.help ();
            ignore
              (A.compare_and_set t.tail tail (* E12 *)
                 { ptr = Some n; count = tail.count + 1 });
            loop ()
      else loop ()
    in
    let tail = loop () in
    Locks.Probe.site l_enq_swing;
    ignore (A.compare_and_set t.tail tail { ptr = Some node; count = tail.count + 1 })
  (* E13 *)

  let dequeue t =
    let b = Locks.Backoff.create () in
    let rec loop () =
      let head = A.get t.head in (* D2 *)
      let tail = A.get t.tail in (* D3 *)
      let head_node = Option.get head.ptr in
      let tail_node = Option.get tail.ptr in
      let next = A.get head_node.next in (* D4 *)
      if A.get t.head == head then (* D5 *)
        (* compare the nodes, not the option boxes: distinct [Some]
           wrappers may point to the same node *)
        if head_node == tail_node then
          match next.ptr with
          | None -> None (* D7-D8 *)
          | Some n ->
              Locks.Probe.help ();
              ignore
                (A.compare_and_set t.tail tail (* D9 *)
                   { ptr = Some n; count = tail.count + 1 });
              loop ()
        else
          match next.ptr with
          | None -> loop () (* transiently inconsistent snapshot *)
          | Some n ->
              let value = n.value in (* D11: read before the CAS *)
              Locks.Probe.site l_deq_head;
              if
                A.compare_and_set t.head head (* D12 *)
                  { ptr = Some n; count = head.count + 1 }
              then begin
                (* Clear the old dummy, not the new one: once head is
                   [n], another dequeuer can free [n] and an enqueuer
                   refill it before a store here lands, erasing its
                   value.  Only the old dummy is this thread's alone. *)
                head_node.value <- None;
                free_node t head_node; (* D14 *)
                value
              end
              else begin
                Locks.Probe.cas_retry ();
                Locks.Backoff.once b;
                loop ()
              end
      else loop ()
    in
    loop ()

  let peek t =
    let rec loop () =
      let head = A.get t.head in
      let head_node = Option.get head.ptr in
      let next = A.get head_node.next in
      let value = match next.ptr with None -> None | Some n -> n.value in
      if A.get t.head == head then
        match next.ptr with
        | None -> None
        | Some _ -> value
      else loop ()
    in
    loop ()

  let is_empty t =
    let head = A.get t.head in
    match (A.get (Option.get head.ptr).next).ptr with
    | None -> true
    | Some _ -> false

  let head_count t = (A.get t.head).count
  let tail_count t = (A.get t.tail).count

  let pool_size t =
    let rec walk p acc =
      match p with
      | None -> acc
      | Some n -> walk (A.get n.next).ptr (acc + 1)
    in
    walk (A.get t.free).ptr 0

  (* O(1) from the counted pointers: each linked node gets exactly one
     successful tail swing (E12/E13/D9 install [count + 1] on the same
     record at most once) and each dequeue one successful D12, so
     [tail.count - head.count] is the number of linked, undequeued nodes.
     A pointer walk would race with recycling — a walker overtaken by
     dequeues can follow a freed node's relinked [next] back into the
     live tail and double-count — violating the [0, enqueues started]
     bound documented on {!Queue_intf.S.length}.  Reading [head] first
     keeps the difference non-negative (a node is swung before it can be
     dequeued, so head's count never leads tail's). *)
  let length t =
    let head = A.get t.head in
    let tail = A.get t.tail in
    max 0 (tail.count - head.count)
end

include Make (Atomic_intf.Stdlib_atomic)
