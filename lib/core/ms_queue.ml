(* Line numbers refer to the paper's Figure 1.  [value] is an option
   only because the dummy node needs an empty slot; it is cleared when a
   node becomes the new dummy so dequeued items are not retained. *)

(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_enq_snapshot = Locks.Probe.label "msq.enq.snapshot"
let l_enq_link = Locks.Probe.label "msq.enq.link"
let l_enq_backoff = Locks.Probe.label "msq.enq.backoff"
let l_enq_help = Locks.Probe.label "msq.enq.help"
let l_enq_swing = Locks.Probe.label "msq.enq.swing"
let l_deq_snapshot = Locks.Probe.label "msq.deq.snapshot"
let l_deq_help = Locks.Probe.label "msq.deq.help"
let l_deq_head = Locks.Probe.label "msq.deq.head"
let l_deq_backoff = Locks.Probe.label "msq.deq.backoff"

module Make (A : Atomic_intf.ATOMIC) = struct
  type 'a node = { mutable value : 'a option; next : 'a node option A.t }

  type 'a t = { head : 'a node A.t; tail : 'a node A.t }

  let name = "ms-nonblocking"

  let create () =
    let dummy = { value = None; next = A.make None } in
    { head = A.make_contended dummy; tail = A.make_contended dummy }

  let enqueue t v =
    let node = { value = Some v; next = A.make None } in (* E1-E3 *)
    let b = Locks.Backoff.create () in
    let rec loop () =
      Locks.Probe.phase_begin l_enq_snapshot;
      let tail = A.get t.tail in (* E5 *)
      let next = A.get tail.next in (* E6 *)
      let consistent = A.get t.tail == tail in (* E7 *)
      Locks.Probe.phase_end l_enq_snapshot;
      if consistent then
        match next with
        | None ->
            Locks.Probe.site l_enq_link;
            if A.compare_and_set tail.next next (Some node) then tail (* E9 *)
            else begin
              Locks.Probe.cas_retry ();
              Locks.Probe.phase_begin l_enq_backoff;
              Locks.Backoff.once b;
              Locks.Probe.phase_end l_enq_backoff;
              loop ()
            end
        | Some n ->
            (* E12: Tail is lagging; help it forward and retry *)
            Locks.Probe.help ();
            Locks.Probe.phase_begin l_enq_help;
            ignore (A.compare_and_set t.tail tail n);
            Locks.Probe.phase_end l_enq_help;
            loop ()
      else loop ()
    in
    let tail = loop () in
    (* the window between E9 and E13 is what E12/D9 helping defends *)
    Locks.Probe.site l_enq_swing;
    ignore (A.compare_and_set t.tail tail node) (* E13 *)

  let dequeue t =
    let b = Locks.Backoff.create () in
    let rec loop () =
      Locks.Probe.phase_begin l_deq_snapshot;
      let head = A.get t.head in (* D2 *)
      let tail = A.get t.tail in (* D3 *)
      let next = A.get head.next in (* D4 *)
      let consistent = A.get t.head == head in (* D5 *)
      Locks.Probe.phase_end l_deq_snapshot;
      if consistent then (* D5 *)
        if head == tail then
          match next with
          | None -> None (* D7-D8: empty *)
          | Some n ->
              (* D9: Tail is falling behind; advance it *)
              Locks.Probe.help ();
              Locks.Probe.phase_begin l_deq_help;
              ignore (A.compare_and_set t.tail tail n);
              Locks.Probe.phase_end l_deq_help;
              loop ()
        else
          match next with
          | None ->
              (* head != tail implies the dummy has a successor *)
              loop ()
          | Some n ->
              let value = n.value in (* D11 *)
              Locks.Probe.site l_deq_head;
              if A.compare_and_set t.head head n then begin
                (* D12 *)
                n.value <- None; (* n is the new dummy; drop its payload *)
                value
              end
              else begin
                Locks.Probe.cas_retry ();
                Locks.Probe.phase_begin l_deq_backoff;
                Locks.Backoff.once b;
                Locks.Probe.phase_end l_deq_backoff;
                loop ()
              end
      else loop ()
    in
    loop ()

  let peek t =
    let rec loop () =
      let head = A.get t.head in
      let next = A.get head.next in
      (* read the value before re-checking Head: the node's payload is
         cleared by the dequeue that moves Head past it, so an unchanged
         Head proves the value was intact when read (cf. D11's comment) *)
      let value = match next with None -> None | Some n -> n.value in
      if A.get t.head == head then
        match next with
        | None -> None
        | Some _ -> value
      else loop ()
    in
    loop ()

  let is_empty t =
    let head = A.get t.head in
    match A.get head.next with
    | None -> true
    | Some _ -> false

  let length t =
    let rec walk node acc =
      match A.get node.next with
      | None -> acc
      | Some n -> walk n (acc + 1)
    in
    walk (A.get t.head) 0
end

include Make (Atomic_intf.Stdlib_atomic)
