(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_enq_link = Locks.Probe.label "msq-hp.enq.link"
let l_enq_swing = Locks.Probe.label "msq-hp.enq.swing"
let l_deq_protected = Locks.Probe.label "msq-hp.deq.protected"
let l_deq_head = Locks.Probe.label "msq-hp.deq.head"

module type S = sig
  include Queue_intf.S

  val pool_size : 'a t -> int
  val pending_reclamation : 'a t -> int
end

module Make (A : Atomic_intf.ATOMIC) = struct
  module HP = Hazard_pointers.Make (A)

  type 'a node = { mutable value : 'a option; next : 'a node option A.t }

  (* Head and Tail are [node option] cells holding [Some _] at all times,
     so they can be read through HP.protect directly. *)
  type 'a t = {
    head : 'a node option A.t;
    tail : 'a node option A.t;
    pool : 'a node list A.t;
    hp : 'a node HP.t;
  }

  let name = "ms-hazard"

  let push_pool pool node =
    let rec loop () =
      let old = A.get pool in
      if not (A.compare_and_set pool old (node :: old)) then loop ()
    in
    loop ()

  let create () =
    let dummy = { value = None; next = A.make None } in
    let pool = A.make [] in
    {
      head = A.make_contended (Some dummy);
      tail = A.make_contended (Some dummy);
      pool;
      hp = HP.create ~free:(push_pool pool) ();
    }

  let rec pool_pop t =
    match A.get t.pool with
    | [] -> None
    | node :: rest as old ->
        if A.compare_and_set t.pool old rest then Some node else pool_pop t

  let new_node t v =
    match pool_pop t with
    | Some node ->
        node.value <- Some v;
        A.set node.next None;
        node
    | None -> { value = Some v; next = A.make None }

  let enqueue t v =
    let node = new_node t v in
    let b = Locks.Backoff.create () in
    let rec loop () =
      (* protecting the tail keeps its [next] cell ours to interrogate:
         without the hazard, the node could be reclaimed and reused, and
         the CAS below could link onto a node living in another position *)
      let tailo = HP.protect t.hp ~slot:0 t.tail in
      let tail = Option.get tailo in
      let next = A.get tail.next in
      if A.get t.tail == tailo then
        match next with
        | None ->
            Locks.Probe.site l_enq_link;
            if A.compare_and_set tail.next next (Some node) then tailo
            else begin
              Locks.Probe.cas_retry ();
              Locks.Backoff.once b;
              loop ()
            end
        | Some n ->
            Locks.Probe.help ();
            ignore (A.compare_and_set t.tail tailo (Some n));
            loop ()
      else loop ()
    in
    let tailo = loop () in
    Locks.Probe.site l_enq_swing;
    ignore (A.compare_and_set t.tail tailo (Some node));
    HP.clear t.hp ~slot:0

  let dequeue t =
    let b = Locks.Backoff.create () in
    let rec loop () =
      let heado = HP.protect t.hp ~slot:0 t.head in
      let head = Option.get heado in
      let tailo = A.get t.tail in
      (* the head hazard makes head.next a stable cell; the second slot
         then pins the successor before we read through it *)
      let nexto = HP.protect t.hp ~slot:1 head.next in
      (* between publishing the hazard and acting on it: the window a
         concurrent retire+scan must respect *)
      Locks.Probe.site l_deq_protected;
      if A.get t.head == heado then
        if head == Option.get tailo then
          match nexto with
          | None -> None
          | Some n ->
              Locks.Probe.help ();
              ignore (A.compare_and_set t.tail tailo (Some n));
              loop ()
        else
          match nexto with
          | None -> loop ()
          | Some n ->
              let value = n.value in
              Locks.Probe.site l_deq_head;
              if A.compare_and_set t.head heado nexto then begin
                n.value <- None;
                (* the old dummy is detached: no new reference can form,
                   so it is safe to retire; reuse waits for the hazards *)
                HP.retire t.hp head;
                value
              end
              else begin
                Locks.Probe.cas_retry ();
                Locks.Backoff.once b;
                loop ()
              end
      else loop ()
    in
    let result = loop () in
    HP.clear_all t.hp;
    result

  let peek t =
    let rec loop () =
      let heado = HP.protect t.hp ~slot:0 t.head in
      let head = Option.get heado in
      let nexto = HP.protect t.hp ~slot:1 head.next in
      let value = match nexto with None -> None | Some n -> n.value in
      if A.get t.head == heado then
        match nexto with
        | None -> None
        | Some _ -> value
      else loop ()
    in
    let result = loop () in
    HP.clear_all t.hp;
    result

  let is_empty t =
    let heado = HP.protect t.hp ~slot:0 t.head in
    let head = Option.get heado in
    let next = A.get head.next in
    HP.clear t.hp ~slot:0;
    match next with
    | None -> true
    | Some _ -> false

  let pool_size t = List.length (A.get t.pool)
  let pending_reclamation t = HP.retired_count t.hp

  let length t =
    let rec walk node acc =
      match A.get node.next with
      | None -> acc
      | Some n -> walk n (acc + 1)
    in
    walk (Option.get (A.get t.head)) 0
end

include Make (Atomic_intf.Stdlib_atomic)
