(* The payoff of functorizing lib/core over ATOMIC: instantiate the
   real native queues with {!Traced_atomic}, run small-scope scenarios
   under {!Explore.Make (Native_machine)}, and judge every complete
   interleaving against the sequential FIFO specification.

   The oracle is two-layered.  First a conservation check: after the
   scenario's processes finish, a driver drains the queue to [None];
   the multiset of values dequeued (during the run and the drain) must
   equal the multiset enqueued — catching lost and duplicated values,
   which plain linearizability of the undrained history would excuse as
   "still in the queue".  Second, {!Lincheck.Checker} verifies the full
   history (operations with their interval order, drain included) is
   linearizable against the sequential FIFO queue — catching reorderings
   that conserve values. *)

module N = Explore.Make (Native_machine)

module type QUEUE = sig
  type 'a t

  val name : string
  val create : unit -> 'a t
  val enqueue : 'a t -> 'a -> unit
  val dequeue : 'a t -> 'a option
end

(* ------------------------------------------------------------------ *)
(* Scenarios: per-process operation scripts.  Values are made unique
   per (process, position) so conservation is a multiset equality and
   the checker can tell elements apart. *)

type op = Enq of int | Deq

type scenario = { sname : string; procs : op list array }

let value ~proc k = (100 * (proc + 1)) + k

(* [procs] processes, each enqueueing then dequeuing [ops] times — the
   general contended workload. *)
let pairs ~procs ~ops =
  {
    sname = Printf.sprintf "pairs-%dx%d" procs ops;
    procs =
      Array.init procs (fun p ->
          List.concat (List.init ops (fun k -> [ Enq (value ~proc:p k); Deq ])));
  }

let scenarios =
  [
    (* two enqueuers racing on the tail: link-CAS vs link-CAS, and the
       E9..E13 window (link done, tail not yet swung) against a second
       enqueue that must help *)
    {
      sname = "enq-enq";
      procs = [| [ Enq 101; Enq 102 ]; [ Enq 201; Enq 202 ] |];
    };
    (* dequeue-on-empty racing an enqueue: the D7-D8 empty verdict must
       be a real linearization point, not a stale snapshot *)
    {
      sname = "deq-empty";
      procs = [| [ Deq; Enq 101; Deq ]; [ Enq 201; Deq ] |];
    };
    (* a dequeuer driving through the mid-enqueue window: head==tail
       with a linked-but-unswung successor forces the D9 help path *)
    { sname = "tail-lag"; procs = [| [ Enq 101 ]; [ Deq; Deq ] |] };
    pairs ~procs:2 ~ops:1;
    pairs ~procs:2 ~ops:2;
    pairs ~procs:3 ~ops:1;
  ]

let find_scenario name = List.find_opt (fun s -> s.sname = name) scenarios

(* ------------------------------------------------------------------ *)
(* Traced instantiations of the native queues. *)

module T_ms = Core.Ms_queue.Make (Traced_atomic)
module T_counted = Core.Ms_queue_counted.Make (Traced_atomic)
module T_hp = Core.Ms_queue_hp.Make (Traced_atomic)
module T_two_lock = Core.Two_lock_queue.Make (Traced_atomic)
module T_segmented = Core.Segmented_queue.Make (Traced_atomic)
module T_scq = Core.Scq_queue.Make (Traced_atomic)

(* The bounded SCQ joins the unbounded battery through an adapter:
   capacity 4 covers the largest scenario's live-item count (enq-enq's
   four unanswered enqueues), so try_enqueue can never refuse and the
   unbounded FIFO spec applies unchanged.  The full/empty verdicts get
   their own bounded battery below. *)
module T_scq_unbounded = struct
  type 'a t = 'a T_scq.t

  let name = "scq"
  let create () = T_scq.create ~capacity:4 ()

  let enqueue q v =
    if not (T_scq.try_enqueue q v) then
      failwith "scq refused an enqueue below capacity"

  let dequeue = T_scq.try_dequeue
end

let queues : (string * (module QUEUE)) list =
  [
    ("ms", (module T_ms));
    ("ms-counted", (module T_counted));
    ("ms-hp", (module T_hp));
    ("two-lock", (module T_two_lock));
    ("segmented", (module T_segmented));
    ("scq", (module T_scq_unbounded));
  ]

let find_queue name = List.assoc_opt name queues

(* ------------------------------------------------------------------ *)
(* The planted bug: Figure 1 with D12's compare_and_set replaced by a
   plain store.  Two dequeuers that both read the same Head then both
   "win" return the same value — the lost-update race the checker must
   find (it needs one preemption between D11 and D12).  Enqueue is the
   correct algorithm, so single-process runs pass. *)
module Broken_ms (A : Core.Atomic_intf.ATOMIC) = struct
  type 'a node = { mutable value : 'a option; next : 'a node option A.t }

  type 'a t = { head : 'a node A.t; tail : 'a node A.t }

  let name = "broken-ms"

  let create () =
    let dummy = { value = None; next = A.make None } in
    { head = A.make dummy; tail = A.make dummy }

  let enqueue t v =
    let node = { value = Some v; next = A.make None } in
    let rec loop () =
      let tail = A.get t.tail in
      let next = A.get tail.next in
      if A.get t.tail == tail then
        match next with
        | None -> if A.compare_and_set tail.next next (Some node) then tail else loop ()
        | Some n ->
            ignore (A.compare_and_set t.tail tail n);
            loop ()
      else loop ()
    in
    let tail = loop () in
    ignore (A.compare_and_set t.tail tail node)

  let dequeue t =
    let rec loop () =
      let head = A.get t.head in
      let tail = A.get t.tail in
      let next = A.get head.next in
      if head == tail then
        match next with
        | None -> None
        | Some n ->
            ignore (A.compare_and_set t.tail tail n);
            loop ()
      else
        match next with
        | None -> loop ()
        | Some n ->
            let value = n.value in
            A.set t.head n; (* the bug: D12 without the CAS *)
            value
    in
    loop ()
end

module Broken = Broken_ms (Traced_atomic)

let broken : (module QUEUE) = (module Broken)

(* ------------------------------------------------------------------ *)
(* Oracle and driver. *)

(* Multiset equality of accepted enqueues vs. dequeued values —
   refused try_enqueues put nothing in the queue and count for
   neither side. *)
let conservation h =
  let enqueued =
    List.filter_map
      (fun e ->
        match e.Lincheck.History.op with
        | Lincheck.History.Enq v | Lincheck.History.Try_enq (v, true) -> Some v
        | Lincheck.History.Try_enq (_, false) | Lincheck.History.Deq _ -> None)
      h
  in
  let dequeued =
    List.filter_map
      (fun e ->
        match e.Lincheck.History.op with
        | Lincheck.History.Deq (Some v) -> Some v
        | Lincheck.History.Deq None
        | Lincheck.History.Enq _
        | Lincheck.History.Try_enq _ ->
            None)
      h
  in
  let sorted = List.sort compare in
  let render vs = String.concat "," (List.map string_of_int vs) in
  if sorted enqueued <> sorted dequeued then
    Error
      (Printf.sprintf "conservation violated: enqueued {%s} but dequeued {%s}"
         (render (sorted enqueued))
         (render (sorted dequeued)))
  else Ok ()

(* [spec]'s context type mentions the unpacked [Q.t], which must not
   escape — so consumers pass in a polymorphic continuation instead of
   receiving the spec. *)
type 'r runner = { go : 'ctx. 'ctx N.spec -> 'r }

let with_spec (module Q : QUEUE) scenario { go } =
  let make () =
    Traced_atomic.reset_ids ();
    let q : int Q.t = Q.create () in
    let recorder = Lincheck.History.create_recorder () in
    let bodies =
      Array.mapi
        (fun i steps () ->
          List.iter
            (fun op ->
              match op with
              | Enq v ->
                  Lincheck.History.record recorder ~proc:i (fun () ->
                      Q.enqueue q v;
                      Lincheck.History.Enq v)
              | Deq ->
                  Lincheck.History.record recorder ~proc:i (fun () ->
                      Lincheck.History.Deq (Q.dequeue q)))
            steps)
        scenario.procs
    in
    ((), (q, recorder), bodies)
  in
  let check_final () (q, recorder) =
    (* Quiescent drain by a driver "process" (its operations run
       untraced — the run is over).  The first None proves emptiness
       sequentially, so conservation must hold exactly. *)
    let driver = Array.length scenario.procs in
    let rec drain () =
      let got = ref None in
      Lincheck.History.record recorder ~proc:driver (fun () ->
          let r = Q.dequeue q in
          got := r;
          Lincheck.History.Deq r);
      if !got <> None then drain ()
    in
    drain ();
    let h = Lincheck.History.history recorder in
    match conservation h with
    | Error _ as e -> e
    | Ok () -> (
        match Lincheck.Checker.check h with
        | Lincheck.Checker.Linearizable -> Ok ()
        | Lincheck.Checker.Not_linearizable ->
            Error "history is not linearizable against the sequential FIFO queue"
        | Lincheck.Checker.Inconclusive ->
            Error "linearizability check inconclusive (configuration budget exhausted)")
  in
  go { N.make; check_final; check_step = None }

let check ?(max_preemptions = 2) ?(max_steps = 10_000) ?(max_runs = 1_000_000)
    ?(max_failures = 5) q scenario =
  with_spec q scenario
    { go = (fun s -> N.explore ~max_preemptions ~max_steps ~max_runs ~max_failures s) }

let check_random ?(max_preemptions = 3) ?(max_steps = 10_000) ?(runs = 1_000)
    ?(max_failures = 5) ~seed q scenario =
  with_spec q scenario
    { go = (fun s -> N.explore_random ~max_preemptions ~max_steps ~runs ~max_failures ~seed s) }

let replay ?(max_steps = 10_000) q scenario schedule =
  with_spec q scenario
    { go = (fun s -> (N.run s ~schedule ~budget:0 ~max_steps).N.status) }

(* ------------------------------------------------------------------ *)
(* Bounded battery: the same explorer over try_enqueue/try_dequeue
   scripts at tiny capacities, judged against the BOUNDED sequential
   spec — a spurious full verdict (or one that loses the element) is a
   failure exactly like a spurious empty. *)

module type BQUEUE = Core.Queue_intf.BOUNDED

type bop = Try_enq of int | Try_deq

type bounded_scenario = {
  bname : string;
  capacity : int;
  bprocs : bop list array;
}

let bounded_scenarios =
  [
    (* two enqueuers racing for the last free slot of a capacity-1
       queue against a dequeuer: exactly one of the competing full
       verdicts may be spurious-free *)
    {
      bname = "b-full-race";
      capacity = 1;
      bprocs = [| [ Try_enq 101; Try_enq 102 ]; [ Try_enq 201; Try_deq ] |];
    };
    (* a dequeuer burning tickets past an in-flight enqueue: the
       enqueuer must abandon its overrun ticket, not deposit into a
       slot whose dequeue ticket already passed (the planted-bug
       scenario) *)
    {
      bname = "b-empty-race";
      capacity = 2;
      bprocs = [| [ Try_enq 101; Try_deq; Try_deq ]; [ Try_enq 201 ] |];
    };
    (* capacity-1 ring wrapping twice under contention: cycle tags and
       catchup under both full and empty verdicts *)
    {
      bname = "b-wrap";
      capacity = 1;
      bprocs =
        [|
          [ Try_enq 101; Try_deq; Try_enq 102; Try_deq ];
          [ Try_enq 201; Try_deq ];
        |];
    };
  ]

let find_bounded_scenario name =
  List.find_opt (fun s -> s.bname = name) bounded_scenarios

let bqueues : (string * (module BQUEUE)) list = [ ("scq", (module T_scq)) ]

let find_bqueue name = List.assoc_opt name bqueues

(* The planted bug for the bounded checker's self-test: SCQ with the
   cycle comparison dropped from the ring-enqueue slot claim.  An
   enqueuer whose ticket was overrun by a dequeuer (which advanced the
   slot to the current cycle and moved on) then deposits into a slot
   whose dequeue ticket has already passed, stranding the value — one
   preemption in [b-empty-race] exposes it as a conservation
   violation.  Dequeue is the correct algorithm. *)
module Broken_scq (A : Core.Atomic_intf.ATOMIC) = struct
  type ring = {
    entries : int A.t array;
    head : int A.t;
    tail : int A.t;
    threshold : int A.t;
    order : int;
  }

  type 'a t = { aq : ring; fq : ring; data : 'a option array; cap : int }

  let name = "broken-scq"
  let imask r = (1 lsl r.order) - 1
  let safe_bit r = 1 lsl r.order

  let pack r ~cycle ~safe ~idx =
    (cycle lsl (r.order + 1)) lor (if safe then safe_bit r else 0) lor idx

  let entry_cycle r e = e asr (r.order + 1)
  let entry_idx r e = e land imask r
  let entry_safe r e = e land safe_bit r <> 0
  let threshold3 r = (1 lsl r.order) + (1 lsl (r.order - 1)) - 1

  let make_ring ~order ~prefill =
    let n2 = 1 lsl order in
    let entries =
      Array.init n2 (fun j ->
          if j < prefill then A.make ((1 lsl order) lor j)
          else A.make (((-1) lsl (order + 1)) lor (1 lsl order) lor (n2 - 1)))
    in
    {
      entries;
      head = A.make 0;
      tail = A.make prefill;
      threshold = A.make (if prefill > 0 then n2 + (n2 / 2) - 1 else -1);
      order;
    }

  let rec enq_ring r idx =
    let t = A.fetch_and_add r.tail 1 in
    let tcycle = t lsr r.order in
    let j = t land imask r in
    deposit r idx ~t ~tcycle ~j (A.get r.entries.(j))

  and deposit r idx ~t ~tcycle ~j e =
    (* the bug: no [entry_cycle r e < tcycle] guard *)
    if entry_idx r e = imask r && (entry_safe r e || A.get r.head <= t) then begin
      if A.compare_and_set r.entries.(j) e (pack r ~cycle:tcycle ~safe:true ~idx)
      then begin
        let thr = threshold3 r in
        if A.get r.threshold <> thr then A.set r.threshold thr
      end
      else deposit r idx ~t ~tcycle ~j (A.get r.entries.(j))
    end
    else enq_ring r idx

  let rec catchup r ~tail ~head =
    if not (A.compare_and_set r.tail tail head) then begin
      let head = A.get r.head in
      let tail = A.get r.tail in
      if tail < head then catchup r ~tail ~head
    end

  let rec deq_ring r =
    if A.get r.threshold < 0 then None
    else begin
      let h = A.fetch_and_add r.head 1 in
      let hcycle = h lsr r.order in
      let j = h land imask r in
      consume r ~h ~hcycle ~j (A.get r.entries.(j))
    end

  and consume r ~h ~hcycle ~j e =
    let ecycle = entry_cycle r e in
    if ecycle = hcycle && entry_idx r e <> imask r then begin
      if A.compare_and_set r.entries.(j) e (e lor imask r) then
        Some (entry_idx r e)
      else consume r ~h ~hcycle ~j (A.get r.entries.(j))
    end
    else begin
      let advanced =
        if ecycle < hcycle then begin
          let desired =
            if entry_idx r e = imask r then
              pack r ~cycle:hcycle ~safe:(entry_safe r e) ~idx:(imask r)
            else e land lnot (safe_bit r)
          in
          desired = e || A.compare_and_set r.entries.(j) e desired
        end
        else true
      in
      if not advanced then consume r ~h ~hcycle ~j (A.get r.entries.(j))
      else begin
        let t = A.get r.tail in
        if t <= h + 1 then begin
          catchup r ~tail:t ~head:(h + 1);
          ignore (A.fetch_and_add r.threshold (-1));
          None
        end
        else if A.fetch_and_add r.threshold (-1) <= 0 then None
        else deq_ring r
      end
    end

  let create ?(capacity = 1024) () =
    let rec order_for k = if 1 lsl k >= capacity then k else order_for (k + 1) in
    let cap_order = order_for 0 in
    let cap = 1 lsl cap_order in
    let order = cap_order + 1 in
    {
      aq = make_ring ~order ~prefill:0;
      fq = make_ring ~order ~prefill:cap;
      data = Array.make cap None;
      cap;
    }

  let capacity t = t.cap

  let try_enqueue t v =
    match deq_ring t.fq with
    | None -> false
    | Some i ->
        t.data.(i) <- Some v;
        enq_ring t.aq i;
        true

  let try_dequeue t =
    match deq_ring t.aq with
    | None -> None
    | Some i ->
        let v = t.data.(i) in
        t.data.(i) <- None;
        enq_ring t.fq i;
        v

  let length t =
    Array.fold_left
      (fun acc e -> if entry_idx t.aq (A.get e) <> imask t.aq then acc + 1 else acc)
      0 t.aq.entries

  let is_empty t = length t = 0
end

module Broken_b = Broken_scq (Traced_atomic)

let broken_bounded : (module BQUEUE) = (module Broken_b)

let with_bounded_spec (module Q : BQUEUE) scenario { go } =
  let make () =
    Traced_atomic.reset_ids ();
    let q : int Q.t = Q.create ~capacity:scenario.capacity () in
    let recorder = Lincheck.History.create_recorder () in
    let bodies =
      Array.mapi
        (fun i steps () ->
          List.iter
            (fun op ->
              match op with
              | Try_enq v ->
                  Lincheck.History.record recorder ~proc:i (fun () ->
                      Lincheck.History.Try_enq (v, Q.try_enqueue q v))
              | Try_deq ->
                  Lincheck.History.record recorder ~proc:i (fun () ->
                      Lincheck.History.Deq (Q.try_dequeue q)))
            steps)
        scenario.bprocs
    in
    ((), (q, recorder), bodies)
  in
  let check_final () (q, recorder) =
    let driver = Array.length scenario.bprocs in
    let rec drain () =
      let got = ref None in
      Lincheck.History.record recorder ~proc:driver (fun () ->
          let r = Q.try_dequeue q in
          got := r;
          Lincheck.History.Deq r);
      if !got <> None then drain ()
    in
    drain ();
    let h = Lincheck.History.history recorder in
    match conservation h with
    | Error _ as e -> e
    | Ok () -> (
        (* Q.capacity, not scenario.capacity: the spec must match the
           rounding the implementation actually enforces *)
        match Lincheck.Checker.check ~capacity:(Q.capacity q) h with
        | Lincheck.Checker.Linearizable -> Ok ()
        | Lincheck.Checker.Not_linearizable ->
            Error
              "history is not linearizable against the bounded sequential queue"
        | Lincheck.Checker.Inconclusive ->
            Error "linearizability check inconclusive (configuration budget exhausted)")
  in
  go { N.make; check_final; check_step = None }

let check_bounded ?(max_preemptions = 2) ?(max_steps = 10_000)
    ?(max_runs = 1_000_000) ?(max_failures = 5) q scenario =
  with_bounded_spec q scenario
    { go = (fun s -> N.explore ~max_preemptions ~max_steps ~max_runs ~max_failures s) }

let check_bounded_random ?(max_preemptions = 3) ?(max_steps = 10_000)
    ?(runs = 1_000) ?(max_failures = 5) ~seed q scenario =
  with_bounded_spec q scenario
    { go = (fun s -> N.explore_random ~max_preemptions ~max_steps ~runs ~max_failures ~seed s) }

let replay_bounded ?(max_steps = 10_000) q scenario schedule =
  with_bounded_spec q scenario
    { go = (fun s -> (N.run s ~schedule ~budget:0 ~max_steps).N.status) }

(* ------------------------------------------------------------------ *)
(* The battery and its planted-bug self-test, as [msq_check
   mcheck-native] runs them. *)

type run = { queue : string; scenario : string; outcome : Explore.outcome }

let battery ?max_preemptions ?max_steps ?queue ?scenario () =
  (* A name picks its entries from each table: "scq" is in both the
     unbounded one (an adapter for the shared battery) and the bounded
     one (the real try_enqueue/try_dequeue battery). *)
  let pick name key table =
    match name with
    | None -> table
    | Some n -> List.filter (fun x -> key x = n) table
  in
  let qs = pick queue fst queues and bqs = pick queue fst bqueues in
  let ss = pick scenario (fun s -> s.sname) scenarios
  and bss = pick scenario (fun b -> b.bname) bounded_scenarios in
  let unknown what name have =
    Error
      (Printf.sprintf "unknown %s %S (have: %s)" what (Option.get name)
         (String.concat ", " have))
  in
  if qs = [] && bqs = [] then
    unknown "queue" queue
      (List.sort_uniq compare (List.map fst queues @ List.map fst bqueues))
  else if ss = [] && bss = [] then
    unknown "scenario" scenario
      (List.map (fun s -> s.sname) scenarios
      @ List.map (fun b -> b.bname) bounded_scenarios)
  else
    let runs table scripts name check =
      List.concat_map
        (fun (queue, q) ->
          List.map
            (fun s -> { queue; scenario = name s; outcome = check q s })
            scripts)
        table
    in
    Ok
      (runs qs ss
         (fun s -> s.sname)
         (fun q s -> check ?max_preemptions ?max_steps q s)
      @ runs bqs bss
          (fun b -> b.bname)
          (fun q b -> check_bounded ?max_preemptions ?max_steps q b))

let self_test ?max_preemptions ?max_steps () =
  let s = pairs ~procs:2 ~ops:1 in
  let b = Option.get (find_bounded_scenario "b-empty-race") in
  let ms = check ?max_preemptions ?max_steps broken s in
  let scq = check_bounded ?max_preemptions ?max_steps broken_bounded b in
  [
    { queue = "broken-ms"; scenario = s.sname; outcome = ms };
    { queue = "broken-scq"; scenario = b.bname; outcome = scq };
  ]
