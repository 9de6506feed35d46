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
   their own bounded battery below.  Its dequeue is the fabric's
   bounded-shard poll: the two-load test [maybe_nonempty], and a ticket
   only when it passes, so the battery judges the test's empty answers
   too.  A functor, so the test's mutant joins the same way. *)
module Scq_unbounded (Q : Core.Scq_queue.S) = struct
  type 'a t = 'a Q.t

  let name = "scq"
  let create () = Q.create ~capacity:4 ()

  let enqueue q v =
    if not (Q.try_enqueue q v) then
      failwith "scq refused an enqueue below capacity"

  let dequeue q = if Q.maybe_nonempty q then Q.try_dequeue q else None
end

module T_scq_unbounded = Scq_unbounded (T_scq)

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

type bop = Try_enq of int | Try_deq | Length

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
    (* a length sample racing a dequeue and re-enqueue on a capacity-1
       ring: the one index moves to the next slot between the sampler's
       slot loads, and the sample must still lie in [0, capacity] *)
    {
      bname = "b-length";
      capacity = 1;
      bprocs = [| [ Try_deq; Try_enq 101 ]; [ Try_enq 201; Length ] |];
    };
  ]

let find_bounded_scenario name =
  List.find_opt (fun s -> s.bname = name) bounded_scenarios

let bqueues : (string * (module BQUEUE)) list = [ ("scq", (module T_scq)) ]

let find_bqueue name = List.assoc_opt name bqueues

let with_bounded_spec (module Q : BQUEUE) scenario { go } =
  let make () =
    Traced_atomic.reset_ids ();
    let q : int Q.t = Q.create ~capacity:scenario.capacity () in
    let recorder = Lincheck.History.create_recorder () in
    (* [length] samples outside [0, capacity]; not part of the history *)
    let out_of_bound = ref [] in
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
                      Lincheck.History.Deq (Q.try_dequeue q))
              | Length ->
                  let n = Q.length q in
                  if n < 0 || n > Q.capacity q then
                    out_of_bound := n :: !out_of_bound)
            steps)
        scenario.bprocs
    in
    ((), (q, recorder, out_of_bound), bodies)
  in
  let check_final () (q, recorder, out_of_bound) =
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
    match (!out_of_bound, conservation h) with
    | n :: _, _ ->
        Error
          (Printf.sprintf "length sample %d outside [0, %d]" n (Q.capacity q))
    | [], (Error _ as e) -> e
    | [], Ok () -> (
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

let replay_bounded ?(max_steps = 10_000) q scenario schedule =
  with_bounded_spec q scenario
    { go = (fun s -> (N.run s ~schedule ~budget:0 ~max_steps).N.status) }

(* ------------------------------------------------------------------ *)
(* Mutants: shipping functors with one planted bug each, compiled from
   their lib/core text by the mutant table in this directory's dune
   file, so a mutant cannot drift from the queue it mutates. *)

type subject =
  | Unbounded of (module QUEUE) * scenario
  | Bounded of (module BQUEUE) * bounded_scenario

type mutant = { mname : string; mqueue : string; subject : subject }

let broken : (module QUEUE) = (module Mutants.Ms_d12_store.Make (Traced_atomic))

let broken_bounded : (module BQUEUE) =
  (module Mutants.Scq_no_cycle_guard.Make (Traced_atomic))

let mutants =
  let unbounded mname mqueue q =
    { mname; mqueue; subject = Unbounded (q, pairs ~procs:2 ~ops:1) }
  in
  [
    unbounded "ms-d12-store" "ms" broken;
    unbounded "ms-counted-d12-store" "ms-counted"
      (module Mutants.Ms_counted_d12_store.Make (Traced_atomic));
    unbounded "ms-hp-d12-store" "ms-hp"
      (module Mutants.Ms_hp_d12_store.Make (Traced_atomic));
    unbounded "two-lock-spin-store" "two-lock"
      (module Mutants.Two_lock_spin_store.Make (Traced_atomic));
    unbounded "segmented-poison-store" "segmented"
      (module Mutants.Segmented_poison_store.Make (Traced_atomic));
    {
      mname = "scq-no-cycle-guard";
      mqueue = "scq";
      subject =
        Bounded (broken_bounded, Option.get (find_bounded_scenario "b-empty-race"));
    };
    unbounded "scq-tail-before-head" "scq"
      (module Scq_unbounded (Mutants.Scq_tail_before_head.Make (Traced_atomic)));
  ]

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
  List.map
    (fun m ->
      let scenario, outcome =
        match m.subject with
        | Unbounded (q, s) -> (s.sname, check ?max_preemptions ?max_steps q s)
        | Bounded (q, b) -> (b.bname, check_bounded ?max_preemptions ?max_steps q b)
      in
      { queue = m.mname; scenario; outcome })
    mutants
