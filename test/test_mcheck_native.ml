(* Tests of the native-world model checking stack (the payoff of
   lib/core's ATOMIC functorization): Traced_atomic's primitives,
   Native_machine's stepping/trace contract, and Core_explore's
   exhaustive verdicts — the shipping queue functors are clean at small
   scope, every mutant is caught with a replayable counterexample, and
   exploration is deterministic. *)

open Mcheck

(* ------------------------------------------------------------------ *)
(* Traced_atomic: outside a run, every primitive executes directly. *)

let test_traced_atomic_direct () =
  let a = Traced_atomic.make 1 in
  Alcotest.(check int) "get" 1 (Traced_atomic.get a);
  Traced_atomic.set a 2;
  Alcotest.(check int) "set visible" 2 (Traced_atomic.get a);
  Alcotest.(check int) "exchange returns old" 2 (Traced_atomic.exchange a 3);
  Alcotest.(check bool) "cas hit" true (Traced_atomic.compare_and_set a 3 4);
  Alcotest.(check bool) "cas miss" false (Traced_atomic.compare_and_set a 3 5);
  Alcotest.(check int) "faa returns old" 4 (Traced_atomic.fetch_and_add a 10);
  Traced_atomic.incr a;
  Traced_atomic.decr a;
  Alcotest.(check int) "incr/decr net zero" 14 (Traced_atomic.get a);
  (* relax outside a run is a no-op, not an unhandled effect *)
  Traced_atomic.relax ()

let test_traced_atomic_contended () =
  (* make_contended is plain make under tracing (no padding needed in a
     model), but must preserve the same cell semantics *)
  let a = Traced_atomic.make_contended "x" in
  Alcotest.(check string) "contended get" "x" (Traced_atomic.get a);
  Alcotest.(check bool) "contended cas" true
    (Traced_atomic.compare_and_set a "x" "y")

let test_traced_dls () =
  let key = Traced_atomic.dls_new (fun () -> ref 0) in
  let r = Traced_atomic.dls_get key in
  incr r;
  (* same slot on re-read for the same (driver) process *)
  Alcotest.(check int) "dls slot stable" 1 !(Traced_atomic.dls_get key)

(* ------------------------------------------------------------------ *)
(* Native_machine: one announce commits per step, traces render. *)

let test_machine_steps_and_trace () =
  Traced_atomic.reset_ids ();
  let a = Traced_atomic.make 0 in
  let m =
    Native_machine.start ()
      [|
        (fun () -> Traced_atomic.set a 1);
        (fun () -> ignore (Traced_atomic.get a));
      |]
  in
  Alcotest.(check (list int)) "both enabled" [ 0; 1 ] (Native_machine.enabled m);
  (* first activation suspends at the announce without executing it *)
  Alcotest.(check bool) "p0 suspends" true (Native_machine.step m 0 = `Ran);
  Alcotest.(check int) "set not yet committed" 0 (Traced_atomic.get a);
  (* the resume commits the set; the body then finishes *)
  Alcotest.(check bool) "p0 finishes" true (Native_machine.step m 0 = `Finished);
  Alcotest.(check int) "set committed" 1 (Traced_atomic.get a);
  ignore (Native_machine.step m 1);
  ignore (Native_machine.step m 1);
  Alcotest.(check bool) "all done" true (Native_machine.all_done m);
  Alcotest.(check (list string)) "trace in execution order"
    [ "p0: set c0"; "p1: get c0" ]
    (Native_machine.trace m)

let test_machine_pause_hint () =
  let m = Native_machine.start () [| (fun () -> Traced_atomic.relax ()) |] in
  (* the hint is reported at suspension, before the spin commits *)
  Alcotest.(check bool) "relax reports pause hint" true
    (Native_machine.step m 0 = `Pause_hint);
  Alcotest.(check bool) "spin commits and finishes" true
    (Native_machine.step m 0 = `Finished)

(* ------------------------------------------------------------------ *)
(* Exhaustive verdicts on the shipping queues. *)

let exhaustive_clean qname sname () =
  let q = Option.get (Core_explore.find_queue qname) in
  let s = Option.get (Core_explore.find_scenario sname) in
  let o = Core_explore.check q s in
  Alcotest.(check bool) "explored schedules" true (o.Explore.runs > 0);
  Alcotest.(check int) "no divergence" 0 o.Explore.diverged;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s violations" qname sname)
    0
    (List.length o.Explore.failures)

(* ------------------------------------------------------------------ *)
(* The bounded battery: SCQ's try_enqueue/try_dequeue at tiny
   capacities, judged by conservation plus the bounded sequential
   spec (Checker.check ~capacity). *)

let bounded_clean sname () =
  let q = Option.get (Core_explore.find_bqueue "scq") in
  let b = Option.get (Core_explore.find_bounded_scenario sname) in
  let o = Core_explore.check_bounded q b in
  Alcotest.(check bool) "explored schedules" true (o.Explore.runs > 0);
  Alcotest.(check int) "no divergence" 0 o.Explore.diverged;
  Alcotest.(check int)
    (Printf.sprintf "scq/%s violations" sname)
    0
    (List.length o.Explore.failures)

(* ------------------------------------------------------------------ *)
(* The checker checks: every mutant is caught under its scenario, and
   its first counterexample schedule replays to the same failure. *)

let mutant_caught (m : Core_explore.mutant) () =
  let o, replay =
    match m.subject with
    | Unbounded (q, s) -> (Core_explore.check q s, Core_explore.replay q s)
    | Bounded (q, b) -> (Core_explore.check_bounded q b, Core_explore.replay_bounded q b)
  in
  Alcotest.(check bool) "planted bug caught" true (o.Explore.failures <> []);
  let f = List.hd o.Explore.failures in
  Alcotest.(check bool) "oracle message non-empty" true (f.Explore.message <> "");
  Alcotest.(check bool) "operation trace recorded" true (f.Explore.trace <> []);
  match replay f.Explore.schedule with
  | `Failed f' ->
      Alcotest.(check string) "replay reproduces the failure"
        f.Explore.message f'.Explore.message
  | `Completed | `Diverged ->
      Alcotest.fail "counterexample schedule did not reproduce the failure"

let test_every_queue_mutated () =
  List.iter
    (fun key ->
      if not (List.exists (fun m -> m.Core_explore.mqueue = key) Core_explore.mutants)
      then Alcotest.failf "battery queue %s has no mutant" key)
    (List.map fst Core_explore.queues @ List.map fst Core_explore.bqueues)

(* The length oracle reads the bound: an SCQ whose [length] over-counts
   by one is caught in b-length, where one item is live. *)
let test_length_oracle_catches_overcount () =
  let module Q = (val Option.get (Core_explore.find_bqueue "scq")) in
  let module Over = struct
    include Q

    let length q = Q.length q + 1
  end in
  let b = Option.get (Core_explore.find_bounded_scenario "b-length") in
  let o = Core_explore.check_bounded (module Over) b in
  Alcotest.(check bool) "over-count caught" true (o.Explore.failures <> [])

(* ------------------------------------------------------------------ *)
(* Determinism: the same configuration explores the same schedule
   space, run to run — the property that makes counterexamples
   shareable. *)

let test_exploration_deterministic () =
  let q = Option.get (Core_explore.find_queue "ms") in
  let s = Option.get (Core_explore.find_scenario "enq-enq") in
  let o1 = Core_explore.check q s in
  let o2 = Core_explore.check q s in
  Alcotest.(check int) "same schedule count" o1.Explore.runs o2.Explore.runs;
  Alcotest.(check int) "same divergences" o1.Explore.diverged o2.Explore.diverged;
  Alcotest.(check int) "same failure count"
    (List.length o1.Explore.failures)
    (List.length o2.Explore.failures)

let test_random_deterministic () =
  let q = Option.get (Core_explore.find_queue "ms") in
  let s = Core_explore.pairs ~procs:3 ~ops:2 in
  let o1 = Core_explore.check_random ~runs:100 ~seed:42L q s in
  let o2 = Core_explore.check_random ~runs:100 ~seed:42L q s in
  Alcotest.(check int) "same runs" o1.Explore.runs o2.Explore.runs;
  Alcotest.(check int) "no violations" 0 (List.length o1.Explore.failures);
  Alcotest.(check int) "same failure count"
    (List.length o1.Explore.failures)
    (List.length o2.Explore.failures)

(* ------------------------------------------------------------------ *)

let battery qname =
  List.map
    (fun s ->
      let sname = s.Core_explore.sname in
      let speed =
        (* the larger pair workloads explore thousands of schedules *)
        if sname = "pairs-2x2" || sname = "pairs-3x1" then `Slow else `Quick
      in
      Alcotest.test_case
        (Printf.sprintf "%s clean under %s (exhaustive)" qname sname)
        speed
        (exhaustive_clean qname sname))
    Core_explore.scenarios

let suites =
  [
    ( "mcheck_native.traced_atomic",
      [
        Alcotest.test_case "primitives outside a run" `Quick
          test_traced_atomic_direct;
        Alcotest.test_case "make_contended semantics" `Quick
          test_traced_atomic_contended;
        Alcotest.test_case "dls slots" `Quick test_traced_dls;
      ] );
    ( "mcheck_native.machine",
      [
        Alcotest.test_case "step commits one announce" `Quick
          test_machine_steps_and_trace;
        Alcotest.test_case "relax pause hint" `Quick test_machine_pause_hint;
      ] );
    ("mcheck_native.ms", battery "ms");
    ("mcheck_native.scq", battery "scq");
    ( "mcheck_native.scq_bounded",
      List.map
        (fun b ->
          let sname = b.Core_explore.bname in
          Alcotest.test_case
            (Printf.sprintf "scq clean under %s (exhaustive, bounded spec)"
               sname)
            `Quick (bounded_clean sname))
        Core_explore.bounded_scenarios );
    ("mcheck_native.ms_counted", battery "ms-counted");
    ("mcheck_native.ms_hp", battery "ms-hp");
    ("mcheck_native.two_lock", battery "two-lock");
    ("mcheck_native.segmented", battery "segmented");
    ( "mcheck_native.oracle",
      List.map
        (fun (m : Core_explore.mutant) ->
          Alcotest.test_case
            (Printf.sprintf "mutant %s caught and replayable" m.mname)
            `Quick (mutant_caught m))
        Core_explore.mutants
      @ [
          Alcotest.test_case "every battery queue has a mutant" `Quick
            test_every_queue_mutated;
          Alcotest.test_case "exploration deterministic" `Quick
            test_exploration_deterministic;
          Alcotest.test_case "random mode deterministic" `Quick
            test_random_deterministic;
          Alcotest.test_case "length oracle catches an over-count" `Quick
            test_length_oracle_catches_overcount;
        ] );
  ]
