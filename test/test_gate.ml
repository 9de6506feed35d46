(* Every acceptance gate at tiny scale, through the same library function
   msq_check and the benchmark call.  Deterministic gates assert their
   verdicts, and each is fed a planted defect it must fail on; the
   wall-clock gates (the fabric SLO, the telemetry overhead) assert only
   that they ran and returned a finite measurement — CI enforces their
   bounds. *)

let ok_all what vs =
  List.iter
    (fun (v : Harness.Verdict.t) ->
      if not v.ok then Alcotest.failf "%s: %s failed: %s" what v.name v.detail)
    vs

let failing name vs =
  match List.find_opt (fun (v : Harness.Verdict.t) -> v.name = name) vs with
  | None -> Alcotest.failf "no %S verdict" name
  | Some v -> Alcotest.(check bool) (name ^ " fails") false v.ok

let test_report_exit_code () =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  let pass = Harness.Verdict.v "a" true "fine" in
  let report = Harness.Verdict.report ~fmt "g" in
  Alcotest.(check int) "all held" 0 (report [ pass ]);
  Alcotest.(check int) "one failed" 1
    (report [ pass; Harness.Verdict.v "b" false "no" ]);
  Alcotest.(check int) "nothing to judge" 0 (report [])

(* ------------------------------------------------------------------ *)
(* Crash: the dichotomy's judge on planted sweep results *)

let crash_result ~trials ~blocked =
  {
    Harness.Crash_experiment.algorithm = "planted";
    trials;
    survived_trials = trials - blocked;
    blocked_trials = blocked;
    victim_total_ops = 1_000;
    points = [];
  }

let test_crash_planted () =
  let holds =
    [
      ("ms", crash_result ~trials:48 ~blocked:0);
      ("single-lock", crash_result ~trials:48 ~blocked:5);
      ("stone", crash_result ~trials:48 ~blocked:3);
    ]
  in
  let vs = Harness.Crash_experiment.dichotomy holds in
  ok_all "crash" vs;
  Alcotest.(check int) "unclassified keys get no verdict" 2 (List.length vs);
  failing "non-blocking ms"
    (Harness.Crash_experiment.dichotomy
       [ ("ms", crash_result ~trials:48 ~blocked:1) ]);
  failing "blocking single-lock"
    (Harness.Crash_experiment.dichotomy
       [ ("single-lock", crash_result ~trials:48 ~blocked:0) ])

(* ------------------------------------------------------------------ *)
(* Chaos *)

let test_chaos_gate () =
  ok_all "chaos"
    (Harness.Gate.chaos ~ops:200 ~rounds:1 ~seed:42L
       (Harness.Gate.chaos_queues "ms"));
  failing "broken-ms"
    (Harness.Gate.chaos ~ops:200 ~rounds:1 ~seed:42L
       [ ("broken-ms", (module Harness.Soak.Broken_ms : Core.Queue_intf.S)) ]);
  Alcotest.check_raises "a bounded-only key is refused"
    (Invalid_argument "no unbounded native queue \"scq\"") (fun () ->
      ignore (Harness.Gate.chaos_queues "scq"))

(* ------------------------------------------------------------------ *)
(* Native linearizability *)

(* A LIFO posing as a capacity-2 queue: two enqueues then a dequeue
   hand back the second value, which no FIFO history explains. *)
module Lifo : Core.Queue_intf.BOUNDED = struct
  type 'a t = { s : 'a Core.Treiber_stack.t; capacity : int }

  let name = "treiber-lifo"

  let create ?(capacity = 1024) () =
    { s = Core.Treiber_stack.create (); capacity }

  let capacity t = t.capacity

  let try_enqueue t v =
    Core.Treiber_stack.length t.s < t.capacity
    && (Core.Treiber_stack.push t.s v;
        true)

  let try_dequeue t = Core.Treiber_stack.pop t.s
  let is_empty t = Core.Treiber_stack.is_empty t.s
  let length t = Core.Treiber_stack.length t.s
end

let test_native_lin_gate () =
  ok_all "native-lin" (Harness.Gate.native_lin "segmented");
  ok_all "native-lin" (Harness.Gate.native_lin ~chaos:true ~seed:42L "fabric");
  failing "lifo" (Harness.Gate.native_lin_queue ~name:"lifo" (module Lifo))

(* ------------------------------------------------------------------ *)
(* Fabric: the judge on planted measurements, the SLO measured *)

let test_fabric_gate () =
  let f =
    Harness.Gate.fabric ~shards:8 ~native_shards:2 ~pairs:800 ~arrivals:300
      [
        { Harness.Gate.label = "20k"; rate = 20_000.; skew = 0.; crash = false };
      ]
  in
  let vs = Harness.Gate.fabric_verdicts f in
  List.iter
    (fun name ->
      match List.find_opt (fun (v : Harness.Verdict.t) -> v.name = name) vs with
      | Some v -> Alcotest.(check bool) name true v.ok
      | None -> Alcotest.failf "no %S verdict" name)
    [ "sim-scaling>=3x"; "writers-disjoint" ];
  (match f.open_loop with
  | [ (_, r) ] ->
      let _, _, p999 =
        Harness.Open_loop.percentiles r.Harness.Open_loop.sojourn
      in
      Alcotest.(check bool) "sojourn p999 measured" true (p999 >= 0);
      Alcotest.(check bool) "an SLO verdict" true
        (List.exists
           (fun (v : Harness.Verdict.t) -> v.name = "slo-p999@20000/s")
           vs)
  | _ -> Alcotest.fail "one open-loop point expected");
  (* planted: only 2x cheaper at 8 shards *)
  let slow =
    {
      f with
      sharded =
        { f.sharded with net_per_pair = f.single.net_per_pair /. 2. };
    }
  in
  failing "sim-scaling>=3x" (Harness.Gate.fabric_verdicts slow);
  (* planted: one processor writing two shards' Head lines *)
  let line label =
    {
      Sim.Cache.line = 0;
      label = Some label;
      hits = 0;
      misses = 0;
      invalidations = 0;
      cycles = 0;
      sharer_joins = 0;
      reads = 0;
      writes = 1;
      top_reader = None;
      top_writer = None;
      readers = [];
      writers = [ 0 ];
    }
  in
  let shared =
    {
      f with
      sharded =
        {
          f.sharded with
          heatmap = [ line "fabric.s0.aq.Head"; line "fabric.s1.aq.Head" ];
        };
    }
  in
  failing "writers-disjoint" (Harness.Gate.fabric_verdicts shared)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_gates () =
  let path = Filename.temp_file "flight" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ok_all "flight dump" (Harness.Gate.flight_dump ~seed:0x7E1EL ~path));
  let t = Harness.Gate.timeline ~seed:0x7E1EL ~pairs:5_000 ~arrivals:1_000 in
  ok_all "timeline" (Harness.Gate.timeline_verdicts t);
  let pct = Harness.Gate.overhead_pct ~pairs:20 () in
  Alcotest.(check bool) "overhead measured" true (Float.is_finite pct)

(* ------------------------------------------------------------------ *)
(* Native model checking *)

let test_mcheck_gate () =
  (match
     Harness.Gate.mcheck_native ~queue:"ms" ~scenario:"enq-enq" ~self_test:true
       ()
   with
  | Error e -> Alcotest.fail e
  | Ok m ->
      ok_all "mcheck-native" m.verdicts;
      Alcotest.(check int) "one run and a planted bug per mutant"
        (1 + List.length Mcheck.Core_explore.mutants)
        (List.length m.verdicts);
      Alcotest.(check bool) "no counterexample" true (m.counterexample = None));
  match Harness.Gate.mcheck_native ~queue:"nope" ~self_test:false () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unknown queue must be refused"

(* ------------------------------------------------------------------ *)
(* Soak *)

let test_soak_gate () =
  let g =
    Harness.Soak.gate ~keys:[ "ms"; "scq" ] ~rounds:1 ~ops:100 ~deadline_s:45.
      ~seed:0x54455354L ()
  in
  let vs = Harness.Soak.verdicts g in
  ok_all "soak" vs;
  Alcotest.(check (list string)) "verdicts"
    [ "sim ms"; "native ms-nonblocking"; "native scq" ]
    (List.map (fun (v : Harness.Verdict.t) -> v.name) vs);
  (match Harness.Soak.gate_json g with
  | Obs.Json.Assoc kvs ->
      Alcotest.(check (list string)) "soak section keys"
        [ "seed"; "native"; "sim" ] (List.map fst kvs)
  | _ -> Alcotest.fail "gate_json is not an object");
  (* planted: a self-test that missed its bug, a non-blocking queue
     that did not complete *)
  failing "self-test" (Harness.Soak.verdicts { g with self_test = Some false });
  let stuck =
    List.map
      (fun (k, (r : Harness.Soak.sim_result)) ->
        (k, { r with sim_outcome = "blocked" }))
      g.sim
  in
  failing "sim ms" (Harness.Soak.verdicts { g with sim = stuck });
  (* planted: a blocking queue that survived every crash point *)
  let survived =
    List.map
      (fun (_, (r : Harness.Soak.sim_result)) ->
        ("two-lock", { r with algorithm = "two-lock"; blocked_points = 0 }))
      g.sim
  in
  failing "sim two-lock" (Harness.Soak.verdicts { g with sim = survived })

let suites =
  [
    ( "gate",
      [
        Alcotest.test_case "verdict report exit code" `Quick
          test_report_exit_code;
        Alcotest.test_case "crash dichotomy judge" `Quick test_crash_planted;
        Alcotest.test_case "chaos audit" `Quick test_chaos_gate;
        Alcotest.test_case "native linearizability" `Quick test_native_lin_gate;
        Alcotest.test_case "fabric" `Quick test_fabric_gate;
        Alcotest.test_case "telemetry" `Quick test_telemetry_gates;
        Alcotest.test_case "native model check" `Quick test_mcheck_gate;
        Alcotest.test_case "soak" `Quick test_soak_gate;
      ] );
  ]
