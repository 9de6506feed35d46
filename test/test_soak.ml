(* The fault-storm soak harness: engine-level crash+restart semantics,
   the native chaos/crash/restart soak (deterministic smoke), the
   planted-bug self-test, the simulator mirror, and the liveness
   per-case deadline. *)

(* ------------------------------------------------------------------ *)
(* Engine crash + restart *)

let test_engine_crash_restart () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let spin_ops n () =
    for _ = 1 to n do
      Sim.Api.work 1
    done
  in
  let replacement_ran = ref 0 in
  let victim = Sim.Engine.spawn eng (spin_ops 20) in
  let other = Sim.Engine.spawn eng (spin_ops 20) in
  Sim.Engine.plan_crash_restart eng victim ~after_ops:5 ~restart_after:100
    (fun () ->
      incr replacement_ran;
      spin_ops 7 ());
  (match Sim.Engine.run eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "crash+restart system should complete");
  Alcotest.(check int) "victim died after exactly its 5th op" 5
    (Sim.Engine.ops_executed eng victim);
  Alcotest.(check int) "survivor ran to completion" 20
    (Sim.Engine.ops_executed eng other);
  Alcotest.(check int) "replacement body ran once" 1 !replacement_ran

let test_engine_restart_lone_victim () =
  (* the whole system is the victim: the run must idle forward to the
     revival instead of declaring completion at the crash *)
  let eng = Sim.Engine.create (Sim.Config.with_processors 1) in
  let revived = ref false in
  let victim =
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 10 do
          Sim.Api.work 1
        done)
  in
  Sim.Engine.plan_crash_restart eng victim ~after_ops:3 ~restart_after:1_000
    (fun () -> revived := true);
  (match Sim.Engine.run eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "lone-victim revival should complete");
  Alcotest.(check bool) "replacement revived after idle-forward" true !revived

let test_inject_requires_restart () =
  let eng = Sim.Engine.create Sim.Config.default in
  let pid = Sim.Engine.spawn eng (fun () -> ()) in
  Alcotest.check_raises "Crash_restart without ~restart"
    (Invalid_argument "Faults.inject: Crash_restart requires ~restart")
    (fun () ->
      Sim.Faults.inject eng pid
        (Sim.Faults.Crash_restart { after_ops = 1; restart_after = 10 }))

(* ------------------------------------------------------------------ *)
(* Native soak: deterministic smoke runs.  Small rounds/ops keep tier 1
   fast; the CI soak step and msq_check soak run the real thing. *)

module Soak_ms = Harness.Soak.Make (Core.Queue_intf.Unbounded (Core.Ms_queue))
module Soak_scq = Harness.Soak.Make (Core.Scq_queue)

let smoke_seed = 0x54455354L

(* The dequeue tail is measured whenever a consumer got anything. *)
let check_deq_tail (r : Harness.Soak.report) =
  if r.consumed > 0 then
    Alcotest.(check bool) "deq_p999_ns measured" true (r.deq_p999_ns > 0)

let test_soak_ms_smoke () =
  let r = Soak_ms.run ~rounds:2 ~ops:200 ~deadline_s:45. ~seed:smoke_seed () in
  if not (Harness.Soak.passed r) then
    Alcotest.failf "ms soak failed: %a" Harness.Soak.pp_report r;
  Alcotest.(check int) "all rounds completed" 2 r.Harness.Soak.rounds;
  Alcotest.(check bool) "crashes were injected" true
    (r.Harness.Soak.crashes > 0);
  Alcotest.(check int) "every crash got a replacement"
    r.Harness.Soak.crashes r.Harness.Soak.restarts;
  (* gross conservation: what came out is bracketed by what went in,
     modulo maybe-enqueues (may appear) and dequeue crashes (may eat
     one value each) *)
  let out = r.Harness.Soak.consumed + r.Harness.Soak.drained in
  Alcotest.(check bool) "output bounded above" true
    (out <= r.Harness.Soak.enqueued + r.Harness.Soak.maybe_enqueued);
  Alcotest.(check bool) "output bounded below" true
    (out >= r.Harness.Soak.enqueued - r.Harness.Soak.deq_crashes);
  check_deq_tail r

let test_soak_scq_smoke () =
  let r =
    Soak_scq.run ~capacity:32 ~rounds:2 ~ops:200 ~deadline_s:45.
      ~crash_mode:Harness.Soak.Between_ops ~seed:smoke_seed ()
  in
  if not (Harness.Soak.passed r) then
    Alcotest.failf "scq soak failed: %a" Harness.Soak.pp_report r;
  Alcotest.(check bool) "crashes were injected" true
    (r.Harness.Soak.crashes > 0);
  check_deq_tail r

let test_soak_report_json () =
  let r = Soak_ms.run ~rounds:1 ~ops:100 ~deadline_s:45. ~seed:smoke_seed () in
  let s = Obs.Json.to_string (Harness.Soak.report_json r) in
  match Obs.Json.of_string_opt s with
  | None -> Alcotest.fail "report_json emitted invalid JSON"
  | Some j ->
      let has k = Obs.Json.member k j <> None in
      Alcotest.(check bool) "core fields present" true
        (has "queue" && has "crashes" && has "outcomes" && has "passed")

let test_self_test_catches_planted_bug () =
  Alcotest.(check bool) "audit catches the planted bug" true
    (Harness.Soak.self_test ~seed:smoke_seed)

(* ------------------------------------------------------------------ *)
(* Simulator mirror *)

let test_sim_battery_ms () =
  let ms =
    List.find
      (fun (e : Harness.Registry.entry) -> e.key = "ms")
      Harness.Registry.all
  in
  match Harness.Soak.sim_battery ~queues:[ ms ] ~per:200 () with
  | [ r ] ->
      Alcotest.(check string) "algorithm" "ms-nonblocking"
        r.Harness.Soak.algorithm;
      Alcotest.(check string) "non-blocking completes despite the crash"
        "completed" r.Harness.Soak.sim_outcome;
      Alcotest.(check bool) "conserved" true r.Harness.Soak.conservation_ok;
      Alcotest.(check int) "nothing lost" 0 r.Harness.Soak.lost;
      Alcotest.(check bool) "at most one phantom" true
        (r.Harness.Soak.phantom <= 1);
      Alcotest.(check bool) "sim_ok" true (Harness.Soak.sim_ok r)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

(* The sweep has teeth: a crash point inside a lock's critical section
   strands the survivors, so each blocking queue blocks at one point or
   more, and conserves wherever it completes.  [msq_check soak --seed N]
   passes its seed to the battery, so the verdict must not hang on the
   default one: a second seed is checked too. *)
let test_sim_battery_blocking_queues_block () =
  let queues =
    List.filter
      (fun (e : Harness.Registry.entry) ->
        not (List.mem e.key Harness.Registry.nonblocking))
      Harness.Registry.all
  in
  Alcotest.(check int) "three blocking queues" 3 (List.length queues);
  List.iter
    (fun seed ->
      List.iter
        (fun (r : Harness.Soak.sim_result) ->
          let name what =
            Printf.sprintf "%s at 0x%Lx: %s" r.algorithm seed what
          in
          Alcotest.(check int) (name "16 points swept") 16 r.points;
          Alcotest.(check string) (name "outcome") "blocked" r.sim_outcome;
          Alcotest.(check bool) (name "blocked at some point") true
            (r.blocked_points > 0);
          Alcotest.(check bool) (name "conserved where completed") true
            r.conservation_ok;
          Alcotest.(check bool) (name "sim_ok") true (Harness.Soak.sim_ok r))
        (Harness.Soak.sim_battery ~queues ~seed ()))
    [ 0x534F414BL; 0x54455354L ]

(* ------------------------------------------------------------------ *)
(* Liveness per-case deadline *)

let test_liveness_deadline () =
  (* an already-expired deadline: the sweep must stop before trial 0
     with a structured verdict, not hang or claim completion *)
  let r =
    Harness.Liveness.run
      (Harness.Registry.find "ms")
      ~procs:2 ~pairs:50 ~trials:4 ~deadline_s:(-1.0) ()
  in
  match r.Harness.Liveness.verdict with
  | Harness.Liveness.Timed_out { trials_done } ->
      Alcotest.(check int) "no trial fit in an expired deadline" 0 trials_done;
      Alcotest.(check string) "verdict string" "timed_out after 0 trials"
        (Harness.Liveness.verdict_string r.Harness.Liveness.verdict)
  | Harness.Liveness.Completed ->
      Alcotest.fail "an expired deadline cannot complete the sweep"

let suites =
  [
    ( "soak",
      [
        Alcotest.test_case "engine crash+restart" `Quick
          test_engine_crash_restart;
        Alcotest.test_case "lone-victim revival" `Quick
          test_engine_restart_lone_victim;
        Alcotest.test_case "inject requires ~restart" `Quick
          test_inject_requires_restart;
        Alcotest.test_case "ms soak smoke" `Slow test_soak_ms_smoke;
        Alcotest.test_case "scq bounded soak smoke" `Slow test_soak_scq_smoke;
        Alcotest.test_case "report json round-trip" `Slow
          test_soak_report_json;
        Alcotest.test_case "self-test catches planted bug" `Slow
          test_self_test_catches_planted_bug;
        Alcotest.test_case "sim battery: ms conserves" `Quick
          test_sim_battery_ms;
        Alcotest.test_case "liveness deadline" `Quick test_liveness_deadline;
        Alcotest.test_case "sim battery: blocking queues block" `Quick
          test_sim_battery_blocking_queues_block;
      ] );
  ]
