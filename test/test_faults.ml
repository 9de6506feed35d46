(* Fault injection: fail-stop crashes, the deadlock watchdog, the
   stall/storm adversaries, and the native chaos layer.

   The headline property is the paper's dichotomy made executable
   (Section 1): killing a process at ANY point leaves a non-blocking
   queue's survivors unaffected, while a lock-based queue blocks the
   moment the victim dies inside a critical section. *)

(* ------------------------------------------------------------------ *)
(* Engine-level crash and watchdog semantics *)

let test_crash_stops_at_point () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let spin_ops n () =
    for _ = 1 to n do
      Sim.Api.work 1
    done
  in
  let victim = Sim.Engine.spawn eng (spin_ops 20) in
  let other = Sim.Engine.spawn eng (spin_ops 20) in
  Sim.Engine.plan_crash eng victim ~after_ops:5;
  (match Sim.Engine.run eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "survivor should finish");
  Alcotest.(check int) "victim died after exactly its 5th op" 5
    (Sim.Engine.ops_executed eng victim);
  Alcotest.(check int) "survivor ran to completion" 20
    (Sim.Engine.ops_executed eng other)

let test_crash_before_first_op () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let pid =
    Sim.Engine.spawn eng (fun () -> Sim.Api.work 1)
  in
  Sim.Engine.plan_crash eng pid ~after_ops:0;
  (match Sim.Engine.run eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "empty system should complete");
  Alcotest.(check int) "victim never executed an op" 0
    (Sim.Engine.ops_executed eng pid)

let test_plan_crash_rejects_negative () =
  let eng = Sim.Engine.create Sim.Config.default in
  let pid = Sim.Engine.spawn eng (fun () -> ()) in
  Alcotest.check_raises "negative crash point"
    (Invalid_argument "Engine.plan_crash: negative operation index") (fun () ->
      Sim.Engine.plan_crash eng pid ~after_ops:(-1))

let test_watchdog_fires_on_spin () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let _trace = Sim.Engine.enable_trace ~limit:256 eng in
  (* two processes spinning forever without completing anything *)
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           let rec spin () =
             Sim.Api.work 1;
             spin ()
           in
           spin ()))
  done;
  (match Sim.Engine.run ~max_steps:100_000_000 ~watchdog:10_000 eng with
  | Sim.Engine.Blocked -> ()
  | Sim.Engine.Completed -> Alcotest.fail "spin loop cannot complete"
  | Sim.Engine.Step_limit ->
      Alcotest.fail "watchdog should fire long before the step budget");
  match Sim.Engine.blocked eng with
  | None -> Alcotest.fail "Blocked outcome must carry blocked_info"
  | Some info ->
      Alcotest.(check int) "reported window" 10_000 info.Sim.Engine.watchdog_cycles;
      Alcotest.(check bool) "window genuinely elapsed" true
        (info.Sim.Engine.at_cycle - info.Sim.Engine.progress_cycle > 10_000);
      Alcotest.(check int) "both spinners reported live" 2
        (List.length info.Sim.Engine.live);
      Alcotest.(check bool) "trace tail captured for each process" true
        (List.for_all
           (fun (_, events) -> events <> [])
           info.Sim.Engine.tails)

let test_watchdog_spares_progress () =
  (* same spin intensity, but marking progress: the watchdog must not
     fire, and the step budget ends the run instead *)
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let rec spin () =
           Sim.Api.work 1;
           Sim.Api.progress ();
           spin ()
         in
         spin ()));
  (match Sim.Engine.run ~max_steps:200_000 ~watchdog:10_000 eng with
  | Sim.Engine.Step_limit -> ()
  | Sim.Engine.Blocked -> Alcotest.fail "watchdog false positive"
  | Sim.Engine.Completed -> Alcotest.fail "spin loop cannot complete");
  Alcotest.(check bool) "no blocked_info recorded" true
    (Sim.Engine.blocked eng = None)

let test_watchdog_spares_long_sleep () =
  (* a stall far longer than the watchdog window is scheduling, not
     deadlock: the sleeping process must not trip the watchdog *)
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let pid =
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 10 do
          Sim.Api.work 1
        done)
  in
  Sim.Engine.plan_stall eng pid ~at:10 ~duration:5_000_000;
  match Sim.Engine.run ~max_steps:100_000_000 ~watchdog:100_000 eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "stalled-but-live run must complete"

(* ------------------------------------------------------------------ *)
(* Sim.Faults *)

let test_faults_random_deterministic () =
  let draw seed =
    let rng = Sim.Rng.create seed in
    List.init 20 (fun _ -> Sim.Faults.random rng ~max_ops:500 ~horizon:10_000)
  in
  Alcotest.(check bool) "same seed, same faults" true
    (draw 42L = draw 42L);
  Alcotest.(check bool) "different seed, different faults" true
    (draw 42L <> draw 43L)

let test_crash_points_cover_range () =
  let points = Sim.Faults.crash_points ~trials:10 ~total_ops:1_000 in
  Alcotest.(check int) "ten points" 10 (List.length points);
  List.iter
    (fun p ->
      if p < 1 || p > 1_000 then
        Alcotest.failf "crash point %d outside [1, 1000]" p)
    points;
  Alcotest.(check bool) "monotonically increasing" true
    (List.sort compare points = points)

let test_storm_and_stall_complete () =
  (* repeated-preemption storms against the MS queue: still completes *)
  let eng = Sim.Engine.create (Sim.Config.with_processors 4) in
  let q = Squeues.Ms_queue.init eng in
  let pids =
    List.init 4 (fun i ->
        Sim.Engine.spawn eng (fun () ->
            for k = 1 to 50 do
              Squeues.Ms_queue.enqueue q ((i * 1000) + k);
              ignore (Squeues.Ms_queue.dequeue q);
              Sim.Api.progress ()
            done))
  in
  Sim.Faults.inject eng (List.nth pids 0)
    (Sim.Faults.Storm { first_at = 500; every = 2_000; duration = 900; count = 40 });
  Sim.Faults.inject eng (List.nth pids 1)
    (Sim.Faults.Stall { at = 1_000; duration = 100_000 });
  match Sim.Engine.run ~max_steps:100_000_000 ~watchdog:5_000_000 eng with
  | Sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "MS queue under storms must complete"

(* ------------------------------------------------------------------ *)
(* The crash sweep and the paper's dichotomy *)

let test_crash_sweep_deterministic () =
  let sweep () =
    Harness.Crash_experiment.run
      (module Squeues.Two_lock_queue)
      ~procs:4 ~pairs:1_000 ~trials:12 ~seed:7L ()
  in
  let a = sweep () and b = sweep () in
  Alcotest.(check bool) "identical results under a fixed seed" true (a = b);
  Alcotest.(check int) "trials recorded" 12 (List.length a.Harness.Crash_experiment.points)

let test_crash_dichotomy () =
  (* the non-blocking algorithms survive EVERY crash point; the
     blocking algorithms are each caught at least once *)
  let verdicts =
    Harness.Crash_experiment.dichotomy (Harness.Crash_experiment.sweep ())
  in
  Alcotest.(check int) "six classified algorithms" 6 (List.length verdicts);
  List.iter
    (fun (v : Harness.Verdict.t) ->
      if not v.ok then Alcotest.failf "%s: %s" v.name v.detail)
    verdicts

let test_blocked_replay_traced () =
  let r =
    Harness.Crash_experiment.run
      (module Squeues.Single_lock_queue)
      ~procs:4 ~pairs:1_000 ~trials:24 ()
  in
  match
    List.find_opt
      (fun (t : Harness.Crash_experiment.trial) ->
        t.outcome <> Sim.Engine.Completed)
      r.Harness.Crash_experiment.points
  with
  | None -> Alcotest.fail "single lock should block somewhere in 24 trials"
  | Some t ->
      let outcome, trace, info =
        Harness.Crash_experiment.replay_traced
          (module Squeues.Single_lock_queue)
          ~procs:4 ~pairs:1_000 ~crash_after:t.crash_after ()
      in
      Alcotest.(check bool) "replay reproduces the verdict" true
        (outcome = t.Harness.Crash_experiment.outcome);
      Alcotest.(check bool) "blocked info present" true (info <> None);
      let chrome = Sim.Trace.to_chrome_string ~label:"blocked" trace in
      Alcotest.(check bool) "chrome trace non-trivial" true
        (String.length chrome > 100)

let test_liveness_registry_sweep () =
  (* registry-driven: one call covers a chosen slice, blocked verdicts
     and all *)
  let results =
    Harness.Liveness.run_all
      ~queues:
        (List.filter
           (fun (e : Harness.Registry.entry) ->
             List.mem e.Harness.Registry.key [ "ms"; "single-lock" ])
           Harness.Registry.all)
      ~procs:4 ~pairs:1_000 ~trials:12 ~stall_duration:8_000_000 ()
  in
  Alcotest.(check int) "two results" 2 (List.length results);
  let find name =
    List.find
      (fun r -> r.Harness.Liveness.algorithm = name)
      results
  in
  Alcotest.(check bool) "ms unaffected by stalls" true
    (Harness.Liveness.non_blocking (find "ms-nonblocking"));
  Alcotest.(check bool) "single lock propagates the stall" false
    (Harness.Liveness.non_blocking (find "single-lock"))

(* ------------------------------------------------------------------ *)
(* Native chaos layer *)

let test_site_hook_labels () =
  let seen = ref [] in
  Locks.Probe.subscribe Chaos (fun ev l ->
      let label = Locks.Probe.name l in
      if ev = Site && not (List.mem label !seen) then seen := label :: !seen);
  let q = Core.Ms_queue.create () in
  for i = 1 to 10 do
    Core.Ms_queue.enqueue q i
  done;
  for _ = 1 to 10 do
    ignore (Core.Ms_queue.dequeue q)
  done;
  Locks.Probe.unsubscribe Chaos;
  let count_after = List.length !seen in
  Core.Ms_queue.enqueue q 99;
  List.iter
    (fun l ->
      Alcotest.(check bool) ("site " ^ l ^ " marked") true (List.mem l !seen))
    [ "msq.enq.link"; "msq.enq.swing"; "msq.deq.head" ];
  Alcotest.(check int) "cleared hook stops collecting" count_after
    (List.length !seen)

let test_chaos_wrapper_fifo () =
  let module Q = Obs.Chaos.Make (Core.Ms_queue) in
  Alcotest.(check string) "wrapped name" "ms-nonblocking+chaos" Q.name;
  (* disabled: transparent, no delays *)
  Obs.Chaos.reset_hits ();
  let q = Q.create () in
  for i = 1 to 100 do
    Q.enqueue q i
  done;
  for i = 1 to 100 do
    Alcotest.(check (option int)) "fifo (chaos off)" (Some i) (Q.dequeue q)
  done;
  Alcotest.(check int) "no delays while disabled" 0 (Obs.Chaos.hits ());
  (* enabled with a pinned seed and certain injection: still FIFO, and
     the delays demonstrably happen *)
  Obs.Chaos.configure ~seed:9L ~one_in:1 ~max_delay:4 ();
  Obs.Chaos.with_enabled (fun () ->
      for i = 1 to 50 do
        Q.enqueue q i
      done;
      for i = 1 to 50 do
        Alcotest.(check (option int)) "fifo (chaos on)" (Some i) (Q.dequeue q)
      done);
  Alcotest.(check bool) "delays injected" true (Obs.Chaos.hits () > 0);
  Alcotest.(check bool) "chaos off again" true (not (Obs.Chaos.enabled ()));
  Obs.Chaos.configure ~seed:Obs.Chaos.default.Obs.Chaos.seed
    ~one_in:Obs.Chaos.default.Obs.Chaos.one_in
    ~max_delay:Obs.Chaos.default.Obs.Chaos.max_delay ()

let test_chaos_batch_wrapper () =
  let module Q = Obs.Chaos.Make_batch (Core.Segmented_queue) in
  let q = Q.create () in
  Obs.Chaos.with_enabled ~seed:11L (fun () ->
      Q.enqueue_batch q [ 1; 2; 3; 4; 5 ];
      let rec drain acc =
        match Q.dequeue_batch q ~max:3 with
        | [] -> List.rev acc
        | l -> drain (List.rev_append l acc)
      in
      Alcotest.(check (list int)) "batch round-trip under chaos" [ 1; 2; 3; 4; 5 ]
        (drain []))

let test_configure_rejects_nonsense () =
  Alcotest.check_raises "one_in 0"
    (Invalid_argument "Chaos.configure: one_in 0 < 1") (fun () ->
      Obs.Chaos.configure ~one_in:0 ());
  Alcotest.check_raises "max_delay 0"
    (Invalid_argument "Chaos.configure: max_delay 0 < 1") (fun () ->
      Obs.Chaos.configure ~max_delay:0 ())

(* An enabled site that decides not to delay is a draw from the
   domain's unboxed stream row: no allocation. *)
let test_chaos_draw_allocates_nothing () =
  Obs.Chaos.configure ~one_in:1_000_000 ();
  Obs.Chaos.with_enabled (fun () ->
      Obs.Chaos.maybe_delay ();
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Obs.Chaos.maybe_delay ()
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_call >= 0.01 then
        Alcotest.failf "a chaos site allocates %.2f minor words" per_call);
  Obs.Chaos.configure ~one_in:Obs.Chaos.default.one_in ()

(* ------------------------------------------------------------------ *)
(* Hazard-pointer robustness: a stalled domain holding a hazard pointer
   must BOUND reclamation, not leak it (Michael 2004, Section 4) *)

let test_hp_bounded_under_stalled_reader () =
  let q = Core.Ms_queue_hp.create () in
  for i = 1 to 8 do
    Core.Ms_queue_hp.enqueue q i
  done;
  let victim_id = Atomic.make (-1) in
  let parked = Atomic.make false in
  let release = Atomic.make false in
  (* park the victim inside dequeue, hazard pointers published on the
     live head — exactly the adversary a stalled/preempted domain is *)
  let protected = Locks.Probe.label "msq-hp.deq.protected" in
  Locks.Probe.subscribe Chaos (fun ev label ->
      if
        ev = Site
        && label = protected
        && (Domain.self () :> int) = Atomic.get victim_id
        && not (Atomic.get parked)
      then begin
        Atomic.set parked true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done
      end);
  let victim =
    Domain.spawn (fun () ->
        Atomic.set victim_id (Domain.self () :> int);
        Core.Ms_queue_hp.dequeue q)
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  (* the victim sleeps holding its hazards; retire 2,000 nodes at it.
     Scans (threshold 64) reclaim everything except the <= 2 protected
     nodes, so the retired backlog must stay bounded *)
  let max_pending = ref 0 in
  for k = 1 to 2_000 do
    Core.Ms_queue_hp.enqueue q (100 + k);
    ignore (Core.Ms_queue_hp.dequeue q);
    max_pending := max !max_pending (Core.Ms_queue_hp.pending_reclamation q)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "retired backlog bounded while victim sleeps (max %d)"
       !max_pending)
    true
    (!max_pending <= 80);
  Atomic.set release true;
  ignore (Domain.join victim);
  Locks.Probe.unsubscribe Chaos;
  (* hazards released: the next scans drain the backlog completely *)
  let min_pending = ref max_int in
  for k = 1 to 200 do
    Core.Ms_queue_hp.enqueue q (10_000 + k);
    ignore (Core.Ms_queue_hp.dequeue q);
    min_pending := min !min_pending (Core.Ms_queue_hp.pending_reclamation q)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "backlog drains after release (min %d)" !min_pending)
    true
    (!min_pending <= 4)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "faults.engine",
      [
        Alcotest.test_case "crash stops at its op index" `Quick
          test_crash_stops_at_point;
        Alcotest.test_case "crash before the first op" `Quick
          test_crash_before_first_op;
        Alcotest.test_case "plan_crash rejects negatives" `Quick
          test_plan_crash_rejects_negative;
        Alcotest.test_case "watchdog fires on global spin" `Quick
          test_watchdog_fires_on_spin;
        Alcotest.test_case "watchdog spares progress" `Quick
          test_watchdog_spares_progress;
        Alcotest.test_case "watchdog spares long sleeps" `Quick
          test_watchdog_spares_long_sleep;
      ] );
    ( "faults.adversaries",
      [
        Alcotest.test_case "random faults are seed-deterministic" `Quick
          test_faults_random_deterministic;
        Alcotest.test_case "crash points cover the run" `Quick
          test_crash_points_cover_range;
        Alcotest.test_case "storms and stalls vs the MS queue" `Quick
          test_storm_and_stall_complete;
      ] );
    ( "faults.crash_sweep",
      [
        Alcotest.test_case "sweep is seed-deterministic" `Quick
          test_crash_sweep_deterministic;
        Alcotest.test_case "the paper's dichotomy under crashes" `Slow
          test_crash_dichotomy;
        Alcotest.test_case "blocked trials replay with a trace" `Quick
          test_blocked_replay_traced;
        Alcotest.test_case "registry-driven liveness sweep" `Quick
          test_liveness_registry_sweep;
      ] );
    ( "faults.chaos",
      [
        Alcotest.test_case "injection sites carry their labels" `Quick
          test_site_hook_labels;
        Alcotest.test_case "chaos wrapper keeps FIFO" `Quick
          test_chaos_wrapper_fifo;
        Alcotest.test_case "chaos batch wrapper round-trips" `Quick
          test_chaos_batch_wrapper;
        Alcotest.test_case "configure validates" `Quick
          test_configure_rejects_nonsense;
        Alcotest.test_case "chaos draws allocate nothing" `Quick
          test_chaos_draw_allocates_nothing;
        Alcotest.test_case "hazard pointers bound reclamation under a \
                            stalled reader" `Slow
          test_hp_bounded_under_stalled_reader;
      ] );
  ]
