(* CLI for the verification tools: linearizability checking of recorded
   histories, and preemption-bounded schedule exploration (the
   mechanized version of the paper's race hunting — including the races
   in Stone's algorithm that Section 1 reports). *)

open Cmdliner

let algo_arg =
  Arg.(value & opt string "ms"
       & info [ "a"; "algo" ]
           ~doc:"Algorithm key: single-lock, mc, valois, two-lock, plj, ms, stone, stone-ring, hb, scq.")

let seed_arg =
  Arg.(value & opt (some int64) None
       & info [ "seed" ]
           ~doc:"Seed for every randomized choice; a fixed seed replays the run.")

(* A fresh simulated instance where each of [procs] processes performs
   [ops] enqueue+dequeue pairs, with every operation recorded. *)
let recorded_spec (module Q : Squeues.Intf.S) ~procs ~ops =
  let make () =
    let eng = Sim.Engine.create (Sim.Config.with_processors procs) in
    let q = Q.init eng in
    let recorder = Lincheck.History.create_recorder () in
    let bodies =
      Array.init procs (fun i () ->
          for k = 1 to ops do
            let v = (i * 1000) + k in
            Lincheck.History.record recorder ~proc:i (fun () ->
                Q.enqueue q v;
                Lincheck.History.Enq v);
            Lincheck.History.record recorder ~proc:i (fun () ->
                Lincheck.History.Deq (Q.dequeue q))
          done)
    in
    (eng, recorder, bodies)
  in
  let check_final _eng recorder =
    match Lincheck.Checker.check (Lincheck.History.history recorder) with
    | Lincheck.Checker.Linearizable -> Ok ()
    | Lincheck.Checker.Not_linearizable -> Error "non-linearizable history"
    | Lincheck.Checker.Inconclusive -> Error "linearizability check inconclusive"
  in
  { Mcheck.Explore.make; check_final; check_step = None }

let explore_cmd =
  let run algo procs ops preemptions =
    let q = Harness.Registry.find algo in
    let outcome =
      Mcheck.Explore.explore ~max_preemptions:preemptions
        (recorded_spec q ~procs ~ops)
    in
    Format.printf
      "%s: %d schedules explored, %d diverged, %d linearizability failures@." algo
      outcome.Mcheck.Explore.runs outcome.Mcheck.Explore.diverged
      (List.length outcome.Mcheck.Explore.failures);
    List.iter
      (fun f ->
        Format.printf "  %s under schedule %a@." f.Mcheck.Explore.message
          Mcheck.Explore.pp_schedule f.Mcheck.Explore.schedule)
      outcome.Mcheck.Explore.failures;
    if outcome.Mcheck.Explore.failures = [] then 0 else 1
  in
  let procs = Arg.(value & opt int 2 & info [ "p"; "procs" ] ~doc:"Processes.") in
  let ops = Arg.(value & opt int 1 & info [ "ops" ] ~doc:"Pairs per process.") in
  let preemptions =
    Arg.(value & opt int 2 & info [ "preemptions" ] ~doc:"Preemption budget.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore every schedule up to a preemption budget, checking each \
          complete history for linearizability.  Exit code 1 on any failure \
          (expected for stone).")
    Term.(const run $ algo_arg $ procs $ ops $ preemptions)

let lin_cmd =
  let run algo procs ops rounds seed =
    let base = Option.value seed ~default:0L in
    let (module Q : Squeues.Intf.S) = Harness.Registry.find algo in
    let failures = ref 0 in
    for round = 1 to rounds do
      let eng =
        Sim.Engine.create
          {
            (Sim.Config.with_processors procs) with
            seed = Int64.add base (Int64.of_int (round * 7919));
            quantum = 5_000;
          }
      in
      let q = Q.init eng in
      let recorder = Lincheck.History.create_recorder () in
      for i = 0 to procs - 1 do
        ignore
          (Sim.Engine.spawn eng (fun () ->
               for k = 1 to ops do
                 let v = (i * 1000) + k in
                 Lincheck.History.record recorder ~proc:i (fun () ->
                     Q.enqueue q v;
                     Lincheck.History.Enq v);
                 Sim.Api.work ((i * 37) + k);
                 Lincheck.History.record recorder ~proc:i (fun () ->
                     Lincheck.History.Deq (Q.dequeue q));
                 Sim.Api.work ((i * 13) + k)
               done))
      done;
      (match Sim.Engine.run ~max_steps:50_000_000 eng with
      | Sim.Engine.Completed -> ()
      | Sim.Engine.Step_limit | Sim.Engine.Blocked -> failwith "step limit");
      match Lincheck.Checker.check (Lincheck.History.history recorder) with
      | Lincheck.Checker.Linearizable -> ()
      | Lincheck.Checker.Not_linearizable ->
          incr failures;
          Format.printf "round %d: NON-LINEARIZABLE@." round
      | Lincheck.Checker.Inconclusive ->
          Format.printf "round %d: inconclusive@." round
    done;
    Format.printf "%s: %d rounds, %d linearizability failures@." algo rounds !failures;
    if !failures = 0 then 0 else 1
  in
  let procs = Arg.(value & opt int 4 & info [ "p"; "procs" ] ~doc:"Processes.") in
  let ops = Arg.(value & opt int 5 & info [ "ops" ] ~doc:"Pairs per process.") in
  let rounds = Arg.(value & opt int 50 & info [ "rounds" ] ~doc:"Random executions.") in
  Cmd.v
    (Cmd.info "lin"
       ~doc:
         "Record concurrent histories over many seeded executions and check \
          each against the sequential FIFO specification.")
    Term.(const run $ algo_arg $ procs $ ops $ rounds $ seed_arg)

(* Linearizability of the NATIVE queues (real domains, not the
   simulator): record every operation of a small multi-domain workload
   through the stamp recorder and check the history against the
   sequential FIFO spec.  Every queue runs through its BOUNDED view, so
   each enqueue records as History.Try_enq with its verdict.  A queue
   with a finite capacity runs two enqueues per dequeue, so the net fill
   drives it into its capacity and full verdicts actually occur, and is
   checked against the bounded sequential spec (Checker.check ~capacity
   — full verdicts at pending-reservation strength, empty verdicts
   strict).  Batch-capable queues also run batch rounds, each batch
   recorded as a multi-element event over one interval. *)
let native_lin_cmd =
  let run key domains ops rounds chaos capacity seed =
    let entry = Harness.Registry.find_native key in
    (* The fabric's registry adapter routes by domain id, so it only
       promises per-key FIFO — a whole-queue FIFO checker would flag
       legitimate cross-shard reordering.  Pin every operation to one
       key (hence one shard), where total FIFO order is the claim. *)
    let (module B0 : Core.Queue_intf.BOUNDED) =
      if key = "fabric" then
        (module Core.Queue_intf.Unbounded (Fabric.Queue_fabric.Single_key))
      else entry.queue
    in
    let (module B : Core.Queue_intf.BOUNDED) =
      if chaos then (module Obs.Chaos.Make_bounded (B0)) else (module B0)
    in
    let batch_q =
      Option.map
        (fun (module B0 : Core.Queue_intf.BATCH) ->
          if chaos then
            (module Obs.Chaos.Make_batch (B0) : Core.Queue_intf.BATCH)
          else (module B0 : Core.Queue_intf.BATCH))
        entry.batch
    in
    if chaos then begin
      (match seed with Some s -> Obs.Chaos.configure ~seed:s () | None -> ());
      Obs.Chaos.enable ()
    end;
    let failures = ref 0 in
    let fulls = ref 0 in
    let cap_used = ref max_int in
    let check ?capacity round recorder =
      match
        Lincheck.Checker.check ?capacity (Lincheck.History.history recorder)
      with
      | Lincheck.Checker.Linearizable -> ()
      | Lincheck.Checker.Not_linearizable ->
          incr failures;
          Format.printf "round %d: NON-LINEARIZABLE@." round
      | Lincheck.Checker.Inconclusive ->
          Format.printf "round %d: inconclusive@." round
    in
    for round = 1 to rounds do
      let q = B.create ~capacity () in
      cap_used := B.capacity q;
      let finite = !cap_used < max_int in
      let recorder = Lincheck.History.create_recorder () in
      let try_enq i v =
        Lincheck.History.record recorder ~proc:i (fun () ->
            let ok = B.try_enqueue q v in
            if not ok then incr fulls;
            Lincheck.History.Try_enq (v, ok))
      in
      let body i () =
        for k = 1 to ops do
          if finite then begin
            try_enq i ((i * 1000) + (2 * k) - 1);
            try_enq i ((i * 1000) + (2 * k))
          end
          else try_enq i ((i * 1000) + k);
          Lincheck.History.record recorder ~proc:i (fun () ->
              Lincheck.History.Deq (B.try_dequeue q))
        done
      in
      let ds = List.init domains (fun i -> Domain.spawn (body i)) in
      List.iter Domain.join ds;
      check ?capacity:(if finite then Some !cap_used else None) round recorder
    done;
    (match batch_q with
    | None -> ()
    | Some (module Q : Core.Queue_intf.BATCH) ->
        for round = 1 to rounds do
          let q = Q.create () in
          let recorder = Lincheck.History.create_recorder () in
          let body i () =
            for k = 1 to ops do
              let base = (i * 1000) + (k * 10) in
              let vs = List.init 3 (fun j -> base + j) in
              Lincheck.History.record_many recorder ~proc:i (fun () ->
                  Q.enqueue_batch q vs;
                  List.map (fun v -> Lincheck.History.Enq v) vs);
              Lincheck.History.record_many recorder ~proc:i (fun () ->
                  List.map
                    (fun v -> Lincheck.History.Deq (Some v))
                    (Q.dequeue_batch q ~max:3))
            done
          in
          let ds = List.init domains (fun i -> Domain.spawn (body i)) in
          List.iter Domain.join ds;
          check round recorder
        done;
        Format.printf "%s: batch rounds included (batch=3)@." key);
    if chaos then begin
      Format.printf "%s: chaos on (seed %Ld), %d delays injected@." key
        (Obs.Chaos.current ()).Obs.Chaos.seed
        (Obs.Chaos.hits ());
      Obs.Chaos.disable ()
    end;
    Format.printf "%s: %d rounds x %d domains%s, %d linearizability failures@."
      key rounds domains
      (if !cap_used < max_int then
         Printf.sprintf " at capacity %d, %d full verdicts" !cap_used !fulls
       else "")
      !failures;
    if !failures = 0 then 0 else 1
  in
  let key =
    Arg.(
      value & opt string "segmented"
      & info [ "q"; "queue" ]
          ~doc:"Native queue key (see Harness.Registry.native_keys); a \
                bounded queue (e.g. scq) is checked against the bounded \
                sequential spec at $(b,--capacity).")
  in
  let domains = Arg.(value & opt int 2 & info [ "d"; "domains" ] ~doc:"Domains.") in
  let ops = Arg.(value & opt int 4 & info [ "ops" ] ~doc:"Pairs per domain.") in
  let rounds = Arg.(value & opt int 25 & info [ "rounds" ] ~doc:"Repetitions.") in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Wrap the queue in the chaos layer (Obs.Chaos): seeded \
                   randomized delays at the algorithm's injection sites.")
  in
  let capacity =
    Arg.(value & opt int 2
         & info [ "capacity" ]
             ~doc:"Capacity for bounded queues (kept tiny so the runs \
                   actually hit full verdicts); ignored for unbounded keys.")
  in
  Cmd.v
    (Cmd.info "native-lin"
       ~doc:
         "Record concurrent histories of a NATIVE OCaml 5 queue across real \
          domains and check each against the sequential FIFO specification; \
          batch-capable queues also exercise their batch operations, and \
          bounded queues (e.g. scq) are checked against the bounded \
          sequential spec at a tiny capacity.")
    Term.(const run $ key $ domains $ ops $ rounds $ chaos $ capacity
          $ seed_arg)

(* Fail-stop crash sweep over the simulated algorithms, with the
   paper's dichotomy as the exit-code gate: the non-blocking queues
   must survive every crash point; the blocking ones must be caught at
   least once (given enough points to hit a critical section). *)
let crash_cmd =
  let expected_nonblocking = [ "ms"; "plj"; "valois" ] in
  let expected_blocking = [ "single-lock"; "two-lock"; "mc" ] in
  let run algos procs pairs trials watchdog seed trace_out =
    let keys = match algos with [] -> Harness.Registry.keys | ks -> ks in
    let results =
      List.map
        (fun key ->
          ( key,
            Harness.Crash_experiment.run (Harness.Registry.find key) ~procs
              ~pairs ~trials ~watchdog ?seed () ))
        keys
    in
    Harness.Report.crash_table Format.std_formatter (List.map snd results);
    (match trace_out with
    | None -> ()
    | Some path -> (
        let first_blocked =
          List.find_map
            (fun (key, (r : Harness.Crash_experiment.result)) ->
              List.find_map
                (fun (t : Harness.Crash_experiment.trial) ->
                  if t.outcome <> Sim.Engine.Completed then Some (key, t)
                  else None)
                r.points)
            results
        in
        match first_blocked with
        | None -> Format.printf "no blocked trial; nothing to trace@."
        | Some (key, t) ->
            let _, trace, info =
              Harness.Crash_experiment.replay_traced
                (Harness.Registry.find key) ~procs ~pairs ~watchdog ?seed
                ~crash_after:t.crash_after ()
            in
            let label =
              Printf.sprintf "%s crash after %d ops" key t.crash_after
            in
            let oc = open_out path in
            output_string oc (Sim.Trace.to_chrome_string ~label trace);
            close_out oc;
            Format.printf "wrote Chrome trace of %s to %s@." label path;
            Option.iter
              (fun (i : Sim.Engine.blocked_info) ->
                Format.printf
                  "blocked at cycle %d (last progress %d); %d live processes@."
                  i.Sim.Engine.at_cycle i.Sim.Engine.progress_cycle
                  (List.length i.Sim.Engine.live))
              info));
    let failures = ref 0 in
    List.iter
      (fun (key, (r : Harness.Crash_experiment.result)) ->
        if List.mem key expected_nonblocking && r.blocked_trials > 0 then begin
          incr failures;
          Format.printf
            "FAIL %s: non-blocking algorithm blocked in %d/%d crash trials@."
            key r.blocked_trials r.trials
        end;
        (* with few points a blocking queue's critical section can be
           missed; only insist on the dichotomy given a dense sweep *)
        if List.mem key expected_blocking && trials >= 24
           && r.blocked_trials = 0
        then begin
          incr failures;
          Format.printf
            "FAIL %s: blocking algorithm survived all %d crash points@." key
            r.trials
        end)
      results;
    if !failures = 0 then begin
      Format.printf "crash sweep: dichotomy holds@.";
      0
    end
    else 1
  in
  let algos =
    Arg.(value & opt_all string []
         & info [ "a"; "algo" ]
             ~doc:"Algorithm key (repeatable); default: the whole registry.")
  in
  let procs = Arg.(value & opt int 4 & info [ "p"; "procs" ] ~doc:"Processes.") in
  let pairs = Arg.(value & opt int 2_000 & info [ "pairs" ] ~doc:"Total pairs.") in
  let trials =
    Arg.(value & opt int 48
         & info [ "trials" ] ~doc:"Crash points swept across the run.")
  in
  let watchdog =
    Arg.(value & opt int 2_000_000
         & info [ "watchdog" ] ~doc:"Watchdog window, cycles.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Replay the first blocked trial with tracing and write a \
                   Chrome trace (chrome://tracing, Perfetto) to $(docv).")
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Kill one process at crash points swept across the run, for every \
          simulated algorithm: non-blocking queues must survive all of them, \
          lock-based queues block when the victim dies in a critical \
          section.  Deterministic per seed.  Exit code 1 if the dichotomy \
          fails.")
    Term.(const run $ algos $ procs $ pairs $ trials $ watchdog $ seed_arg
          $ trace_out)

(* Fault-storm soak: chaos storms + stalled hazard-pointer readers +
   producer/consumer crash and restart over every registered native
   queue, with conservation/FIFO/length/reclamation audits and a
   wall-clock watchdog; plus the simulated crash+restart battery and a
   planted-bug self-test of the audit oracle. *)
let soak_cmd =
  let nonblocking = [ "ms"; "plj"; "valois" ] in
  let run queues rounds ops producers consumers deadline seed self_test
      json_out trace_out flight_out no_sim =
    let seed = Option.value seed ~default:0x534F414BL in
    let failures = ref 0 in
    let self_tested =
      if not self_test then None
      else if Harness.Soak.self_test ~seed then begin
        Format.printf
          "self-test: conservation audit caught the planted bug@.";
        Some true
      end
      else begin
        incr failures;
        Format.printf
          "self-test: FAIL — the planted element-dropping bug went \
           undetected@.";
        Some false
      end
    in
    (* Arm the flight-recorder latch only after the self-test, so the
       deliberately planted audit failure cannot claim it — the dump
       should capture a real failure's last moments. *)
    (match flight_out with
    | None -> ()
    | Some path -> Obs.Flight.arm_dump ~path);
    let sims =
      if no_sim then []
      else begin
        Format.printf "simulated crash + restart battery:@.";
        List.map
          (fun (e : Harness.Registry.entry) ->
            let r =
              List.hd (Harness.Soak.sim_battery ~queues:[ e ] ~seed ())
            in
            Format.printf "  %a@." Harness.Soak.pp_sim_result r;
            if not (Harness.Soak.sim_ok r) then begin
              incr failures;
              Format.printf "  FAIL %s: %s@." e.key r.sim_outcome
            end;
            (* the dichotomy, under crash+restart: a non-blocking queue
               must complete and conserve even with the crash landing
               mid-protocol *)
            if List.mem e.key nonblocking && r.sim_outcome <> "completed"
            then begin
              incr failures;
              Format.printf
                "  FAIL %s: non-blocking algorithm did not complete after \
                 crash+restart (%s)@."
                e.key r.sim_outcome
            end;
            r)
          (List.filter
             (fun (e : Harness.Registry.entry) ->
               queues = [] || List.mem e.key queues)
             Harness.Registry.all)
      end
    in
    let keys = match queues with [] -> None | ks -> Some ks in
    Format.printf "native fault-storm soak (seed 0x%Lx):@." seed;
    let reports =
      Harness.Soak.run_all ?keys ~rounds ~producers ~consumers ~ops
        ~deadline_s:deadline ~seed ()
    in
    List.iter
      (fun r ->
        Format.printf "  %a@." Harness.Soak.pp_report r;
        if not (Harness.Soak.passed r) then incr failures)
      reports;
    (match flight_out with
    | None -> ()
    | Some _ ->
        (match Obs.Flight.last_dump () with
        | Some (path, reason) ->
            Format.printf "flight recorder dumped to %s (%s)@." path reason
        | None ->
            Format.printf "flight recorder: no anomaly, nothing dumped@.");
        Obs.Flight.disarm_dump ());
    (match trace_out with
    | None -> ()
    | Some path -> (
        match
          List.find_opt (fun r -> not (Harness.Soak.passed r)) reports
        with
        | None -> Format.printf "no failing soak; nothing to trace@."
        | Some r ->
            let oc = open_out path in
            Printf.fprintf oc "%s\n"
              (Obs.Json.to_string_pretty (Harness.Soak.report_json r));
            List.iter
              (fun f -> Printf.fprintf oc "audit failure: %s\n" f)
              r.Harness.Soak.audit_failures;
            close_out oc;
            Format.printf "wrote first failing report to %s@." path));
    (match json_out with
    | None -> ()
    | Some path ->
        let doc =
          Obs.Json.Assoc
            [
              ("seed", Obs.Json.String (Printf.sprintf "0x%Lx" seed));
              ( "self_test",
                match self_tested with
                | None -> Obs.Json.Null
                | Some b -> Obs.Json.Bool b );
              ( "native",
                Obs.Json.List (List.map Harness.Soak.report_json reports) );
              ( "sim",
                Obs.Json.List (List.map Harness.Soak.sim_result_json sims) );
            ]
        in
        Obs.Json.write_file path doc;
        Format.printf "wrote soak report to %s@." path);
    if !failures = 0 then begin
      Format.printf "soak: every audit held@.";
      0
    end
    else begin
      Format.printf "soak: %d failure(s)@." !failures;
      1
    end
  in
  let queues =
    Arg.(value & opt_all string []
         & info [ "q"; "queue" ]
             ~doc:"Queue key (repeatable); default: every registered native \
                   queue, and the whole simulated registry.")
  in
  let rounds =
    Arg.(value & opt int 4
         & info [ "rounds" ]
             ~doc:"Soak rounds per queue (calm/storm chaos alternates).")
  in
  let ops =
    Arg.(value & opt int 600
         & info [ "ops" ] ~doc:"Enqueues per producer per round.")
  in
  let producers =
    Arg.(value & opt int 2 & info [ "producers" ] ~doc:"Producer domains.")
  in
  let consumers =
    Arg.(value & opt int 2 & info [ "consumers" ] ~doc:"Consumer domains.")
  in
  let deadline =
    Arg.(value & opt float 60.
         & info [ "deadline-s" ]
             ~doc:"Wall-clock watchdog per queue, seconds; on expiry the \
                   run stops with a structured verdict and a non-zero exit.")
  in
  let self_test =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"First soak a deliberately broken queue (drops every 97th \
                   enqueue) and fail unless the conservation audit catches \
                   it.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the full soak report (native + simulated) to $(docv).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the first failing queue's report and audit failures \
                   to $(docv).")
  in
  let flight_out =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Arm the flight-recorder anomaly latch: on the first audit \
                   failure or watchdog expiry the per-domain event rings are \
                   dumped as Chrome-trace JSON to $(docv) at the moment of \
                   failure (a breaker trip dumps too, but any real failure \
                   overwrites it).  Armed after --self-test, so the planted \
                   bug never claims the latch.")
  in
  let no_sim =
    Arg.(value & flag
         & info [ "no-sim" ]
             ~doc:"Skip the simulated crash+restart battery.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Fault-storm soak: every native queue under chaos delay storms, \
          stalled hazard-pointer readers and worker crash+restart \
          (replacement domains re-join mid-run), with conservation, FIFO, \
          length-bound and reclamation-lag audits; plus the simulated \
          crash+restart battery.  Deterministic decisions per --seed.  Exit \
          code 1 on any audit failure or watchdog expiry.")
    Term.(const run $ queues $ rounds $ ops $ producers $ consumers $ deadline
          $ seed_arg $ self_test $ json_out $ trace_out $ flight_out
          $ no_sim)

(* Chaos stress for the NATIVE queues: seeded randomized delays at the
   algorithms' injection sites while real domains hammer the queue;
   checks element conservation and per-producer FIFO order. *)
let chaos_cmd =
  let run key domains ops rounds seed one_in max_delay =
    let entries =
      List.filter
        (fun (e : Harness.Registry.native_entry) ->
          Option.is_some e.unbounded && (key = "all" || e.key = key))
        Harness.Registry.native
    in
    if entries = [] then
      invalid_arg (Printf.sprintf "no unbounded native queue %S" key);
    Obs.Chaos.configure ?seed ~one_in ~max_delay ();
    let failures = ref 0 in
    let stamp p k = (p * 1_000_000) + k in
    let check_round key (module Q : Core.Queue_intf.S) =
      let q = Q.create () in
      let dequeued = Array.make domains [] in
      let body i () =
        let out = ref [] in
        for k = 1 to ops do
          Q.enqueue q (stamp i k);
          match Q.dequeue q with
          | Some v -> out := v :: !out
          | None -> ()
        done;
        dequeued.(i) <- List.rev !out
      in
      let ds = List.init domains (fun i -> Domain.spawn (body i)) in
      List.iter Domain.join ds;
      let leftover = ref [] in
      let rec drain () =
        match Q.dequeue q with
        | Some v ->
            leftover := v :: !leftover;
            drain ()
        | None -> ()
      in
      drain ();
      (* conservation: every value enqueued comes out exactly once *)
      let got =
        List.sort compare
          (List.concat (!leftover :: Array.to_list dequeued))
      in
      let expected =
        List.sort compare
          (List.concat
             (List.init domains (fun i -> List.init ops (fun k -> stamp i (k + 1)))))
      in
      if got <> expected then begin
        incr failures;
        Format.printf "%s: conservation violated (%d values out, %d in)@." key
          (List.length got) (List.length expected)
      end;
      (* per-producer FIFO: any single consumer sees each producer's
         values in increasing order *)
      Array.iter
        (fun l ->
          let last = Array.make domains min_int in
          List.iter
            (fun v ->
              let p = v / 1_000_000 in
              if v <= last.(p) then begin
                incr failures;
                Format.printf "%s: FIFO violation (%d after %d)@." key v
                  last.(p)
              end;
              last.(p) <- v)
            l)
        dequeued
    in
    Obs.Chaos.reset_hits ();
    Obs.Chaos.with_enabled (fun () ->
        List.iter
          (fun (e : Harness.Registry.native_entry) ->
            let module Q = Obs.Chaos.Make ((val Option.get e.unbounded)) in
            for _ = 1 to rounds do
              check_round e.key (module Q : Core.Queue_intf.S)
            done)
          entries);
    Format.printf
      "chaos: %d queue(s) x %d rounds x %d domains x %d pairs, seed %Ld, %d \
       delays injected, %d violations@."
      (List.length entries) rounds domains ops
      (Obs.Chaos.current ()).Obs.Chaos.seed
      (Obs.Chaos.hits ()) !failures;
    if Obs.Chaos.hits () = 0 then begin
      Format.printf "FAIL: chaos injected no delays — sites not wired?@.";
      incr failures
    end;
    if !failures = 0 then 0 else 1
  in
  let key =
    Arg.(value & opt string "all"
         & info [ "q"; "queue" ]
             ~doc:"Unbounded native queue key, or $(b,all) for every \
                   registered unbounded queue.")
  in
  let domains = Arg.(value & opt int 4 & info [ "d"; "domains" ] ~doc:"Domains.") in
  let ops = Arg.(value & opt int 2_000 & info [ "ops" ] ~doc:"Pairs per domain.") in
  let rounds = Arg.(value & opt int 4 & info [ "rounds" ] ~doc:"Repetitions.") in
  let one_in =
    Arg.(value & opt int 4
         & info [ "one-in" ] ~doc:"Perturb a site with probability 1/N.")
  in
  let max_delay =
    Arg.(value & opt int 96
         & info [ "max-delay" ] ~doc:"Short-burst bound, cpu_relax iterations.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Hammer the native queues from real domains with seeded randomized \
          delays injected at each algorithm's marked CAS/FAA windows and \
          critical sections; check element conservation and per-producer \
          FIFO order.  Exit code 1 on any violation.")
    Term.(const run $ key $ domains $ ops $ rounds $ seed_arg $ one_in
          $ max_delay)

(* Cycle attribution: per-cache-line heatmaps of the simulated
   algorithms (deterministic per seed) and, with --native, per-site
   contention profiles of the native queues under two real domains. *)
let profile_cmd =
  let run algos procs pairs mpl seed top json_out native =
    let keys =
      match algos with
      | [] -> [ "ms"; "two-lock"; "single-lock" ]
      | ks -> ks
    in
    let params =
      {
        Harness.Params.default with
        processors = procs;
        total_pairs = pairs;
        multiprogramming = mpl;
      }
    in
    let params =
      match seed with
      | Some s -> { params with Harness.Params.seed = s }
      | None -> params
    in
    let results =
      List.map
        (fun key ->
          let m =
            Harness.Workload.run ~heatmap:true (Harness.Registry.find key)
              params
          in
          Format.printf "@.%s  p=%d mpl=%d  %d pairs  (net %.0f cycles/pair)@."
            key procs mpl pairs m.Harness.Workload.net_per_pair;
          Harness.Report.heatmap_table ~top Format.std_formatter
            m.Harness.Workload.heatmap;
          (key, m))
        keys
    in
    let native_results =
      if not native then []
      else
        List.filter_map
          (fun { Harness.Registry.key; unbounded; _ } ->
            Option.map
              (fun (module Q : Core.Queue_intf.S) ->
                Obs.Profile.reset ();
                Obs.Profile.enable ();
                let q = Q.create () in
                let worker () =
                  for i = 1 to 10_000 do
                    Q.enqueue q i;
                    ignore (Q.dequeue q)
                  done
                in
                let d = Domain.spawn worker in
                worker ();
                Domain.join d;
                Obs.Profile.disable ();
                let s = Obs.Profile.snapshot () in
                Format.printf "@.native %s (2 domains, 10000 pairs each):@.%a"
                  key Obs.Profile.pp s;
                (key, s))
              unbounded)
          Harness.Registry.native
    in
    Option.iter
      (fun path ->
        let doc =
          Obs.Json.Assoc
            [
              ("schema_version", Obs.Json.Int 1);
              ( "sim_heatmaps",
                Obs.Json.List
                  (List.map
                     (fun (key, (m : Harness.Workload.measurement)) ->
                       Obs.Json.Assoc
                         [
                           ("queue", Obs.Json.String key);
                           ("processors", Obs.Json.Int procs);
                           ("mpl", Obs.Json.Int mpl);
                           ("pairs", Obs.Json.Int pairs);
                           ( "net_per_pair",
                             Obs.Json.Float m.Harness.Workload.net_per_pair );
                           ( "lines",
                             Harness.Report.heatmap_json
                               m.Harness.Workload.heatmap );
                         ])
                     results) );
              ( "native",
                Obs.Json.List
                  (List.map
                     (fun (key, s) ->
                       Obs.Json.Assoc
                         [
                           ("queue", Obs.Json.String key);
                           ("profile", Obs.Profile.to_json s);
                         ])
                     native_results) );
            ]
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc);
            Out_channel.output_char oc '\n');
        Format.printf "@.wrote profile JSON to %s@." path)
      json_out;
    0
  in
  let algos =
    Arg.(value & opt_all string []
         & info [ "a"; "algo" ]
             ~doc:"Simulated algorithm key (repeatable); default ms, \
                   two-lock, single-lock.")
  in
  let procs = Arg.(value & opt int 8 & info [ "p"; "procs" ] ~doc:"Processors.") in
  let pairs = Arg.(value & opt int 4_000 & info [ "pairs" ] ~doc:"Total pairs.") in
  let mpl = Arg.(value & opt int 1 & info [ "m"; "mpl" ] ~doc:"Processes per processor.") in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Hottest lines to show.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the heatmaps (and native profiles) as JSON to $(docv).")
  in
  let native =
    Arg.(value & flag
         & info [ "native" ]
             ~doc:"Also profile every native queue under two real domains: \
                   per-site contention and per-phase spans via Obs.Profile \
                   (wall-clock, not deterministic).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Where the cycles go: per-cache-line heatmaps of the simulated \
          algorithms (hottest lines with their symbolic labels — Head, Tail, \
          node[i], locks), deterministic per seed; optionally native per-site \
          contention profiles.")
    Term.(const run $ algos $ procs $ pairs $ mpl $ seed_arg $ top $ json_out
          $ native)

let bench_diff_cmd =
  let run old_path new_path max_regress gate_native max_p999_regress =
    match (Harness.Bench_compare.load old_path, Harness.Bench_compare.load new_path) with
    | Error e, _ | _, Error e ->
        Format.eprintf "bench-diff: %s@." e;
        2
    | Ok old_doc, Ok new_doc ->
        let c =
          Harness.Bench_compare.diff ~max_regress ~gate_native
            ~max_p999_regress ~old_doc ~new_doc ()
        in
        Format.printf "%a@." Harness.Bench_compare.pp c;
        if Harness.Bench_compare.ok c then 0 else 1
  in
  let old_path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Baseline BENCH_queues.json.")
  in
  let new_path =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Candidate BENCH_queues.json.")
  in
  let max_regress =
    Arg.(value & opt float 10.
         & info [ "max-regress" ] ~docv:"PCT"
             ~doc:"Fail when a gated metric worsens by more than $(docv) percent.")
  in
  let gate_native =
    Arg.(value & flag
         & info [ "gate-native" ]
             ~doc:"Also gate on native wall-clock throughput (noisy on a \
                   timeshared core; off by default).")
  in
  let max_p999_regress =
    Arg.(value & opt float 400.
         & info [ "max-p999-regress" ] ~docv:"PCT"
             ~doc:"Fail when a latency tail (fabric open-loop sojourn p999, \
                   soak dequeue p999) worsens by more than $(docv) percent; \
                   wide by default because tails are wall-clock and \
                   power-of-two bucketed — the gate catches the \
                   latency-under-load knee collapsing, not jitter.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_queues.json documents (schema versions 2-8): the \
          deterministic simulator figures (including the fabric shard-scaling \
          points) gate at --max-regress, latency tails at --max-p999-regress, \
          any failed fabric SLO verdict in NEW fails absolutely, and native \
          throughput is informational.  Exit 1 on regression, 2 on unreadable \
          input.")
    Term.(const run $ old_path $ new_path $ max_regress $ gate_native
          $ max_p999_regress)

let bench_summary_cmd =
  let run path top =
    match Harness.Bench_compare.load path with
    | Error e ->
        Format.eprintf "bench-summary: %s@." e;
        2
    | Ok doc ->
        Harness.Bench_compare.markdown_summary ~top Format.std_formatter doc;
        0
  in
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"BENCH_queues.json to summarize.")
  in
  let top =
    Arg.(value & opt int 3
         & info [ "top" ] ~doc:"Hottest cache lines per queue.")
  in
  Cmd.v
    (Cmd.info "bench-summary"
       ~doc:
         "Render a BENCH_queues.json as GitHub-flavoured markdown — headline \
          native throughput and the hottest simulated cache lines — suitable \
          for \\$GITHUB_STEP_SUMMARY.")
    Term.(const run $ path $ top)

(* Exhaustive small-scope model checking of the NATIVE queues: the
   shipping lib/core functors instantiated with Mcheck.Traced_atomic run
   as coroutines under the preemption-bounded explorer, every complete
   interleaving judged by the conservation + linearizability oracle.
   This is the other half of what `explore` does for the simulated
   algorithms — same explorer, real code. *)
let mcheck_native_cmd =
  let run queue scenario preemptions depth_limit self_test trace_out =
    let module CE = Mcheck.Core_explore in
    (* A queue name is valid in the unbounded table, the bounded table,
       or both ("scq" is in both: an adapter for the shared battery plus
       the real try_enqueue/try_dequeue battery); each battery runs the
       entries the name resolves to in its own table. *)
    let resolve_queues () =
      match queue with
      | None -> Ok (CE.queues, CE.bqueues)
      | Some name -> (
          match (CE.find_queue name, CE.find_bqueue name) with
          | None, None ->
              Error
                (Printf.sprintf "unknown queue %S (have: %s)" name
                   (String.concat ", "
                      (List.map fst CE.queues
                      @ List.filter
                          (fun k -> not (List.mem_assoc k CE.queues))
                          (List.map fst CE.bqueues))))
          | q, b ->
              Ok
                ( Option.to_list (Option.map (fun q -> (name, q)) q),
                  Option.to_list (Option.map (fun b -> (name, b)) b) ))
    in
    let resolve_scenarios () =
      match scenario with
      | None -> Ok (CE.scenarios, CE.bounded_scenarios)
      | Some name -> (
          match (CE.find_scenario name, CE.find_bounded_scenario name) with
          | None, None ->
              Error
                (Printf.sprintf "unknown scenario %S (have: %s)" name
                   (String.concat ", "
                      (List.map (fun s -> s.CE.sname) CE.scenarios
                      @ List.map
                          (fun b -> b.CE.bname)
                          CE.bounded_scenarios)))
          | s, b -> Ok (Option.to_list s, Option.to_list b))
    in
    match (resolve_queues (), resolve_scenarios ()) with
    | Error e, _ | _, Error e ->
        Format.eprintf "mcheck-native: %s@." e;
        2
    | Ok (queues, bqueues), Ok (scenarios, bounded_scenarios) ->
        let violations = ref 0 in
        let first_failure = ref None in
        let dump_failure qname sname f =
          Format.printf "  %s under schedule %a@." f.Mcheck.Explore.message
            Mcheck.Explore.pp_schedule f.Mcheck.Explore.schedule;
          if !first_failure = None then first_failure := Some (qname, sname, f)
        in
        let report qname sname (outcome : Mcheck.Explore.outcome) =
          Format.printf "%s/%s: %d schedules explored, %d diverged, %d violations@."
            qname sname outcome.Mcheck.Explore.runs
            outcome.Mcheck.Explore.diverged
            (List.length outcome.Mcheck.Explore.failures);
          violations := !violations + List.length outcome.Mcheck.Explore.failures;
          List.iter (dump_failure qname sname) outcome.Mcheck.Explore.failures
        in
        List.iter
          (fun (qname, q) ->
            List.iter
              (fun s ->
                report qname s.CE.sname
                  (CE.check ~max_preemptions:preemptions
                     ~max_steps:depth_limit q s))
              scenarios)
          queues;
        List.iter
          (fun (qname, q) ->
            List.iter
              (fun b ->
                report qname b.CE.bname
                  (CE.check_bounded ~max_preemptions:preemptions
                     ~max_steps:depth_limit q b))
              bounded_scenarios)
          bqueues;
        (* The checker checking the checker: the planted broken-ms queue
           (Head store instead of D12's CAS) and the planted broken-scq
           (cycle comparison dropped from the slot claim) must both be
           caught, else the whole run proves nothing. *)
        let self_test_ok =
          if not self_test then true
          else begin
            let s = CE.pairs ~procs:2 ~ops:1 in
            let outcome =
              CE.check ~max_preemptions:preemptions ~max_steps:depth_limit
                CE.broken s
            in
            let caught = outcome.Mcheck.Explore.failures <> [] in
            Format.printf "self-test broken-ms/%s: %d schedules explored, %s@."
              s.CE.sname outcome.Mcheck.Explore.runs
              (if caught then "planted bug caught" else "PLANTED BUG MISSED");
            (match (caught, outcome.Mcheck.Explore.failures) with
            | true, f :: _ ->
                Format.printf "  %s under schedule %a@." f.Mcheck.Explore.message
                  Mcheck.Explore.pp_schedule f.Mcheck.Explore.schedule
            | _ -> ());
            let bcaught =
              match CE.find_bounded_scenario "b-empty-race" with
              | None -> false
              | Some b ->
                  let outcome =
                    CE.check_bounded ~max_preemptions:preemptions
                      ~max_steps:depth_limit CE.broken_bounded b
                  in
                  let caught = outcome.Mcheck.Explore.failures <> [] in
                  Format.printf
                    "self-test broken-scq/%s: %d schedules explored, %s@."
                    b.CE.bname outcome.Mcheck.Explore.runs
                    (if caught then "planted bug caught"
                     else "PLANTED BUG MISSED");
                  (match (caught, outcome.Mcheck.Explore.failures) with
                  | true, f :: _ ->
                      Format.printf "  %s under schedule %a@."
                        f.Mcheck.Explore.message Mcheck.Explore.pp_schedule
                        f.Mcheck.Explore.schedule
                  | _ -> ());
                  caught
            in
            caught && bcaught
          end
        in
        (match (!first_failure, trace_out) with
        | Some (qname, sname, f), Some path ->
            let oc = open_out path in
            Printf.fprintf oc "queue: %s\nscenario: %s\nmessage: %s\n" qname
              sname f.Mcheck.Explore.message;
            Printf.fprintf oc "schedule: %s\n"
              (Format.asprintf "%a" Mcheck.Explore.pp_schedule
                 f.Mcheck.Explore.schedule);
            Printf.fprintf oc "trace:\n";
            List.iter (fun l -> Printf.fprintf oc "  %s\n" l)
              f.Mcheck.Explore.trace;
            close_out oc;
            Format.printf "first counterexample written to %s@." path
        | Some (_, _, f), None ->
            Format.printf "first counterexample trace:@.";
            List.iter (fun l -> Format.printf "  %s@." l)
              f.Mcheck.Explore.trace
        | None, _ -> ());
        if !violations = 0 && self_test_ok then 0 else 1
  in
  let queue =
    Arg.(value & opt (some string) None
         & info [ "q"; "queue" ] ~docv:"NAME"
             ~doc:"Check one native queue (ms, ms-counted, ms-hp, two-lock, \
                   segmented, scq); all of them by default.")
  in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Run one scenario (enq-enq, deq-empty, tail-lag, \
                   pairs-2x1, pairs-2x2, pairs-3x1, or the bounded \
                   b-full-race, b-empty-race, b-wrap); the whole battery by \
                   default.")
  in
  let preemptions =
    Arg.(value & opt int 2 & info [ "preemptions" ] ~doc:"Preemption budget.")
  in
  let depth_limit =
    Arg.(value & opt int 10_000
         & info [ "depth-limit" ] ~docv:"STEPS"
             ~doc:"Maximum atomic operations per run; a schedule exceeding it \
                   counts as diverged (evidence of unbounded blocking).")
  in
  let self_test =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Also run the deliberately broken variants — Michael-Scott \
                   with a Head store instead of D12's compare-and-set, and \
                   SCQ with the cycle comparison dropped from the slot claim \
                   — and fail unless the checker catches both.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the first counterexample (schedule and operation \
                   trace) to $(docv).")
  in
  Cmd.v
    (Cmd.info "mcheck-native"
       ~doc:
         "Exhaustively model-check the native queues: the shipping lib/core \
          functors instantiated with a traced atomic run under the \
          preemption-bounded explorer, and every complete interleaving is \
          checked for value conservation and linearizability against the \
          sequential FIFO queue.  Exit 1 on any violation.")
    Term.(const run $ queue $ scenario $ preemptions $ depth_limit $ self_test
          $ trace_out)

(* The fabric acceptance harness: the three claims the sharded fabric
   ships under, runnable (and gated) standalone.
   (a) aggregate-throughput scaling — the paper's pairs workload over
       the simulated keyed fabric at 1 shard vs --shards, p = 8; the
       deterministic cycles/pair ratio must reach 3x at 8 shards;
   (b) cache disjointness — the same runs' heatmaps must show every
       per-shard line written by a single shard's processor set;
   (c) latency under offered load — open-loop Poisson arrivals against
       a native bounded fabric at each --load, sojourn p999 within
       --slo-ns.
   Exit 1 if any gate fails. *)
let fabric_cmd =
  let run shards policy loads seed arrivals pairs slo_ns skew crash
      json_out =
    let module R = Resilience.Resilient in
    let module F = Fabric.Queue_fabric in
    let shards = max 1 shards in
    let policy =
      match policy with
      | `Fail_fast -> R.Fail_fast
      | `Shed -> R.Shed
      | `Block -> R.Block_until 1_000_000
    in
    let failed = ref [] in
    let gate name ok =
      Format.printf "  gate %-26s %s@." name (if ok then "ok" else "FAIL");
      if not ok then failed := name :: !failed;
      ok
    in
    (* (a) + (b): deterministic simulated scaling and disjoint writers *)
    Format.printf "fabric: simulated shard scaling (p = 8, %d pairs)@." pairs;
    let params =
      { Harness.Params.default with total_pairs = pairs; processors = 8 }
    in
    let params =
      match seed with
      | Some s -> { params with Harness.Params.seed = s }
      | None -> params
    in
    let sim n =
      let m =
        Harness.Workload.run ~heatmap:true
          (Squeues.Fabric_queue.algo ~shards:n)
          params
      in
      Format.printf "  %d shard(s): %7.0f cycles/pair%s@." n
        m.Harness.Workload.net_per_pair
        (if m.Harness.Workload.completed then "" else " [incomplete]");
      m
    in
    let m1 = sim 1 in
    let mn = sim shards in
    let speedup =
      m1.Harness.Workload.net_per_pair /. mn.Harness.Workload.net_per_pair
    in
    Format.printf "  speedup %d shards vs 1: %.2fx@." shards speedup;
    if shards >= 8 then ignore (gate "sim-scaling>=3x" (speedup >= 3.0))
    else
      Format.printf "  gate %-26s skipped (gate applies at >= 8 shards)@."
        "sim-scaling>=3x";
    let disjoint =
      Squeues.Fabric_queue.writers_disjoint m1.Harness.Workload.heatmap
      && Squeues.Fabric_queue.writers_disjoint mn.Harness.Workload.heatmap
    in
    ignore (gate "writers-disjoint" disjoint);
    (* (c): native open-loop latency under each offered load *)
    let loads = match loads with [] -> [ 20_000.; 50_000. ] | ls -> ls in
    Format.printf
      "fabric: open-loop latency under offered load (native, %d shards)@."
      shards;
    let ol_points =
      List.map
        (fun rate ->
          let fab =
            F.create
              ~config:
                {
                  F.default_config with
                  shards;
                  shard_capacity = 4_096;
                  resilience = { R.default with R.policy };
                }
              ()
          in
          let r =
            Harness.Open_loop.run
              ~config:
                {
                  Harness.Open_loop.default with
                  seed = Option.value seed ~default:0xFABL;
                  rate;
                  arrivals;
                  key_skew = skew;
                  crash_restart = crash;
                }
              fab
          in
          Format.printf "  %a@." Harness.Open_loop.pp_result r;
          let _, _, p999 =
            Harness.Open_loop.percentiles r.Harness.Open_loop.sojourn
          in
          let ok = gate (Printf.sprintf "slo-p999@%.0f/s" rate) (p999 <= slo_ns) in
          (rate, r, ok))
        loads
    in
    (match json_out with
    | None -> ()
    | Some path ->
        let sim_point n (m : Harness.Workload.measurement) =
          Obs.Json.Assoc
            [
              ("shards", Obs.Json.Int n);
              ("processors", Obs.Json.Int 8);
              ("pairs", Obs.Json.Int pairs);
              ("net_per_pair", Obs.Json.Float m.Harness.Workload.net_per_pair);
              ("completed", Obs.Json.Bool m.Harness.Workload.completed);
            ]
        in
        let ol_point (rate, r, ok) =
          match Harness.Open_loop.result_json r with
          | Obs.Json.Assoc kvs ->
              Obs.Json.Assoc
                (kvs
                @ [
                    ("load_label", Obs.Json.String (Printf.sprintf "%.0f" rate));
                    ("slo_p999_ns", Obs.Json.Int slo_ns);
                    ("slo_ok", Obs.Json.Bool ok);
                  ])
          | j -> j
        in
        let doc =
          Obs.Json.Assoc
            [
              ("shards", Obs.Json.Int shards);
              ("speedup", Obs.Json.Float speedup);
              ( "sim_scaling",
                Obs.Json.List [ sim_point 1 m1; sim_point shards mn ] );
              ("heatmap_disjoint", Obs.Json.Bool disjoint);
              ("open_loop", Obs.Json.List (List.map ol_point ol_points));
            ]
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc);
            Out_channel.output_char oc '\n');
        Format.printf "fabric section written to %s@." path);
    if !failed = [] then begin
      Format.printf "fabric: all gates ok@.";
      0
    end
    else begin
      Format.printf "fabric: FAILED gates: %s@."
        (String.concat ", " (List.rev !failed));
      1
    end
  in
  let shards =
    Arg.(value & opt int 8
         & info [ "shards" ]
             ~doc:"Shard count for the scaled runs and the native fabric \
                   (the >=3x scaling gate applies at >= 8).")
  in
  let policy =
    Arg.(value
         & opt (enum [ ("fail-fast", `Fail_fast); ("shed", `Shed);
                       ("block", `Block) ])
             `Shed
         & info [ "policy" ]
             ~doc:"Backpressure policy of the native fabric's per-shard \
                   engines: $(b,fail-fast), $(b,shed) or $(b,block) \
                   (Block_until 1 ms).")
  in
  let loads =
    Arg.(value & opt_all float []
         & info [ "load" ] ~docv:"PER_SEC"
             ~doc:"Offered open-loop arrival rate; repeatable, one point \
                   per occurrence.  Default: 20000 and 50000.")
  in
  let arrivals =
    Arg.(value & opt int 3_000
         & info [ "arrivals" ] ~doc:"Total arrivals per open-loop point.")
  in
  let pairs =
    Arg.(value & opt int 2_000
         & info [ "pairs" ]
             ~doc:"Simulated enqueue/dequeue pairs for the scaling runs.")
  in
  let slo_ns =
    Arg.(value & opt int 500_000_000
         & info [ "slo-ns" ]
             ~doc:"Absolute sojourn-p999 SLO per open-loop point.  Generous \
                   by default because CI shares one hardware core: the gate \
                   catches collapse (unbounded queueing), not drift.")
  in
  let skew =
    Arg.(value & opt float 0.
         & info [ "skew" ]
             ~doc:"Zipf key skew for the open-loop producers (0 = unkeyed, \
                   round-robin splitter).")
  in
  let crash =
    Arg.(value & flag
         & info [ "crash" ]
             ~doc:"Fail-stop producer 0 mid-schedule and resume the rest of \
                   its arrivals on a replacement domain.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the run as a bench schema-7 style fabric section \
                   (plus the speedup verdict) to $(docv).")
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run the sharded-fabric acceptance gates: >=3x simulated \
          aggregate-throughput scaling at 8 shards vs a single queue, \
          disjoint per-shard writer sets in the cache heatmap, and native \
          open-loop sojourn p999 within the SLO at each offered load.  \
          Exit 1 if any gate fails.")
    Term.(const run $ shards $ policy $ loads $ seed_arg $ arrivals $ pairs
          $ slo_ns $ skew $ crash $ json_out)

(* Acceptance gates for the telemetry subsystem, in three parts: the
   flight recorder must write a loadable Chrome-trace dump at the
   moment a planted failure fires, the sampler timeline must be a
   well-formed schema-8 section with real points, and the always-on
   instrumentation must cost close to nothing against a workload with
   realistic per-operation think time. *)
let telemetry_cmd =
  let run seed flight_out timeline_out pairs max_overhead =
    let seed = Option.value seed ~default:0x7E1EL in
    let failures = ref 0 in
    let gate name ok detail =
      Format.printf "  %s %s: %s@." (if ok then "PASS" else "FAIL") name
        detail;
      if not ok then incr failures
    in

    (* Gate 1: dump on a planted failure.  Arm the latch, soak the
       deliberately broken queue (drops every 97th enqueue); the
       conservation audit's note_anomaly must write the black box out,
       and the file must load as a non-empty Chrome-trace document. *)
    Format.printf "gate 1: flight dump on a planted failure@.";
    Obs.Flight.reset ();
    Obs.Flight.arm_dump ~path:flight_out;
    gate "planted-bug-caught"
      (Harness.Soak.self_test ~seed)
      "conservation audit caught the planted element drop";
    (match Obs.Flight.last_dump () with
    | None -> gate "dump" false "anomaly latch never fired; nothing written"
    | Some (path, reason) -> (
        gate "dump-reason"
          (String.length reason >= 10 && String.sub reason 0 10 = "soak-audit")
          (Printf.sprintf "latched %S -> %s" reason path);
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e -> gate "dump-file" false e
        | body -> (
            match Obs.Json.of_string body with
            | exception Obs.Json.Parse_error e -> gate "dump-parse" false e
            | doc ->
                let events =
                  match Obs.Json.member "traceEvents" doc with
                  | Some (Obs.Json.List l) -> List.length l
                  | _ -> 0
                in
                gate "dump-events" (events > 0)
                  (Printf.sprintf "%d Chrome-trace events in %s" events path))));
    Obs.Flight.disarm_dump ();

    (* Gate 2: the sampled timeline.  The bench suite's telemetry
       workload at smoke scale — an instrumented queue hammered by two
       domains, then the fabric under open-loop load (which
       auto-registers its shard depths because the sampler is active) —
       must export a timeline that validates under the schema-8 shape,
       with real points, and an OpenMetrics rendering. *)
    Format.printf "gate 2: sampled timeline@.";
    Obs.Sampler.clear ();
    Obs.Sampler.start ~period_ns:5_000_000 ();
    let (module Q : Core.Queue_intf.S) =
      Option.get (Harness.Registry.find_native "ms").unbounded
    in
    let module I = Obs.Instrumented.Make (Q) in
    let q = I.create () in
    Obs.Sampler.register_metrics ~prefix:"msq" (I.metrics q);
    Obs.Sampler.register_gauge "msq.length" (fun () ->
        float_of_int (I.length q));
    Obs.Control.with_enabled (fun () ->
        let worker () =
          for i = 1 to 30_000 do
            I.enqueue q i;
            ignore (I.dequeue q)
          done
        in
        let d = Domain.spawn worker in
        worker ();
        Domain.join d);
    Obs.Sampler.remove ~prefix:"msq";
    let fab =
      Fabric.Queue_fabric.create
        ~config:
          {
            Fabric.Queue_fabric.default_config with
            shards = 4;
            shard_capacity = 4_096;
          }
        ()
    in
    (* metrics on, so the fabric dequeue engine's series get points *)
    let (_ : Harness.Open_loop.result) =
      Obs.Control.with_enabled (fun () ->
          Harness.Open_loop.run
            ~config:
              {
                Harness.Open_loop.default with
                seed;
                rate = 50_000.;
                arrivals = 2_000;
              }
            fab)
    in
    Obs.Sampler.stop ();
    let timeline = Obs.Sampler.timeline_json () in
    (match Harness.Bench_compare.validate_timeline timeline with
    | Ok () -> gate "schema" true "timeline validates under the schema-8 shape"
    | Error e -> gate "schema" false e);
    let series =
      match Obs.Json.member "series" timeline with
      | Some (Obs.Json.List l) -> l
      | _ -> []
    in
    let points =
      List.fold_left
        (fun acc s ->
          match Obs.Json.member "points" s with
          | Some (Obs.Json.List l) -> acc + List.length l
          | _ -> acc)
        0 series
    in
    gate "non-empty"
      (series <> [] && points > 0)
      (Printf.sprintf "%d series, %d points" (List.length series) points);
    let om = String.trim (Obs.Sampler.to_openmetrics ()) in
    gate "openmetrics"
      (String.length om >= 5 && String.sub om (String.length om - 5) 5 = "# EOF")
      "OpenMetrics exposition is # EOF-terminated";
    Obs.Json.write_file timeline_out timeline;
    Format.printf "wrote timeline to %s@." timeline_out;
    Harness.Report.timeline_table Format.std_formatter timeline;
    Obs.Sampler.clear ();

    (* Gate 3: overhead.  One queue, enqueue/~30us think/dequeue pairs
       (an uncontended MS pair emits ~7 probe events against tens of
       microseconds of work, as in any workload that does something
       with what it dequeues), best of 5 runs alternating telemetry
       off/on; the enabled configuration — flight recorder plus live
       sampler — must stay within --max-overhead-pct of the plain
       one. *)
    Format.printf "gate 3: telemetry overhead (%d pairs, best of 5)@." pairs;
    let spin () =
      let acc = ref 0 in
      for i = 1 to 100_000 do
        acc := Sys.opaque_identity (!acc + i)
      done;
      ignore (Sys.opaque_identity !acc)
    in
    let run_pairs () =
      let q = Q.create () in
      let t0 = Monotonic_clock.now () in
      for i = 1 to pairs do
        Q.enqueue q i;
        spin ();
        ignore (Q.dequeue q)
      done;
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
    in
    Obs.Sampler.register_gauge "telemetry.overhead_probe" (fun () -> 1.);
    let best_off = ref infinity and best_on = ref infinity in
    for _ = 1 to 5 do
      let t_off = run_pairs () in
      if t_off < !best_off then best_off := t_off;
      Obs.Flight.enable ();
      Obs.Sampler.start ~period_ns:5_000_000 ();
      let t_on = run_pairs () in
      Obs.Sampler.stop ();
      Obs.Flight.disable ();
      if t_on < !best_on then best_on := t_on
    done;
    Obs.Sampler.clear ();
    let overhead = (!best_on -. !best_off) /. !best_off *. 100. in
    gate "overhead"
      (overhead <= max_overhead)
      (Printf.sprintf "%+.2f%% enabled vs disabled (limit %.1f%%)" overhead
         max_overhead);

    if !failures = 0 then begin
      Format.printf "telemetry: every gate held@.";
      0
    end
    else begin
      Format.printf "telemetry: %d gate failure(s)@." !failures;
      1
    end
  in
  let flight_out =
    Arg.(value & opt string "flight-dump.json"
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Write the planted-failure flight dump to $(docv).")
  in
  let timeline_out =
    Arg.(value & opt string "timeline.json"
         & info [ "timeline-out" ] ~docv:"FILE"
             ~doc:"Write the sampled timeline (the schema-8 [timeline] \
                   section) to $(docv).")
  in
  let pairs =
    Arg.(value & opt int 5_000
         & info [ "pairs" ]
             ~doc:"Enqueue/think/dequeue pairs per overhead run.")
  in
  let max_overhead =
    Arg.(value & opt float 2.0
         & info [ "max-overhead-pct" ] ~docv:"PCT"
             ~doc:"Fail when the telemetry-enabled run is more than $(docv) \
                   percent slower than the plain one.")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run the telemetry acceptance gates: a planted soak failure must \
          produce a non-empty, loadable Chrome-trace flight dump; the \
          sampler timeline must validate under the schema-8 shape with an \
          OpenMetrics rendering; and flight recorder plus sampler together \
          must cost at most --max-overhead-pct against a workload with \
          realistic think time.  Exit 1 if any gate fails.")
    Term.(const run $ seed_arg $ flight_out $ timeline_out $ pairs
          $ max_overhead)

let cmd =
  let doc = "Verification tools for the PODC 1996 queue reproduction" in
  Cmd.group (Cmd.info "msq_check" ~doc)
    [
      explore_cmd; lin_cmd; native_lin_cmd; mcheck_native_cmd; crash_cmd;
      chaos_cmd; soak_cmd; profile_cmd; fabric_cmd; bench_diff_cmd;
      bench_summary_cmd; telemetry_cmd;
    ]

let () = exit (Cmd.eval' cmd)
