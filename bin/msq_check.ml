(* CLI for the verification tools: linearizability checking of recorded
   histories, and preemption-bounded schedule exploration (the
   mechanized version of the paper's race hunting — including the races
   in Stone's algorithm that Section 1 reports).  The acceptance gates
   are library functions (Harness.Gate, Crash_experiment.dichotomy,
   Soak.gate); their subcommands here parse flags, make that one call,
   print, write files and return the verdicts' exit code. *)

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
  let run algo preemptions =
    let q = Harness.Registry.find algo in
    let outcome =
      Mcheck.Explore.explore ~max_preemptions:preemptions
        (recorded_spec q ~procs:2 ~ops:1)
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
  let preemptions =
    Arg.(value & opt int 2 & info [ "preemptions" ] ~doc:"Preemption budget.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore every schedule of 2 processes doing one enqueue/dequeue \
          pair each up to a preemption budget, checking each complete \
          history for linearizability.  Exit code 1 on any failure \
          (expected for stone).")
    Term.(const run $ algo_arg $ preemptions)

let lin_cmd =
  let run algo rounds seed =
    let procs = 4 and ops = 5 in
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
  let rounds = Arg.(value & opt int 50 & info [ "rounds" ] ~doc:"Random executions.") in
  Cmd.v
    (Cmd.info "lin"
       ~doc:
         "Record concurrent histories over many seeded executions (4 \
          processes, 5 pairs each) and check each against the sequential \
          FIFO specification.")
    Term.(const run $ algo_arg $ rounds $ seed_arg)

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

(* Linearizability of the NATIVE queues across real domains
   (Harness.Gate.native_lin). *)
let native_lin_cmd =
  let run key chaos seed =
    Harness.Verdict.report "native-lin"
      (Harness.Gate.native_lin ~chaos ?seed key)
  in
  let key =
    Arg.(
      value & opt string "segmented"
      & info [ "q"; "queue" ]
          ~doc:"Native queue key (see Harness.Registry.native_keys); a \
                bounded queue (e.g. scq) is checked against the bounded \
                sequential spec at capacity 2.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Wrap the queue in the chaos layer (Obs.Chaos): seeded \
                   randomized delays at the algorithm's injection sites.")
  in
  Cmd.v
    (Cmd.info "native-lin"
       ~doc:
         "Record concurrent histories of a NATIVE OCaml 5 queue across two \
          domains and check each against the sequential FIFO specification; \
          batch-capable queues also exercise their batch operations, and \
          bounded queues (e.g. scq) are checked against the bounded \
          sequential spec at capacity 2.  Exit code 1 on any \
          non-linearizable history.")
    Term.(const run $ key $ chaos $ seed_arg)

(* Fail-stop crash sweep over the simulated algorithms, gated on the
   paper's dichotomy (Harness.Crash_experiment.dichotomy). *)
let crash_cmd =
  let run algos seed trace_out =
    let keys = match algos with [] -> None | ks -> Some ks in
    let results = Harness.Crash_experiment.sweep ?keys ?seed () in
    Harness.Report.crash_table Format.std_formatter (List.map snd results);
    Option.iter
      (fun path ->
        match Harness.Crash_experiment.trace_first_blocked ?seed results with
        | None -> Format.printf "no blocked trial; nothing to trace@."
        | Some (label, trace, info) ->
            write_file path (Sim.Trace.to_chrome_string ~label trace);
            Format.printf "wrote Chrome trace of %s to %s@." label path;
            Option.iter
              (fun (i : Sim.Engine.blocked_info) ->
                Format.printf
                  "blocked at cycle %d (last progress %d); %d live processes@."
                  i.at_cycle i.progress_cycle (List.length i.live))
              info)
      trace_out;
    Harness.Verdict.report "crash sweep"
      (Harness.Crash_experiment.dichotomy results)
  in
  let algos =
    Arg.(value & opt_all string []
         & info [ "a"; "algo" ]
             ~doc:"Algorithm key (repeatable); default: the whole registry.")
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
         "Kill one process at 48 crash points swept across the run (4 \
          processes, 2,000 pairs), for every simulated algorithm: \
          non-blocking queues must survive all of them, lock-based queues \
          block when the victim dies in a critical section.  Deterministic \
          per seed.  Exit code 1 if the dichotomy fails.")
    Term.(const run $ algos $ seed_arg $ trace_out)

(* Fault-storm soak (Harness.Soak.gate): the planted-bug self-test, the
   simulated crash+restart battery and the native soak. *)
let soak_cmd =
  let run queues rounds ops deadline seed self_test json_out trace_out
      flight_out =
    let seed = Option.value seed ~default:0x534F414BL in
    let keys = match queues with [] -> None | ks -> Some ks in
    Format.printf "fault-storm soak (seed 0x%Lx)@." seed;
    let g =
      Harness.Soak.gate ?keys ~self_test ?flight_out ~rounds ~ops
        ~deadline_s:deadline ~seed ()
    in
    Option.iter
      (fun _ ->
        match g.flight_dump with
        | Some (path, reason) ->
            Format.printf "flight recorder dumped to %s (%s)@." path reason
        | None -> Format.printf "flight recorder: no anomaly, nothing dumped@.")
      flight_out;
    Option.iter
      (fun path ->
        match Harness.Soak.first_failure g with
        | None -> Format.printf "no failing soak; nothing to trace@."
        | Some text ->
            write_file path text;
            Format.printf "wrote first failing report to %s@." path)
      trace_out;
    Option.iter
      (fun path ->
        Obs.Json.write_file path (Harness.Soak.gate_json g);
        Format.printf "wrote soak report to %s@." path)
      json_out;
    Harness.Verdict.report "soak" (Harness.Soak.verdicts g)
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
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Fault-storm soak: every native queue under chaos delay storms, \
          stalled hazard-pointer readers and worker crash+restart \
          (replacement domains re-join mid-run; 2 producers, 2 consumers), \
          with conservation, FIFO, length-bound and reclamation-lag audits; \
          plus the simulated crash+restart battery.  Deterministic \
          decisions per --seed.  Exit code 1 on any audit failure or \
          watchdog expiry.")
    Term.(const run $ queues $ rounds $ ops $ deadline $ seed_arg $ self_test
          $ json_out $ trace_out $ flight_out)

(* Chaos stress for the NATIVE queues (Harness.Gate.chaos). *)
let chaos_cmd =
  let run key seed =
    Harness.Verdict.report "chaos"
      (Harness.Gate.chaos ?seed (Harness.Gate.chaos_queues key))
  in
  let key =
    Arg.(value & opt string "all"
         & info [ "q"; "queue" ]
             ~doc:"Unbounded native queue key, or $(b,all) for every \
                   registered unbounded queue.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Hammer the native queues from 4 real domains (4 rounds of 2,000 \
          pairs each) with seeded randomized delays injected at each \
          algorithm's marked CAS/FAA windows and critical sections; check \
          element conservation and per-producer FIFO order.  Exit code 1 on \
          any violation.")
    Term.(const run $ key $ seed_arg)

(* Cycle attribution: per-cache-line heatmaps of the simulated
   algorithms (deterministic per seed) and, with --native, per-site
   contention profiles of the native queues under two real domains. *)
let profile_cmd =
  let run algos procs pairs seed json_out native =
    let mpl = 1 in
    let keys =
      match algos with
      | [] -> [ "ms"; "two-lock"; "single-lock" ]
      | ks -> ks
    in
    let d = Harness.Params.default in
    let params =
      {
        d with
        processors = procs;
        total_pairs = pairs;
        seed = Option.value seed ~default:d.seed;
      }
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
          Harness.Report.heatmap_table Format.std_formatter
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
        Obs.Json.write_file path doc;
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
          algorithms, one process per processor (the 10 hottest lines with \
          their symbolic labels — Head, Tail, node[i], locks), \
          deterministic per seed; optionally native per-site contention \
          profiles.")
    Term.(const run $ algos $ procs $ pairs $ seed_arg $ json_out $ native)

let bench_diff_cmd =
  let run old_path new_path max_regress max_p999_regress =
    match (Harness.Bench_compare.load old_path, Harness.Bench_compare.load new_path) with
    | Error e, _ | _, Error e ->
        Format.eprintf "bench-diff: %s@." e;
        2
    | Ok old_doc, Ok new_doc ->
        let c =
          Harness.Bench_compare.diff ~max_regress ~max_p999_regress ~old_doc
            ~new_doc ()
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
    Term.(const run $ old_path $ new_path $ max_regress $ max_p999_regress)

let bench_summary_cmd =
  let run path =
    match Harness.Bench_compare.load path with
    | Error e ->
        Format.eprintf "bench-summary: %s@." e;
        2
    | Ok doc ->
        Harness.Bench_compare.markdown_summary Format.std_formatter doc;
        0
  in
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"BENCH_queues.json to summarize.")
  in
  Cmd.v
    (Cmd.info "bench-summary"
       ~doc:
         "Render a BENCH_queues.json as GitHub-flavoured markdown — headline \
          native throughput and the hottest simulated cache lines — suitable \
          for \\$GITHUB_STEP_SUMMARY.")
    Term.(const run $ path)

(* Exhaustive small-scope model checking of the NATIVE queues
   (Harness.Gate.mcheck_native over Mcheck.Core_explore.battery): the
   shipping lib/core functors under the preemption-bounded explorer —
   the other half of what `explore` does for the simulated algorithms. *)
let mcheck_native_cmd =
  let run queue scenario preemptions depth_limit self_test trace_out =
    match
      Harness.Gate.mcheck_native ~preemptions ~depth_limit ?queue ?scenario
        ~self_test ()
    with
    | Error e ->
        Format.eprintf "mcheck-native: %s@." e;
        2
    | Ok m ->
        let code = Harness.Verdict.report "mcheck-native" m.verdicts in
        (match (m.counterexample, trace_out) with
        | Some text, Some path ->
            write_file path text;
            Format.printf "first counterexample written to %s@." path
        | Some text, None ->
            Format.printf "first counterexample:@.%s@?" text
        | None, _ -> ());
        code
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
          sequential FIFO queue.  Exit 1 on any violation, 2 on an unknown \
          queue or scenario.")
    Term.(const run $ queue $ scenario $ preemptions $ depth_limit $ self_test
          $ trace_out)

(* The fabric acceptance gates (Harness.Gate.fabric): >=3x simulated
   scaling at 8 shards, disjoint per-shard writers, open-loop SLO. *)
let fabric_cmd =
  let run shards loads seed arrivals pairs skew crash json_out =
    let loads =
      List.map
        (fun rate ->
          { Harness.Gate.label = Printf.sprintf "%.0f" rate; rate; skew; crash })
        (match loads with [] -> [ 20_000.; 50_000. ] | ls -> ls)
    in
    let f =
      Harness.Gate.fabric ?seed ~shards ~native_shards:shards ~pairs ~arrivals
        loads
    in
    Format.printf "fabric: %a" Harness.Gate.pp_fabric f;
    Option.iter
      (fun path ->
        write_file path
          (Obs.Json.to_string (Harness.Gate.fabric_check_json f) ^ "\n");
        Format.printf "fabric section written to %s@." path)
      json_out;
    Harness.Verdict.report "fabric" (Harness.Gate.fabric_verdicts f)
  in
  let shards =
    Arg.(value & opt int 8
         & info [ "shards" ]
             ~doc:"Shard count for the scaled runs and the native fabric \
                   (the >=3x scaling gate applies at >= 8).")
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
          open-loop sojourn p999 within a 500 ms SLO at each offered load.  \
          Exit 1 if any gate fails.")
    Term.(const run $ shards $ loads $ seed_arg $ arrivals $ pairs $ skew
          $ crash $ json_out)

(* The telemetry acceptance gates (Harness.Gate.telemetry): a planted
   failure's flight dump, the sampled timeline's shape, and the
   always-on instrumentation's overhead. *)
let telemetry_cmd =
  let run seed flight_out timeline_out =
    let t =
      Harness.Gate.telemetry ~seed:(Option.value seed ~default:0x7E1EL)
        ~flight_out
    in
    Obs.Json.write_file timeline_out t.timeline.json;
    Format.printf "wrote timeline to %s@." timeline_out;
    Harness.Report.timeline_table Format.std_formatter t.timeline.json;
    Harness.Verdict.report "telemetry" t.verdicts
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
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run the telemetry acceptance gates: a planted soak failure must \
          produce a non-empty, loadable Chrome-trace flight dump; the \
          sampler timeline must validate under the schema-8 shape with an \
          OpenMetrics rendering; and flight recorder plus sampler together \
          must cost at most 2% against 5,000 pairs with realistic think \
          time.  Exit 1 if any gate fails.")
    Term.(const run $ seed_arg $ flight_out $ timeline_out)

let cmd =
  let doc = "Verification tools for the PODC 1996 queue reproduction" in
  Cmd.group (Cmd.info "msq_check" ~doc)
    [
      explore_cmd; lin_cmd; native_lin_cmd; mcheck_native_cmd; crash_cmd;
      chaos_cmd; soak_cmd; profile_cmd; fabric_cmd; bench_diff_cmd;
      bench_summary_cmd; telemetry_cmd;
    ]

let () = exit (Cmd.eval' cmd)
