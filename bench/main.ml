(* Benchmark harness regenerating the paper's complete evaluation:
   - Figures 3, 4, 5: net execution time vs processor count, dedicated
     and multiprogrammed (the paper's only quantitative exhibits);
   - the Section 1 Valois memory-exhaustion experiment;
   - the delay-injection liveness experiment behind Section 3.3;
   - ablations over the design choices DESIGN.md calls out (backoff,
     counted pointers vs GC nodes, free list vs allocation);
   - bechamel microbenchmarks of the native OCaml 5 queues.

   Scale via MSQ_PAIRS (default 20000; the paper used 1e6 — pass
   MSQ_PAIRS=1000000 MSQ_QUANTUM=2000000 for paper scale).  MSQ_JSON=FILE
   additionally writes the machine-readable BENCH_queues.json record
   (figures + native instrumented metrics); MSQ_SMOKE=1 runs a tiny
   subset — figure 3 at small scale plus the native metrics — meant for
   CI schema checks, not for measurement. *)

let smoke = Sys.getenv_opt "MSQ_SMOKE" <> None

let json_path = Sys.getenv_opt "MSQ_JSON"

(* --profile-out FILE: additionally write the cycle-attribution
   [profile] section alone (the CI artifact), independent of MSQ_JSON.
   --memory-out FILE: same for the live-memory [memory] section. *)
let flag_path name =
  let rec scan = function
    | flag :: path :: _ when flag = name -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let profile_path = flag_path "--profile-out"
let memory_path = flag_path "--memory-out"
let soak_path = flag_path "--soak-out"
let fabric_path = flag_path "--fabric-out"
let timeline_path = flag_path "--timeline-out"

let pairs =
  match Sys.getenv_opt "MSQ_PAIRS" with
  | Some s -> int_of_string s
  | None -> if smoke then 2_000 else 20_000

let quantum =
  match Sys.getenv_opt "MSQ_QUANTUM" with
  | Some s -> int_of_string s
  | None -> Harness.Params.default.Harness.Params.quantum

let procs = if smoke then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 6; 8; 10; 12 ]

let base = { Harness.Params.default with total_pairs = pairs; quantum }

let heading title =
  Format.printf "@.=== %s ===@." title

let figures () =
  List.map
    (fun n ->
      heading (Printf.sprintf "Figure %d" n);
      let t0 = Unix.gettimeofday () in
      let fig = Harness.Experiment.figure ~procs ~base n in
      Harness.Report.render Table Format.std_formatter fig;
      if n = 4 then Harness.Report.render Chart Format.std_formatter fig;
      Harness.Report.summary Format.std_formatter fig;
      Format.printf "(generated in %.1fs; %d pairs/point)@."
        (Unix.gettimeofday () -. t0)
        pairs;
      fig)
    (if smoke then [ 3 ] else [ 3; 4; 5 ])

let memory () =
  heading "Section 1: Valois memory exhaustion (queue <= 12 items, bounded free list)";
  let show r = Format.printf "  %a@." Harness.Memory_experiment.pp_result r in
  show (Harness.Memory_experiment.run (module Squeues.Valois_queue) ());
  show (Harness.Memory_experiment.run (module Squeues.Ms_queue) ());
  show (Harness.Memory_experiment.run (module Squeues.Two_lock_queue) ())

(* The live-memory axis — ROADMAP item 3's "run forever under a memory
   budget" made measurable:
   - bytes-per-element and steady-state allocation for every registered
     native queue (unbounded and bounded), from the GC's own accounting;
   - hazard-pointer reclamation lag under chaos-injected stalls;
   - simulated free-list lag (heap fallbacks past a small prefill) with
     a stalled victim, MS vs Valois vs two-lock — the §1 experiment as
     a number instead of a verdict.
   Runs in smoke too (reduced scale) so BENCH_queues.json always
   carries the memory section. *)
let memory_axis () =
  heading "Memory: steady-state footprint, bytes per element, reclamation lag";
  let elements = 1024 in
  let footprints =
    List.map
      (fun { Harness.Registry.queue; _ } ->
        let r = Harness.Memory_experiment.footprint queue ~elements () in
        Format.printf "  %a@." Harness.Memory_experiment.pp_footprint r;
        r)
      Harness.Registry.native
  in
  let hp =
    Harness.Memory_experiment.hp_reclamation_lag
      ~ops:(if smoke then 5_000 else 20_000)
      ()
  in
  Format.printf "  %a@." Harness.Memory_experiment.pp_hp_lag hp;
  let sim_lags =
    List.map
      (fun key ->
        let r =
          Harness.Memory_experiment.sim_reclamation_lag
            (Harness.Registry.find key)
            ~pairs:(if smoke then 4_000 else 20_000)
            ()
        in
        Format.printf "  %a@." Harness.Memory_experiment.pp_sim_lag r;
        r)
      [ "ms"; "valois"; "two-lock" ]
  in
  Obs.Json.Assoc
    [
      ( "native",
        Obs.Json.List
          (List.map Harness.Memory_experiment.footprint_json footprints) );
      ("hp_reclamation", Harness.Memory_experiment.hp_lag_json hp);
      ( "sim_reclamation",
        Obs.Json.List
          (List.map Harness.Memory_experiment.sim_lag_json sim_lags) );
    ]

(* Stall and crash injection over the whole registry.  Runs in smoke
   too (at a reduced scale) so BENCH_queues.json always carries the
   robustness section. *)
let robustness () =
  heading
    "Robustness: stall and crash injection (is the algorithm non-blocking?)";
  let liveness =
    if smoke then
      Harness.Liveness.run_all ~procs:4 ~pairs:2_000 ~trials:4
        ~stall_duration:2_000_000 ()
    else Harness.Liveness.run_all ()
  in
  Harness.Report.liveness_table Format.std_formatter liveness;
  let crash =
    List.map snd
      (Harness.Crash_experiment.sweep ~trials:(if smoke then 12 else 48) ())
  in
  Harness.Report.crash_table Format.std_formatter crash;
  (liveness, crash)

let ablations () =
  heading "Ablation: bounded exponential backoff (p = 12)";
  let run (module Q : Squeues.Intf.S) ~mpl ~backoff =
    let m =
      Harness.Workload.run
        (module Q)
        { base with processors = 12; multiprogramming = mpl; backoff }
    in
    m.Harness.Workload.net_per_pair
  in
  List.iter
    (fun ((module Q : Squeues.Intf.S) as q) ->
      List.iter
        (fun mpl ->
          Format.printf "  %-18s mpl=%d backoff on: %7.0f/pair   off: %7.0f/pair@."
            Q.name mpl (run q ~mpl ~backoff:true) (run q ~mpl ~backoff:false))
        [ 1; 2 ])
    [ (module Squeues.Ms_queue); (module Squeues.Two_lock_queue) ];
  heading "Ablation: free-list pool size (MS queue, p = 12, dedicated)";
  List.iter
    (fun pool ->
      let m =
        Harness.Workload.run
          (module Squeues.Ms_queue)
          { base with processors = 12; pool }
      in
      Format.printf "  pool=%-6d %7.0f/pair (heap fallbacks: %d)@." pool
        m.Harness.Workload.net_per_pair
        (Sim.Stats.counter m.Harness.Workload.stats "pool.heap_alloc"))
    [ 1; 64; 1024 ]

let lock_ablation () =
  heading "Ablation: spin-lock choice (TTAS vs ticket vs MCS, 8 processors)";
  List.iter
    (fun mpl ->
      List.iter
        (fun kind ->
          Format.printf "  %a@." Harness.Lock_experiment.pp_measurement
            (Harness.Lock_experiment.run kind ~processors:8 ~multiprogramming:mpl ()))
        Harness.Lock_experiment.kinds)
    [ 1; 2 ]

let two_lock_lock_ablation () =
  heading "Ablation: two-lock queue over TTAS / ticket / MCS locks (p = 12)";
  List.iter
    (fun mpl ->
      List.iter
        (fun (label, kind) ->
          let eng_params =
            { base with processors = 12; multiprogramming = mpl }
          in
          (* run the standard workload over a queue built with this lock *)
          let module Q = struct
            type t = Squeues.Two_lock_queue.t

            let name = "two-lock(" ^ label ^ ")"
            let init ?options eng =
              Squeues.Two_lock_queue.init_with_lock kind ?options eng

            let enqueue = Squeues.Two_lock_queue.enqueue
            let dequeue = Squeues.Two_lock_queue.dequeue
          end in
          let m = Harness.Workload.run (module Q) eng_params in
          Format.printf "  %-22s mpl=%d %7.0f/pair%s@." Q.name mpl
            m.Harness.Workload.net_per_pair
            (if m.Harness.Workload.completed then "" else " [incomplete]"))
        [ ("ttas", `Ttas); ("ticket", `Ticket); ("mcs", `Mcs) ])
    [ 1; 2 ]

let spsc_ablation () =
  heading "Ablation: SPSC specialization (Lamport [9] vs MS queue, 2 processors)";
  Format.printf "  %a@." Harness.Spsc_experiment.pp_measurement
    (Harness.Spsc_experiment.run_lamport ());
  Format.printf "  %a@." Harness.Spsc_experiment.pp_measurement
    (Harness.Spsc_experiment.run_ms ())

let work_sweep () =
  heading "Extension: other-work sensitivity (p = 8)";
  let series =
    List.map
      (fun { Harness.Registry.algo; _ } -> Harness.Work_sweep.sweep algo ())
      Harness.Registry.all
  in
  Harness.Work_sweep.table Format.std_formatter series;
  Format.printf
    "  (note the single lock at work=0: long same-process runs of queue ops@      \ \ with an unrealistically low miss rate — the paper's stated reason@      \ \ for inserting other work, reproduced)@."

let workload_variants () =
  heading "Extension: workload variants (8 processors)";
  List.iter
    (fun { Harness.Registry.algo; _ } ->
      Format.printf "  %a@." Harness.Workload_variants.pp_measurement
        (Harness.Workload_variants.producer_consumer algo ()))
    Harness.Registry.all;
  List.iter
    (fun { Harness.Registry.algo; _ } ->
      Format.printf "  %a@." Harness.Workload_variants.pp_measurement
        (Harness.Workload_variants.burst algo ()))
    Harness.Registry.all

(* Bechamel microbenchmarks: single-domain cost of an enqueue/dequeue
   pair on the native queues — includes the counted-pointer/free-list
   variant vs the GC variant (an allocation-strategy ablation). *)
let microbench () =
  heading "Native microbenchmarks (single domain, ns per enqueue/dequeue pair)";
  let open Bechamel in
  let open Toolkit in
  let pair (module Q : Core.Queue_intf.BOUNDED) =
    Test.make ~name:Q.name
      (Staged.stage
         (let q = Q.create () in
          fun () ->
            ignore (Q.try_enqueue q 42);
            ignore (Q.try_dequeue q)))
  in
  let tests =
    Test.make_grouped ~name:"pair"
      (List.map
         (fun { Harness.Registry.queue; _ } -> pair queue)
         Harness.Registry.native
      @ [
        Test.make ~name:"spsc-lamport"
          (Staged.stage
             (let q = Core.Spsc_queue.create ~capacity:64 in
              fun () ->
                ignore (Core.Spsc_queue.push q 42);
                ignore (Core.Spsc_queue.pop q)));
        Test.make ~name:"treiber-push-pop"
          (Staged.stage
             (let s = Core.Treiber_stack.create () in
              fun () ->
                Core.Treiber_stack.push s 42;
                ignore (Core.Treiber_stack.pop s)));
        ])
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (ns :: _) -> Format.printf "  %-32s %8.1f ns/pair@." name ns
         | Some [] | None -> Format.printf "  %-32s (no estimate)@." name)

(* Native batched workload: throughput vs batch size, every domain
   hammering one queue with no think time (the highest-contention
   shape).  Runs over every batch-capable queue in the registry;
   batch=1 is the single-element baseline, so the sweep shows directly
   what amortizing the index claim over a batch buys.  This is the
   "batched" section of BENCH_queues.json. *)
let batched_sweep () =
  heading "Native batched workload (2 domains, shared queue, items/s by batch size)";
  (* a trial must span many scheduler timeslices or its wall time is
     mostly noise: at ~4M items/s, 200k items is ~50ms per trial *)
  let items = if smoke then 200_000 else 400_000 in
  (* best-of-5: on a timeshared core a single run's wall time is
     dominated by scheduler noise; the best of several runs
     approximates the machine's capability at each batch size *)
  let repeats = 5 in
  let best_of run =
    let best = ref None in
    for _ = 1 to repeats do
      let m = run () in
      match !best with
      | Some b
        when b.Harness.Workload_variants.items_per_second
             >= m.Harness.Workload_variants.items_per_second ->
          ()
      | _ -> best := Some m
    done;
    let m = Option.get !best in
    Format.printf "  %a@." Harness.Workload_variants.pp_batch_measurement m;
    Obs.Json.Assoc
      [
        ("queue", Obs.Json.String m.Harness.Workload_variants.queue);
        ("batch", Obs.Json.Int m.Harness.Workload_variants.batch);
        ("domains", Obs.Json.Int m.Harness.Workload_variants.domains);
        ("total_items", Obs.Json.Int m.Harness.Workload_variants.total_items);
        ("seconds", Obs.Json.Float m.Harness.Workload_variants.seconds);
        ( "items_per_second",
          Obs.Json.Float m.Harness.Workload_variants.items_per_second );
      ]
  in
  let batches = [ 1; 2; 4; 8; 16; 32 ] in
  List.concat_map
    (fun { Harness.Registry.batch; _ } ->
      match batch with
      | None -> []
      | Some (module Q : Core.Queue_intf.BATCH) ->
          List.map
            (fun batch ->
              best_of (fun () ->
                  Harness.Workload_variants.batched (module Q) ~domains:2
                    ~items ~batch ()))
            batches)
    Harness.Registry.native
  (* the fabric's producer-batching path rides the same sweep, so the
     "batched" section compares one-FAA range claims against the
     fabric's route+engine overhead at every batch size *)
  @ List.map
      (fun batch ->
        best_of (fun () ->
            Harness.Workload_variants.fabric_batched ~shards:4 ~domains:2
              ~items ~batch ()))
      batches

(* Run [worker] on this domain and on one spawned domain at once;
   returns the wall time in seconds. *)
let on_two_domains worker =
  let t0 = Unix.gettimeofday () in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Unix.gettimeofday () -. t0

(* The pair loop behind every native run below: each domain makes [per]
   enqueue/dequeue pairs through [enq]/[deq]. *)
let two_domain_pairs ~per enq deq =
  on_two_domains (fun () ->
      for i = 1 to per do
        ignore (enq i);
        ignore (deq ())
      done)

let metric_fields m =
  match Obs.Metrics.to_json m with Obs.Json.Assoc kvs -> kvs | _ -> []

(* The batch=8 workload of a batch-capable queue through
   [Obs.Instrumented.Make_batch]: each domain enqueues a batch and then
   dequeues batches until it has taken as many items back. *)
let instrumented_batch8 (module Q : Core.Queue_intf.BATCH) ~per =
  let batch = 8 in
  let module I = Obs.Instrumented.Make_batch (Q) in
  let q = I.create () in
  Obs.Control.with_enabled (fun () ->
      let rounds = per / batch in
      let dt =
        on_two_domains (fun () ->
            for r = 1 to rounds do
              I.enqueue_batch q (List.init batch (fun k -> (r * batch) + k));
              let got = ref 0 in
              while !got < batch do
                match I.dequeue_batch q ~max:(batch - !got) with
                | [] -> Domain.cpu_relax ()
                | l -> got := !got + List.length l
              done
            done)
      in
      let m = I.metrics q in
      Format.printf "  [batch=%d] %a@." batch Obs.Metrics.pp m;
      let total_items = 2 * rounds * batch in
      (* renamed so the entry is distinguishable from the same queue's
         single-op record in the "native" list *)
      let renamed =
        List.map
          (function
            | "name", Obs.Json.String n ->
                ("name", Obs.Json.String (Printf.sprintf "%s/batch%d" n batch))
            | kv -> kv)
          (metric_fields m)
      in
      Obs.Json.Assoc
        (renamed
        @ [
            ("batch", Obs.Json.Int batch);
            ("items", Obs.Json.Int total_items);
            ( "items_per_second",
              Obs.Json.Float (float_of_int total_items /. dt) );
          ]))

(* Native instrumented metrics: every registered queue's [BOUNDED] view
   through [Obs.Instrumented.Make_bounded] with metrics enabled —
   per-operation latency histograms plus the probe events (CAS retries,
   backoffs, E12/D9 help-alongs and segment-transition races) of the
   two-domain pair loop.  The capacity (64) is small enough that a
   bounded ring's full verdicts actually occur and [full_enqueues]
   means something; an unbounded queue ignores it.  Batch-capable
   queues additionally run a batch=8 workload through
   [Obs.Instrumented.Make_batch] (reported as "<key>/batch8"), so the
   JSON also attributes segment-transition CAS retries to batch
   operations.  This is the "native" section of BENCH_queues.json.

   The throughput fields (pairs_per_second, ns_per_pair) come from a
   separate UNinstrumented best-of-3 run of the same loop: the
   wrapper's two clock reads per operation cost about as much as a fast
   queue operation itself, which would compress real throughput
   differences between algorithms; and on a timeshared core a single
   run's wall time is mostly scheduler noise.  The latency histograms
   and event counters are from the instrumented run. *)
let instrumented_metrics () =
  heading "Native instrumented metrics (2 domains, metrics enabled)";
  let per = if smoke then 5_000 else 50_000 in
  let throughput_per = if smoke then 50_000 else 100_000 in
  let capacity = 64 in
  List.concat_map
    (fun { Harness.Registry.queue = (module Q : Core.Queue_intf.BOUNDED); batch; _ }
       ->
      let module I = Obs.Instrumented.Make_bounded (Q) in
      let q = I.create ~capacity () in
      let finite = I.capacity q < max_int in
      let m =
        Obs.Control.with_enabled (fun () ->
            ignore
              (two_domain_pairs ~per (I.try_enqueue q) (fun () ->
                   I.try_dequeue q));
            I.metrics q)
      in
      if finite then
        Format.printf "  [capacity=%d] %a@." capacity Obs.Metrics.pp m
      else Format.printf "  %a@." Obs.Metrics.pp m;
      let raw () =
        let q = Q.create ~capacity () in
        two_domain_pairs ~per:throughput_per (Q.try_enqueue q) (fun () ->
            Q.try_dequeue q)
      in
      let dt = List.fold_left min (raw ()) [ raw (); raw () ] in
      let total_pairs = 2 * throughput_per in
      let pairs_per_second = float_of_int total_pairs /. dt in
      Format.printf "  %-24s %10.0f pairs/s (uninstrumented best-of-3)@." ""
        pairs_per_second;
      Obs.Json.Assoc
        (metric_fields m
        @ (if finite then [ ("capacity", Obs.Json.Int capacity) ] else [])
        @ [
            ("pairs", Obs.Json.Int total_pairs);
            ( "ns_per_pair",
              Obs.Json.Float (dt *. 1e9 /. float_of_int total_pairs) );
            ("pairs_per_second", Obs.Json.Float pairs_per_second);
          ])
      :: (match batch with
         | Some b -> [ instrumented_batch8 b ~per ]
         | None -> []))
    Harness.Registry.native

(* Cycle attribution — the "where the cycles go" section:
   - simulated cache-line heatmaps for the paper's three main queues at
     p = 1 and p = 8 (deterministic; small pair count, this is about
     attribution, not throughput);
   - native per-site contention and per-phase spans over every
     unbounded queue in the registry under two real domains
     (Obs.Profile; site labels carry the algorithm prefix, so one
     snapshot covers all queues).
   Runs in smoke too so BENCH_queues.json always carries the section. *)
let profile_section () =
  heading "Cycle attribution: simulated cache-line heatmaps";
  let ppairs = if smoke then 2_000 else 4_000 in
  let sim_entries =
    List.concat_map
      (fun key ->
        List.map
          (fun p ->
            let m =
              Harness.Workload.run ~heatmap:true (Harness.Registry.find key)
                { base with total_pairs = ppairs; processors = p }
            in
            Format.printf "@.%s p=%d (%d pairs):@." key p ppairs;
            Harness.Report.heatmap_table ~top:5 Format.std_formatter
              m.Harness.Workload.heatmap;
            Obs.Json.Assoc
              [
                ("queue", Obs.Json.String key);
                ("processors", Obs.Json.Int p);
                ("pairs", Obs.Json.Int ppairs);
                ("lines", Harness.Report.heatmap_json m.Harness.Workload.heatmap);
              ])
          [ 1; 8 ])
      [ "ms"; "two-lock"; "single-lock" ]
  in
  heading "Cycle attribution: native per-site contention (2 domains)";
  let per = if smoke then 5_000 else 20_000 in
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  List.iter
    (fun { Harness.Registry.unbounded; _ } ->
      Option.iter
        (fun (module Q : Core.Queue_intf.S) ->
          let q = Q.create () in
          ignore (two_domain_pairs ~per (Q.enqueue q) (fun () -> Q.dequeue q)))
        unbounded)
    Harness.Registry.native;
  Obs.Profile.disable ();
  let native_prof = Obs.Profile.snapshot () in
  Format.printf "%a" Obs.Profile.pp native_prof;
  Obs.Json.Assoc
    [
      ("sim_heatmaps", Obs.Json.List sim_entries);
      ("native", Obs.Profile.to_json native_prof);
    ]

(* The schema-6 [soak] section: [Harness.Soak.gate] as [msq_check soak]
   runs it, shorter (CI's long soak is the nightly job). *)
let soak_section () =
  heading "Soak: fault storm (chaos + crash/restart) and the simulated battery";
  let g =
    Harness.Soak.gate ~rounds:2
      ~ops:(if smoke then 300 else 800)
      ~deadline_s:120. ~seed:0x534F414BL (* "SOAK" *) ()
  in
  List.iter (Format.printf "%a@." Harness.Verdict.pp) (Harness.Soak.verdicts g);
  Harness.Soak.gate_json g

(* The schema-7 [fabric] section ([Harness.Gate.fabric]): 1 vs 8
   simulated shards, whose net_per_pair points fold into the bench-diff
   sim gate, and open-loop points against a 4-shard fabric, the top rate
   with skewed keys and a producer crash/restart so the artifact
   exercises the whole generator. *)
let fabric_section () =
  heading "Fabric: shard scaling and open-loop latency under offered load";
  let load label rate skew crash = { Harness.Gate.label; rate; skew; crash } in
  let f =
    Harness.Gate.fabric ~quantum ~shards:8 ~native_shards:4
      ~pairs:(if smoke then 2_000 else 8_000)
      ~arrivals:(if smoke then 3_000 else 20_000)
      (if smoke then [ load "20k" 20_000. 0. false; load "50k" 50_000. 1.2 true ]
       else
         [
           load "20k" 20_000. 0. false;
           load "100k" 100_000. 0. false;
           load "300k" 300_000. 1.2 true;
         ])
  in
  Format.printf "%a" Harness.Gate.pp_fabric f;
  List.iter
    (Format.printf "%a@." Harness.Verdict.pp)
    (Harness.Gate.fabric_verdicts f);
  Harness.Gate.fabric_json f

(* The schema-8 [timeline] section ([Harness.Gate.timeline]). *)
let timeline_section () =
  heading "Telemetry: sampled timeline (5 ms period)";
  let t =
    Harness.Gate.timeline ~seed:0x7E1EL
      ~pairs:(if smoke then 30_000 else 100_000)
      ~arrivals:(if smoke then 2_000 else 10_000)
  in
  Format.printf "  %a@." Harness.Open_loop.pp_result t.fabric_run;
  Harness.Report.timeline_table Format.std_formatter t.json;
  t.json

let write_json figs native batched ~robustness:(liveness, crash) ~profile
    ~memory ~soak ~fabric ~timeline =
  let write what path section =
    Obs.Json.write_file path section;
    Format.printf "@.wrote %s to %s@." what path
  in
  Option.iter (fun p -> write "profile" p profile) profile_path;
  Option.iter (fun p -> write "memory section" p memory) memory_path;
  Option.iter (fun p -> write "soak section" p soak) soak_path;
  Option.iter (fun p -> write "fabric section" p fabric) fabric_path;
  Option.iter (fun p -> write "timeline" p timeline) timeline_path;
  match json_path with
  | None -> ()
  | Some path ->
      let doc =
        Obs.Json.Assoc
          [
            ("schema_version", Obs.Json.Int 8);
            ("suite", Obs.Json.String "msqueue-bench");
            ("pairs", Obs.Json.Int pairs);
            ("quantum", Obs.Json.Int quantum);
            ("smoke", Obs.Json.Bool smoke);
            ("figures", Obs.Json.List (List.map Harness.Report.figure_json figs));
            ("native", Obs.Json.List native);
            ("batched", Obs.Json.List batched);
            ("robustness", Harness.Report.robustness_json ~liveness ~crash);
            ("profile", profile);
            ("memory", memory);
            ("soak", soak);
            ("fabric", fabric);
            ("timeline", timeline);
          ]
      in
      Obs.Json.write_file path doc;
      Format.printf "@.wrote %s@." path

let () =
  Format.printf "msqueue benchmark suite — reproduction of Michael & Scott, PODC 1996@.";
  Format.printf "(%d total pairs per point; quantum %d cycles%s)@." pairs quantum
    (if smoke then "; SMOKE subset" else "");
  let figs = figures () in
  if not smoke then begin
    memory ();
    ablations ();
    lock_ablation ();
    two_lock_lock_ablation ();
    spsc_ablation ();
    workload_variants ();
    work_sweep ();
    microbench ()
  end;
  let robustness = robustness () in
  let batched = batched_sweep () in
  let native = instrumented_metrics () in
  let profile = profile_section () in
  let memory = memory_axis () in
  let soak = soak_section () in
  let fabric = fabric_section () in
  let timeline = timeline_section () in
  write_json figs native batched ~robustness ~profile ~memory ~soak ~fabric
    ~timeline;
  Format.printf "@.done.@."
