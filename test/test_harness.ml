(* Tests of the experiment harness (lib/harness) and the paper-level
   integration claims: workload accounting, figure generation, the
   memory-exhaustion experiment, liveness, and the headline performance
   orderings at reduced scale. *)

let small = { Harness.Params.default with total_pairs = 2_000 }

(* ------------------------------------------------------------------ *)
(* Workload accounting *)

let test_workload_completes () =
  let m =
    Harness.Workload.run (module Squeues.Ms_queue) { small with processors = 4 }
  in
  Alcotest.(check bool) "completed" true m.Harness.Workload.completed;
  Alcotest.(check int) "all pairs done" 2_000 m.Harness.Workload.pairs_done;
  Alcotest.(check bool) "positive net time" true (m.Harness.Workload.net_time > 0)

let test_workload_share_split () =
  (* 2003 pairs over 3 processes: shares 668/668/667, all executed *)
  let m =
    Harness.Workload.run
      (module Squeues.Ms_queue)
      { small with processors = 3; total_pairs = 2_003 }
  in
  Alcotest.(check int) "odd totals fully distributed" 2_003
    m.Harness.Workload.pairs_done

let test_workload_multiprogramming_switches () =
  let m =
    Harness.Workload.run
      (module Squeues.Ms_queue)
      { small with processors = 2; multiprogramming = 2; quantum = 10_000 }
  in
  Alcotest.(check bool) "context switches occurred" true
    (m.Harness.Workload.stats.Sim.Stats.context_switches > 0)

let test_workload_deterministic () =
  let run () =
    (Harness.Workload.run (module Squeues.Ms_queue) { small with processors = 4 })
      .Harness.Workload.elapsed
  in
  Alcotest.(check int) "same seed, same elapsed" (run ()) (run ())

let test_workload_seed_sensitivity () =
  let run seed =
    (Harness.Workload.run
       (module Squeues.Ms_queue)
       { small with processors = 4; seed })
      .Harness.Workload.elapsed
  in
  Alcotest.(check bool) "different seeds differ" true (run 1L <> run 2L)

let test_workload_exhaustion_flag () =
  (* a valois run on a tiny bounded pool reports pool exhaustion through
     the measurement record rather than an exception *)
  let m =
    Harness.Workload.run
      (module Squeues.Valois_queue)
      {
        small with
        processors = 4;
        total_pairs = 4_000;
        pool = 8;
        bounded_pool = true;
      }
  in
  (* with 4 concurrent processes the queue holds up to ~4 items and the
     suffix-retention under preemption may or may not trigger at this
     scale; what must hold: the flags are consistent *)
  if m.Harness.Workload.exhausted_pool then
    Alcotest.(check bool) "exhausted implies incomplete" false
      m.Harness.Workload.completed
  else
    Alcotest.(check int) "no exhaustion implies all pairs" 4_000
      m.Harness.Workload.pairs_done

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry () =
  Alcotest.(check (list string)) "keys in figure order"
    [ "single-lock"; "mc"; "valois"; "two-lock"; "plj"; "ms" ]
    Harness.Registry.keys;
  let (module Q) = Harness.Registry.find "ms" in
  Alcotest.(check string) "lookup" "ms-nonblocking" Q.name;
  Alcotest.check_raises "unknown key"
    (Invalid_argument
       "unknown algorithm \"nope\" (available: single-lock, mc, valois, two-lock, \
        plj, ms, stone, stone-ring, hb, scq, fabric)")
    (fun () -> ignore (Harness.Registry.find "nope"));
  let (module B) =
    (Harness.Registry.find_native "scq").Harness.Registry.queue
  in
  Alcotest.(check string) "bounded lookup" "scq" B.name;
  Alcotest.(check (list string)) "bounded keys" [ "scq" ]
    (List.filter_map
       (fun (e : Harness.Registry.native_entry) ->
         if Option.is_none e.unbounded then Some e.key else None)
       Harness.Registry.native);
  (* an unbounded queue's BOUNDED view never fills *)
  let (module U) =
    (Harness.Registry.find_native "ms").Harness.Registry.queue
  in
  Alcotest.(check int) "unbounded view capacity" max_int
    (U.capacity (U.create ~capacity:4 ()))

(* ------------------------------------------------------------------ *)
(* Figures *)

let tiny_figure n =
  Harness.Experiment.figure ~procs:[ 1; 2; 4 ] ~base:small n

let test_figure_structure () =
  let fig = tiny_figure 3 in
  Alcotest.(check int) "six series" 6 (List.length fig.Harness.Experiment.series);
  List.iter
    (fun s ->
      Alcotest.(check int) "three points" 3 (List.length s.Harness.Experiment.points);
      Alcotest.(check int) "dedicated" 1 s.Harness.Experiment.mpl)
    fig.Harness.Experiment.series

let test_figure_mpl () =
  let fig4 = tiny_figure 4 and fig5 = tiny_figure 5 in
  List.iter
    (fun s -> Alcotest.(check int) "fig4 mpl" 2 s.Harness.Experiment.mpl)
    fig4.Harness.Experiment.series;
  List.iter
    (fun s -> Alcotest.(check int) "fig5 mpl" 3 s.Harness.Experiment.mpl)
    fig5.Harness.Experiment.series

let test_figure_invalid () =
  Alcotest.check_raises "figure 7 rejected"
    (Invalid_argument "Experiment.figure: the paper has figures 3, 4 and 5")
    (fun () -> ignore (tiny_figure 7))

let test_crossover_detection () =
  (* construct a figure from two synthetic series via sweep on the same
     algorithm but different params is overkill; instead check on a real
     tiny figure that crossover is None or a valid processor count *)
  let fig = tiny_figure 3 in
  match Harness.Experiment.crossover fig ~a:"two-lock" ~b:"single-lock" with
  | None -> ()
  | Some p -> Alcotest.(check bool) "valid processor" true (List.mem p [ 1; 2; 4 ])

let test_report_renders () =
  let fig = tiny_figure 3 in
  let table = Format.asprintf "%a" (Harness.Report.render Table) fig in
  Alcotest.(check bool) "table mentions every algorithm" true
    (List.for_all
       (fun { Harness.Registry.algo = (module Q); _ } ->
         let re = Str.regexp_string Q.name in
         (try ignore (Str.search_forward re table 0); true with Not_found -> false))
       Harness.Registry.all);
  let csv = Format.asprintf "%a" (Harness.Report.render Csv) fig in
  Alcotest.(check int) "csv rows = points + header" (1 + (6 * 3))
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* ------------------------------------------------------------------ *)
(* Paper-level claims at reduced scale *)

let net (module Q : Squeues.Intf.S) ~procs ~mpl =
  (Harness.Workload.run
     (module Q)
     { Harness.Params.default with total_pairs = 6_000; processors = procs; multiprogramming = mpl })
    .Harness.Workload.net_time

let test_claim_ms_beats_locks_dedicated () =
  let ms = net (module Squeues.Ms_queue) ~procs:8 ~mpl:1 in
  let sl = net (module Squeues.Single_lock_queue) ~procs:8 ~mpl:1 in
  let tl = net (module Squeues.Two_lock_queue) ~procs:8 ~mpl:1 in
  Alcotest.(check bool) "ms < single-lock at p=8" true (ms < sl);
  Alcotest.(check bool) "ms < two-lock at p=8" true (ms < tl)

let test_claim_ms_beats_everyone_multiprogrammed () =
  let ms = net (module Squeues.Ms_queue) ~procs:8 ~mpl:2 in
  List.iter
    (fun { Harness.Registry.key; algo } ->
      if key <> "ms" then
        let other = net algo ~procs:8 ~mpl:2 in
        if ms >= other then
          Alcotest.failf "ms (%d) not faster than %s (%d) at p=8 mpl=2" ms key other)
    Harness.Registry.all

let test_claim_locks_degrade_under_multiprogramming () =
  let sl1 = net (module Squeues.Single_lock_queue) ~procs:8 ~mpl:1 in
  let sl3 = net (module Squeues.Single_lock_queue) ~procs:8 ~mpl:3 in
  Alcotest.(check bool) "single lock degrades >2x with mpl=3" true (sl3 > 2 * sl1);
  let ms1 = net (module Squeues.Ms_queue) ~procs:8 ~mpl:1 in
  let ms3 = net (module Squeues.Ms_queue) ~procs:8 ~mpl:3 in
  Alcotest.(check bool) "ms degrades far less" true
    (float_of_int ms3 /. float_of_int ms1 < float_of_int sl3 /. float_of_int sl1)

let test_claim_valois_expensive_at_low_p () =
  let valois = net (module Squeues.Valois_queue) ~procs:1 ~mpl:1 in
  let ms = net (module Squeues.Ms_queue) ~procs:1 ~mpl:1 in
  Alcotest.(check bool) "valois >2x ms at p=1" true (valois > 2 * ms)

(* ------------------------------------------------------------------ *)
(* Memory experiment (paper s1) *)

let test_memory_valois_exhausts () =
  let r =
    Harness.Memory_experiment.run (module Squeues.Valois_queue) ~procs:8 ~pool:500
      ~pairs:20_000 ()
  in
  Alcotest.(check bool) "valois exhausts a bounded pool" true
    r.Harness.Memory_experiment.exhausted

let test_memory_ms_survives () =
  let r =
    Harness.Memory_experiment.run (module Squeues.Ms_queue) ~procs:8 ~pool:500
      ~pairs:20_000 ()
  in
  Alcotest.(check bool) "ms completes on the same pool" true
    r.Harness.Memory_experiment.completed;
  Alcotest.(check int) "every pair done" 20_000 r.Harness.Memory_experiment.pairs_done

let test_memory_two_lock_survives () =
  let r =
    Harness.Memory_experiment.run (module Squeues.Two_lock_queue) ~procs:8 ~pool:500
      ~pairs:20_000 ()
  in
  Alcotest.(check bool) "two-lock completes too" true
    r.Harness.Memory_experiment.completed

(* ------------------------------------------------------------------ *)
(* Liveness (paper s3.3) *)

let liveness algo =
  Harness.Liveness.run algo ~procs:4 ~pairs:2_000 ~trials:8 ()

let test_liveness_nonblocking () =
  List.iter
    (fun algo ->
      let r = liveness algo in
      if not (Harness.Liveness.non_blocking r) then
        Alcotest.failf "%s propagated a delay (%d/%d trials)"
          r.Harness.Liveness.algorithm r.Harness.Liveness.blocked_trials
          r.Harness.Liveness.trials)
    [
      (module Squeues.Ms_queue : Squeues.Intf.S);
      (module Squeues.Plj_queue);
      (module Squeues.Valois_queue);
    ]

let test_liveness_blocking () =
  List.iter
    (fun algo ->
      let r = liveness algo in
      if Harness.Liveness.non_blocking r then
        Alcotest.failf "%s unexpectedly immune to delays"
          r.Harness.Liveness.algorithm)
    [
      (module Squeues.Single_lock_queue : Squeues.Intf.S);
      (module Squeues.Two_lock_queue);
    ]

(* ------------------------------------------------------------------ *)
(* Lock ablation (MCS-paper shapes) and SPSC ablation *)

let test_lock_ablation_shapes () =
  let run kind mpl =
    (Harness.Lock_experiment.run kind ~processors:6 ~multiprogramming:mpl
       ~acquisitions_per_process:400 ())
      .Harness.Lock_experiment.cycles_per_acquisition
  in
  let ttas1 = run Harness.Lock_experiment.Ttas 1 in
  let mcs1 = run Harness.Lock_experiment.Mcs 1 in
  let ticket2 = run Harness.Lock_experiment.Ticket 2 in
  let ttas2 = run Harness.Lock_experiment.Ttas 2 in
  Alcotest.(check bool) "MCS beats TTAS dedicated (local spinning)" true (mcs1 < ttas1);
  Alcotest.(check bool) "ticket collapses under multiprogramming vs TTAS" true
    (ticket2 > 2. *. ttas2)

let test_lock_no_lost_updates () =
  (* Lock_experiment itself fails if any lock loses an update; run all *)
  List.iter
    (fun kind ->
      let m =
        Harness.Lock_experiment.run kind ~processors:4 ~acquisitions_per_process:200 ()
      in
      Alcotest.(check bool)
        (Harness.Lock_experiment.kind_name kind ^ " completed")
        true m.Harness.Lock_experiment.completed)
    Harness.Lock_experiment.kinds

let test_producer_consumer_favours_two_lock () =
  (* disjoint producer/consumer populations are the two-lock queue's
     design point: head and tail locks never contend with each other *)
  let run algo = (Harness.Workload_variants.producer_consumer algo ~items:8_000 ()) in
  let tl = run (module Squeues.Two_lock_queue) in
  let sl = run (module Squeues.Single_lock_queue) in
  Alcotest.(check bool) "both complete" true
    (tl.Harness.Workload_variants.completed && sl.Harness.Workload_variants.completed);
  Alcotest.(check bool) "two-lock clearly beats single-lock" true
    (tl.Harness.Workload_variants.cycles_per_op
    < 0.8 *. sl.Harness.Workload_variants.cycles_per_op)

let test_burst_completes_all () =
  List.iter
    (fun { Harness.Registry.algo; _ } ->
      let m = Harness.Workload_variants.burst algo ~bursts:10 () in
      Alcotest.(check bool)
        (m.Harness.Workload_variants.algorithm ^ " burst completes")
        true m.Harness.Workload_variants.completed)
    Harness.Registry.all

let test_spsc_ablation () =
  let lam = Harness.Spsc_experiment.run_lamport ~items:5_000 () in
  let ms = Harness.Spsc_experiment.run_ms ~items:5_000 () in
  Alcotest.(check bool) "both complete" true
    (lam.Harness.Spsc_experiment.completed && ms.Harness.Spsc_experiment.completed);
  Alcotest.(check bool) "wait-free ring beats the general queue" true
    (lam.Harness.Spsc_experiment.cycles_per_item
    < ms.Harness.Spsc_experiment.cycles_per_item)

(* ------------------------------------------------------------------ *)
(* Cycle attribution: cache-line heatmaps through the workload *)

(* The acceptance gate for the heatmap subsystem: for the MS queue at
   p >= 2, the Head and Tail lines must outrank every node line (the
   paper's §4 contention story — the shared pointers ping-pong, the
   nodes mostly pass through), and the per-line counts must sum to the
   aggregate cache statistics accumulated over the same window. *)
let heatmap_run ?(procs = 4) key =
  Harness.Workload.run ~heatmap:true (Harness.Registry.find key)
    {
      Harness.Params.default with
      processors = procs;
      total_pairs = 2_000;
      seed = 99L;
    }

let line_cycles label (m : Harness.Workload.measurement) =
  List.find_map
    (fun (l : Sim.Cache.line_report) ->
      if l.Sim.Cache.label = Some label then Some l.Sim.Cache.cycles else None)
    m.Harness.Workload.heatmap
  |> Option.get

let test_heatmap_msq_ranking () =
  let m = heatmap_run "ms" in
  let head = line_cycles "Head" m and tail = line_cycles "Tail" m in
  List.iter
    (fun (l : Sim.Cache.line_report) ->
      match l.Sim.Cache.label with
      | Some lbl when String.length lbl >= 4 && String.sub lbl 0 4 = "node" ->
          Alcotest.(check bool)
            (Printf.sprintf "Tail outranks %s" lbl)
            true (tail > l.Sim.Cache.cycles);
          Alcotest.(check bool)
            (Printf.sprintf "Head outranks %s" lbl)
            true (head > l.Sim.Cache.cycles)
      | _ -> ())
    m.Harness.Workload.heatmap;
  (* and the report is sorted hottest-first *)
  ignore
    (List.fold_left
       (fun prev (l : Sim.Cache.line_report) ->
         Alcotest.(check bool) "sorted by cycles desc" true
           (l.Sim.Cache.cycles <= prev);
         l.Sim.Cache.cycles)
       max_int m.Harness.Workload.heatmap)

let test_heatmap_consistency () =
  List.iter
    (fun key ->
      let m = heatmap_run key in
      let sum f =
        List.fold_left
          (fun acc l -> acc + f l)
          0 m.Harness.Workload.heatmap
      in
      Alcotest.(check int)
        (key ^ ": per-line invalidations sum to the aggregate")
        m.Harness.Workload.stats.Sim.Stats.invalidations
        (sum (fun l -> l.Sim.Cache.invalidations));
      Alcotest.(check int)
        (key ^ ": per-line misses sum to the aggregate")
        m.Harness.Workload.stats.Sim.Stats.cache_misses
        (sum (fun l -> l.Sim.Cache.misses));
      Alcotest.(check int)
        (key ^ ": per-line hits sum to the aggregate")
        m.Harness.Workload.stats.Sim.Stats.cache_hits
        (sum (fun l -> l.Sim.Cache.hits)))
    [ "ms"; "two-lock"; "single-lock" ]

let test_heatmap_deterministic () =
  let report (m : Harness.Workload.measurement) =
    List.map
      (fun (l : Sim.Cache.line_report) ->
        (l.Sim.Cache.line, l.Sim.Cache.label, l.Sim.Cache.cycles))
      m.Harness.Workload.heatmap
  in
  Alcotest.(check bool) "same seed, same heatmap" true
    (report (heatmap_run "ms") = report (heatmap_run "ms"))

let test_heatmap_off_by_default () =
  let m =
    Harness.Workload.run (Harness.Registry.find "ms")
      { Harness.Params.default with processors = 2; total_pairs = 500 }
  in
  Alcotest.(check int) "no heatmap unless requested" 0
    (List.length m.Harness.Workload.heatmap)

(* ------------------------------------------------------------------ *)
(* Bench_compare: the bench-diff / bench-summary core *)

let bench_doc ?(schema = 8) ?(pairs = 2_000) ?(net = 100.) ?(pps = 1e6) () =
  Printf.sprintf
    {|{"schema_version": %d, "pairs": %d, "smoke": true,
       "figures": [
         {"figure": 3, "series": [
           {"algorithm": "ms-nonblocking", "mpl": 1, "points": [
             {"processors": 1, "net_per_pair": %f, "completed": true},
             {"processors": 4, "net_per_pair": %f, "completed": true},
             {"processors": 8, "net_per_pair": 50.0, "completed": false}]}]}],
       "native": [{"name": "ms-nonblocking", "pairs_per_second": %f}]}|}
    schema pairs net (2. *. net) pps

let load s =
  match Harness.Bench_compare.of_string s with
  | Ok d -> d
  | Error e -> Alcotest.failf "unexpected parse failure: %s" e

let test_bench_compare_parse () =
  let d = load (bench_doc ()) in
  Alcotest.(check int) "schema" 8 d.Harness.Bench_compare.schema_version;
  (* the incomplete p=8 point is excluded from the gated metrics *)
  Alcotest.(check int) "two completed sim points" 2
    (List.length d.Harness.Bench_compare.sim);
  Alcotest.(check int) "one native point" 1
    (List.length d.Harness.Bench_compare.native);
  Alcotest.(check (list (pair string (float 0.))))
    "no memory section -> no memory points" [] d.Harness.Bench_compare.memory;
  (* only the committed baseline's schema is ever compared *)
  List.iter
    (fun v ->
      match Harness.Bench_compare.of_string (bench_doc ~schema:v ()) with
      | Ok _ -> Alcotest.failf "schema %d accepted" v
      | Error _ -> ())
    [ 2; 7; 9 ];
  match Harness.Bench_compare.of_string "{not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_bench_compare_gate () =
  let old_doc = load (bench_doc ()) in
  (* identical -> ok *)
  let same =
    Harness.Bench_compare.diff ~max_regress:10. ~old_doc ~new_doc:old_doc ()
  in
  Alcotest.(check bool) "identical ok" true (Harness.Bench_compare.ok same);
  (* +50% net_per_pair (higher = worse) -> regression *)
  let worse = load (bench_doc ~net:150. ()) in
  let c =
    Harness.Bench_compare.diff ~max_regress:10. ~old_doc ~new_doc:worse ()
  in
  Alcotest.(check bool) "regression fails the gate" false
    (Harness.Bench_compare.ok c);
  Alcotest.(check int) "both completed points regress" 2
    (List.length (Harness.Bench_compare.regressions c));
  (* improvement (lower net) -> ok *)
  let better = load (bench_doc ~net:50. ()) in
  Alcotest.(check bool) "improvement passes" true
    (Harness.Bench_compare.ok
       (Harness.Bench_compare.diff ~max_regress:10. ~old_doc ~new_doc:better ()));
  (* native throughput collapse: informational by default, gated on demand *)
  let slow_native = load (bench_doc ~pps:1e5 ()) in
  Alcotest.(check bool) "native not gated by default" true
    (Harness.Bench_compare.ok
       (Harness.Bench_compare.diff ~max_regress:10. ~old_doc
          ~new_doc:slow_native ()));
  Alcotest.(check bool) "native gated with --gate-native" false
    (Harness.Bench_compare.ok
       (Harness.Bench_compare.diff ~max_regress:10. ~gate_native:true ~old_doc
          ~new_doc:slow_native ()))

let test_bench_compare_scale_mismatch () =
  let old_doc = load (bench_doc ()) in
  (* different scale: deltas shown, nothing gates *)
  let rescaled = load (bench_doc ~pairs:4_000 ~net:500. ()) in
  let c =
    Harness.Bench_compare.diff ~max_regress:10. ~old_doc ~new_doc:rescaled ()
  in
  Alcotest.(check bool) "not comparable" false c.Harness.Bench_compare.comparable;
  Alcotest.(check bool) "scale mismatch never gates" true
    (Harness.Bench_compare.ok c)

let test_bench_compare_missing_gates () =
  let old_doc = load (bench_doc ()) in
  let gone =
    load
      {|{"schema_version": 8, "pairs": 2000, "smoke": true,
         "figures": [], "native": []}|}
  in
  let c = Harness.Bench_compare.diff ~old_doc ~new_doc:gone () in
  Alcotest.(check int) "old points reported missing" 2
    (List.length c.Harness.Bench_compare.missing);
  Alcotest.(check bool) "missing points fail the gate" false
    (Harness.Bench_compare.ok c)

let test_bench_summary_markdown () =
  let doc =
    load
      {|{"schema_version": 8, "pairs": 2000, "smoke": false,
         "figures": [],
         "native": [{"name": "ms-nonblocking", "pairs_per_second": 123456.0}],
         "profile": {"sim_heatmaps": [
           {"queue": "ms", "processors": 8, "lines": [
             {"line": 3, "label": "Tail", "cycles": 999, "misses": 7,
              "invalidations": 5},
             {"line": 2, "label": "Head", "cycles": 500, "misses": 3,
              "invalidations": 2}]}]}}|}
  in
  let md =
    Format.asprintf "%a"
      (fun fmt d -> Harness.Bench_compare.markdown_summary fmt d)
      doc
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary contains %S" needle)
        true
        (Str.string_match
           (Str.regexp (".*" ^ Str.quote needle ^ ".*"))
           (Str.global_replace (Str.regexp "\n") " " md)
           0))
    [
      "| ms-nonblocking | 123456 |";
      "| ms (p=8) | Tail | 999 | 7 | 5 |";
      "Hottest cache lines";
    ]

let memory_bench_doc ~bpe =
  Printf.sprintf
    {|{"schema_version": 8, "pairs": 2000, "smoke": true,
       "figures": [],
       "native": [{"name": "scq", "pairs_per_second": 1e6}],
       "memory": {"native": [
         {"queue": "scq", "elements": 1024, "baseline_bytes": 100000,
          "footprint_bytes": 116000, "bytes_per_element": %f,
          "steady_words_per_pair": 0.5}]}}|}
    bpe

let test_bench_compare_memory_informational () =
  let old_doc = load (memory_bench_doc ~bpe:16.0) in
  Alcotest.(check (list (pair string (float 0.0001))))
    "memory points parsed"
    [ ("scq", 16.0) ]
    old_doc.Harness.Bench_compare.memory;
  (* bytes/element tripling is reported but never fails the gate *)
  let worse = load (memory_bench_doc ~bpe:48.0) in
  let c = Harness.Bench_compare.diff ~max_regress:10. ~old_doc ~new_doc:worse () in
  (match c.Harness.Bench_compare.memory_deltas with
  | [ d ] ->
      Alcotest.(check string) "delta key" "scq" d.Harness.Bench_compare.key;
      Alcotest.(check bool) "delta visible" true
        (d.Harness.Bench_compare.worse_pct > 100.);
      Alcotest.(check bool) "delta never regresses" false
        d.Harness.Bench_compare.regressed
  | l -> Alcotest.failf "expected 1 memory delta, got %d" (List.length l));
  Alcotest.(check bool) "memory drift passes the gate" true
    (Harness.Bench_compare.ok c);
  (* and the step summary renders the footprint table *)
  let md =
    Format.asprintf "%a"
      (fun fmt d -> Harness.Bench_compare.markdown_summary fmt d)
      old_doc
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary contains %S" needle)
        true
        (Str.string_match
           (Str.regexp (".*" ^ Str.quote needle ^ ".*"))
           (Str.global_replace (Str.regexp "\n") " " md)
           0))
    [ "Memory footprint"; "| scq | 16.0 | 0.5 |" ]

(* ------------------------------------------------------------------ *)
(* Live-memory measurements (Memory_experiment footprint/lag) *)

(* the ISSUE acceptance bound: SCQ's full-ring live footprint stays
   within 2x its empty footprint — there is no per-element allocation,
   only the slot array bought at create.  (The mli points here.) *)
let test_scq_footprint_within_2x () =
  let f =
    Harness.Memory_experiment.footprint
      (module Core.Scq_queue)
      ~elements:1024 ()
  in
  let open Harness.Memory_experiment in
  Alcotest.(check int) "filled to capacity" 1024 f.elements;
  Alcotest.(check bool)
    (Printf.sprintf "full %dB within 2x empty %dB" f.footprint_bytes
       f.baseline_bytes)
    true
    (f.footprint_bytes <= 2 * f.baseline_bytes);
  (* churn on a full ring must not allocate nodes: well under a word
     per pair (boxing noise aside) *)
  Alcotest.(check bool)
    (Printf.sprintf "steady churn %.2f words/pair is node-free"
       f.steady_words_per_pair)
    true
    (f.steady_words_per_pair < 4.)

let test_unbounded_footprint_sane () =
  let f =
    Harness.Memory_experiment.footprint
      (module Core.Queue_intf.Unbounded (Core.Ms_queue))
      ~elements:512 ()
  in
  let open Harness.Memory_experiment in
  Alcotest.(check int) "elements recorded" 512 f.elements;
  (* a linked queue pays at least a 3-word node (header, value, next)
     per resident element, and footprint grows monotonically *)
  Alcotest.(check bool)
    (Printf.sprintf "%.1f B/element >= 3 words" f.bytes_per_element)
    true
    (f.bytes_per_element >= float_of_int (3 * (Sys.word_size / 8)));
  Alcotest.(check bool) "full costs more than empty" true
    (f.footprint_bytes > f.baseline_bytes)

let test_sim_reclamation_contrast () =
  (* the s1 exhaustion experiment, quantitatively: a stalled Valois
     victim pins nodes and overflows the free list; MS keeps recycling
     and never touches the heap *)
  let ms =
    Harness.Memory_experiment.sim_reclamation_lag
      (module Squeues.Ms_queue)
      ~pairs:4_000 ()
  in
  let valois =
    Harness.Memory_experiment.sim_reclamation_lag
      (module Squeues.Valois_queue)
      ~pairs:4_000 ()
  in
  let open Harness.Memory_experiment in
  Alcotest.(check int) "ms never falls past the free list" 0 ms.heap_allocs;
  Alcotest.(check bool)
    (Printf.sprintf "valois lags (%d heap fallbacks)" valois.heap_allocs)
    true
    (valois.heap_allocs > 100)

let test_hp_reclamation_bounded () =
  let r = Harness.Memory_experiment.hp_reclamation_lag ~ops:4_000 () in
  let open Harness.Memory_experiment in
  Alcotest.(check bool) "chaos injected delays" true (r.delays > 0);
  (* HP caps the retired list at scan threshold + in-flight hazards:
     the lag never grows with the op count *)
  Alcotest.(check bool)
    (Printf.sprintf "max %d retired-unreclaimed stays bounded" r.max_pending)
    true
    (r.max_pending > 0 && r.max_pending < 256)

let suites =
  [
    ( "harness.workload",
      [
        Alcotest.test_case "completes" `Quick test_workload_completes;
        Alcotest.test_case "share split" `Quick test_workload_share_split;
        Alcotest.test_case "multiprogramming switches" `Quick
          test_workload_multiprogramming_switches;
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_workload_seed_sensitivity;
        Alcotest.test_case "exhaustion flag" `Quick test_workload_exhaustion_flag;
      ] );
    ("harness.registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
    ( "harness.figures",
      [
        Alcotest.test_case "structure" `Slow test_figure_structure;
        Alcotest.test_case "mpl per figure" `Slow test_figure_mpl;
        Alcotest.test_case "invalid figure" `Quick test_figure_invalid;
        Alcotest.test_case "crossover detection" `Slow test_crossover_detection;
        Alcotest.test_case "report renders" `Slow test_report_renders;
      ] );
    ( "harness.claims",
      [
        Alcotest.test_case "ms beats locks dedicated" `Slow
          test_claim_ms_beats_locks_dedicated;
        Alcotest.test_case "ms beats everyone multiprogrammed" `Slow
          test_claim_ms_beats_everyone_multiprogrammed;
        Alcotest.test_case "locks degrade under multiprogramming" `Slow
          test_claim_locks_degrade_under_multiprogramming;
        Alcotest.test_case "valois expensive at low p" `Slow
          test_claim_valois_expensive_at_low_p;
      ] );
    ( "harness.memory",
      [
        Alcotest.test_case "valois exhausts" `Quick test_memory_valois_exhausts;
        Alcotest.test_case "ms survives" `Quick test_memory_ms_survives;
        Alcotest.test_case "two-lock survives" `Quick test_memory_two_lock_survives;
      ] );
    ( "harness.ablations",
      [
        Alcotest.test_case "lock shapes" `Slow test_lock_ablation_shapes;
        Alcotest.test_case "locks keep exclusion" `Quick test_lock_no_lost_updates;
        Alcotest.test_case "spsc gap" `Quick test_spsc_ablation;
        Alcotest.test_case "producer/consumer favours two-lock" `Slow
          test_producer_consumer_favours_two_lock;
        Alcotest.test_case "bursts complete" `Slow test_burst_completes_all;
      ] );
    ( "harness.liveness",
      [
        Alcotest.test_case "non-blocking algorithms" `Slow test_liveness_nonblocking;
        Alcotest.test_case "blocking algorithms" `Slow test_liveness_blocking;
      ] );
    ( "harness.heatmap",
      [
        Alcotest.test_case "msq Head/Tail outrank nodes" `Quick
          test_heatmap_msq_ranking;
        Alcotest.test_case "per-line sums match aggregates" `Quick
          test_heatmap_consistency;
        Alcotest.test_case "deterministic per seed" `Quick
          test_heatmap_deterministic;
        Alcotest.test_case "off by default" `Quick test_heatmap_off_by_default;
      ] );
    ( "harness.bench_compare",
      [
        Alcotest.test_case "parse and schema range" `Quick
          test_bench_compare_parse;
        Alcotest.test_case "regression gate" `Quick test_bench_compare_gate;
        Alcotest.test_case "scale mismatch never gates" `Quick
          test_bench_compare_scale_mismatch;
        Alcotest.test_case "missing points gate" `Quick
          test_bench_compare_missing_gates;
        Alcotest.test_case "markdown summary" `Quick test_bench_summary_markdown;
        Alcotest.test_case "memory section informational" `Quick
          test_bench_compare_memory_informational;
      ] );
    ( "harness.live_memory",
      [
        Alcotest.test_case "scq footprint within 2x" `Quick
          test_scq_footprint_within_2x;
        Alcotest.test_case "ms footprint sane" `Quick test_unbounded_footprint_sane;
        Alcotest.test_case "sim reclamation contrast" `Quick
          test_sim_reclamation_contrast;
        Alcotest.test_case "hp reclamation bounded" `Slow
          test_hp_reclamation_bounded;
      ] );
  ]
