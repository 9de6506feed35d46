(* The sharded fabric (lib/fabric) and its open-loop driver
   (Harness.Open_loop): elastic overflow, backpressure bounds,
   per-key FIFO, producer batching, chaos-wrapped conservation, the
   deterministic arrival schedule, and the schema-7 fabric sections of
   Bench_compare. *)

module F = Fabric.Queue_fabric
module R = Resilience.Resilient

(* A fabric whose refusals are immediate and whose breaker never
   trips: the deterministic shape for unit-testing backpressure. *)
let strict kind ~shards ~capacity =
  F.create
    ~config:
      {
        F.default_config with
        shards;
        shard_capacity = capacity;
        kind;
        resilience =
          { R.default with R.policy = R.Fail_fast; breaker_threshold = 0 };
      }
    ()

let drain_all fab =
  let rec go acc =
    match F.drain_one fab with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Elastic: the queue-of-queues overflow chain *)

let test_elastic_grow_drain () =
  let q = F.Elastic.create ~ring_capacity:4 () in
  Alcotest.(check bool) "fresh empty" true (F.Elastic.is_empty q);
  let n = 50 in
  for v = 1 to n do
    F.Elastic.enqueue q v
  done;
  Alcotest.(check int) "length" n (F.Elastic.length q);
  Alcotest.(check bool) "overflow grew the chain" true (F.Elastic.rings q > 1);
  let got = List.init n (fun _ -> Option.get (F.Elastic.dequeue q)) in
  Alcotest.(check (list int)) "FIFO across rings" (List.init n (fun i -> i + 1))
    got;
  Alcotest.(check (option int)) "empty after drain" None (F.Elastic.dequeue q);
  Alcotest.(check bool) "drained rings retired" true (F.Elastic.rings q <= 2)

let test_elastic_two_domain () =
  let q = F.Elastic.create ~ring_capacity:8 () in
  let n = 2_000 in
  let producer =
    Domain.spawn (fun () ->
        for v = 1 to n do
          F.Elastic.enqueue q v
        done)
  in
  let got = ref 0 and last = ref 0 and ordered = ref true in
  while !got < n do
    match F.Elastic.dequeue q with
    | Some v ->
        if v <= !last then ordered := false;
        last := v;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "single-producer FIFO under growth" true !ordered;
  Alcotest.(check bool) "empty at quiescence" true (F.Elastic.is_empty q)

(* ------------------------------------------------------------------ *)
(* Bounded shards: conservation including refusals, length bounds *)

let test_bounded_conservation () =
  let cap = 16 and shards = 2 in
  let fab = strict F.Bounded ~shards ~capacity:cap in
  let accepted = ref [] and refused = ref 0 in
  for v = 1 to 200 do
    match F.try_enqueue ~key:(v mod 3) fab v with
    | Ok () -> accepted := v :: !accepted
    | Error _ -> incr refused
  done;
  let accepted = List.rev !accepted in
  Alcotest.(check bool) "overload refused something" true (!refused > 0);
  Alcotest.(check int) "length = accepted" (List.length accepted)
    (F.length fab);
  (* capacity is rounded per shard, but the fabric total is bounded *)
  Alcotest.(check bool) "length within shards x capacity" true
    (F.length fab <= shards * cap);
  let drained = drain_all fab in
  Alcotest.(check int) "conservation: drained = accepted"
    (List.length accepted) (List.length drained);
  Alcotest.(check (list int)) "same multiset (sorted)"
    (List.sort compare accepted)
    (List.sort compare drained);
  Alcotest.(check int) "empty after drain" 0 (F.length fab);
  Alcotest.(check bool) "refusals visible in outcomes" true
    ((F.outcomes fab).R.rejections > 0)

let test_backpressure_bounds_concurrent () =
  let cap = 8 and shards = 4 in
  let fab = strict F.Bounded ~shards ~capacity:cap in
  let refused = Atomic.make 0 and accepted = Atomic.make 0 in
  let producers =
    List.init 3 (fun p ->
        Domain.spawn (fun () ->
            for v = 1 to 500 do
              match F.try_enqueue ~key:p fab ((p * 1_000) + v) with
              | Ok () -> Atomic.incr accepted
              | Error _ -> Atomic.incr refused
            done))
  in
  List.iter Domain.join producers;
  Alcotest.(check bool) "refusals under overload" true (Atomic.get refused > 0);
  Alcotest.(check bool) "length never exceeds the fabric bound" true
    (F.length fab <= shards * cap);
  let drained = List.length (drain_all fab) in
  Alcotest.(check int) "conservation under concurrency"
    (Atomic.get accepted) drained

(* ------------------------------------------------------------------ *)
(* Per-key FIFO across concurrent producers *)

let test_per_key_fifo () =
  let fab = strict F.Segmented ~shards:4 ~capacity:64 in
  let n = 1_500 in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for v = 1 to n do
              match F.try_enqueue ~key:p fab ((p * 1_000_000) + v) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "segmented shard refused"
            done))
  in
  let seen = [| 0; 0 |] and ok = ref true and got = ref 0 in
  while !got < 2 * n do
    match F.try_dequeue fab with
    | Ok v ->
        let p = v / 1_000_000 and x = v mod 1_000_000 in
        if x <= seen.(p) then ok := false;
        seen.(p) <- x;
        incr got
    | Error _ -> Domain.cpu_relax ()
  done;
  List.iter Domain.join producers;
  Alcotest.(check bool) "per-key order preserved" true !ok;
  Alcotest.(check int) "all values seen" n seen.(0);
  Alcotest.(check int) "all values seen (key 1)" n seen.(1)

(* ------------------------------------------------------------------ *)
(* Batch path and the Producer handle *)

let test_batch_and_producer () =
  let fab = strict F.Segmented ~shards:2 ~capacity:64 in
  Alcotest.(check (list int)) "segmented batch accepted" []
    (F.enqueue_batch ~key:7 fab [ 1; 2; 3; 4 ]);
  let h = F.Producer.create ~key:7 ~batch:3 fab in
  Alcotest.(check (list int)) "push buffers" [] (F.Producer.push h 5);
  Alcotest.(check (list int)) "push buffers" [] (F.Producer.push h 6);
  Alcotest.(check int) "pending" 2 (F.Producer.pending h);
  Alcotest.(check (list int)) "threshold flush" [] (F.Producer.push h 7);
  Alcotest.(check int) "flushed" 0 (F.Producer.pending h);
  Alcotest.(check (list int)) "explicit flush of nothing" []
    (F.Producer.flush h);
  (* one key -> one shard -> FIFO across both enqueue paths *)
  Alcotest.(check (list int)) "batch + handle FIFO" [ 1; 2; 3; 4; 5; 6; 7 ]
    (drain_all fab);
  let batched = F.dequeue_batch fab ~max:4 in
  Alcotest.(check (list int)) "batch dequeue of empty" [] batched

(* ------------------------------------------------------------------ *)
(* Chaos-wrapped conservation through the registry adapter *)

let test_chaos_conservation () =
  let (module Q) =
    Option.get (Harness.Registry.find_native "fabric").Harness.Registry.unbounded
  in
  let module C = Obs.Chaos.Make (Q) in
  Obs.Chaos.with_enabled (fun () ->
      let q = C.create () in
      let n = 400 in
      let producer =
        Domain.spawn (fun () ->
            for v = 1 to n do
              C.enqueue q v
            done)
      in
      let got = ref 0 and last = ref 0 and ordered = ref true in
      while !got < n do
        match C.dequeue q with
        | Some v ->
            if v <= !last then ordered := false;
            last := v;
            incr got
        | None -> Domain.cpu_relax ()
      done;
      Domain.join producer;
      Alcotest.(check bool) "per-producer FIFO under chaos" true !ordered;
      Alcotest.(check (option int)) "empty at quiescence" None (C.dequeue q))

(* ------------------------------------------------------------------ *)
(* Open_loop: the deterministic schedule core *)

let test_schedule_determinism () =
  let cfg =
    {
      Harness.Open_loop.default with
      seed = 42L;
      arrivals = 1_000;
      producers = 3;
      key_skew = 1.1;
      keys = 16;
    }
  in
  let s1 = Harness.Open_loop.schedule cfg in
  let s2 = Harness.Open_loop.schedule cfg in
  Alcotest.(check bool) "same config, same schedule" true (s1 = s2);
  Alcotest.(check int) "one row per producer" 3 (Array.length s1);
  Alcotest.(check int) "arrivals split across producers" 1_000
    (Array.fold_left (fun a r -> a + Array.length r) 0 s1);
  Array.iter
    (fun row ->
      let mono = ref true in
      Array.iteri (fun i t -> if i > 0 && t < row.(i - 1) then mono := false) row;
      Alcotest.(check bool) "offsets nondecreasing" true !mono)
    s1;
  let s3 =
    Harness.Open_loop.schedule { cfg with Harness.Open_loop.seed = 43L }
  in
  Alcotest.(check bool) "different seed, different schedule" false (s1 = s3);
  let k1 = Harness.Open_loop.keys_for cfg 0 in
  Alcotest.(check bool) "keys drawn per arrival" true (Array.length k1 > 0);
  Array.iter
    (fun k ->
      Alcotest.(check bool) "key in universe" true (k >= 0 && k < 16))
    k1;
  Alcotest.(check bool) "keys deterministic" true
    (k1 = Harness.Open_loop.keys_for cfg 0);
  Alcotest.(check int) "unkeyed config draws no keys" 0
    (Array.length
       (Harness.Open_loop.keys_for
          { cfg with Harness.Open_loop.key_skew = 0. }
          0))

let test_schedule_burst_stretch () =
  let cfg = { Harness.Open_loop.default with seed = 7L; arrivals = 400 } in
  let plain = Harness.Open_loop.schedule cfg in
  let bursty =
    Harness.Open_loop.schedule
      {
        cfg with
        Harness.Open_loop.burst =
          Some { Harness.Open_loop.on_ns = 1_000_000; off_ns = 4_000_000 };
      }
  in
  let last a = a.(Array.length a - 1) in
  (* off phases only push arrivals later, never earlier *)
  Alcotest.(check bool) "burst stretches the horizon" true
    (last bursty.(0) >= last plain.(0))

let test_open_loop_run_conservation () =
  let fab = F.create ~config:{ F.default_config with shards = 2 } () in
  let r =
    Harness.Open_loop.run
      ~config:
        {
          Harness.Open_loop.default with
          seed = 5L;
          rate = 200_000.;
          arrivals = 300;
          producers = 2;
          consumers = 1;
        }
      fab
  in
  let open Harness.Open_loop in
  Alcotest.(check int) "every arrival accounted for" 300
    (r.enqueued + r.refused);
  Alcotest.(check int) "conservation: dequeued = enqueued" r.enqueued
    r.dequeued;
  Alcotest.(check bool) "sojourns recorded" true
    (Obs.Histogram.p999 r.sojourn <> None);
  let p50, p99, p999 = percentiles r.sojourn in
  Alcotest.(check bool) "percentiles monotone" true (p50 <= p99 && p99 <= p999);
  match result_json r with
  | Obs.Json.Assoc kvs ->
      Alcotest.(check bool) "json carries the tail" true
        (List.mem_assoc "sojourn_p999_ns" kvs)
  | _ -> Alcotest.fail "result_json not an object"

(* ------------------------------------------------------------------ *)
(* Bench_compare: the schema-7 fabric section *)

let fabric_doc ?(net8 = 50.) ?(p999 = 1_000_000) ?(slo_ok = true) () =
  Printf.sprintf
    {|{"schema_version": 8, "pairs": 2000, "smoke": true,
       "figures": [
         {"figure": 3, "series": [
           {"algorithm": "ms-nonblocking", "mpl": 1, "points": [
             {"processors": 4, "net_per_pair": 100.0, "completed": true}]}]}],
       "native": [{"name": "ms-nonblocking", "pairs_per_second": 1e6}],
       "fabric": {
         "sim_scaling": [
           {"shards": 1, "processors": 8, "pairs": 2000,
            "net_per_pair": 300.0, "completed": true},
           {"shards": 8, "processors": 8, "pairs": 2000,
            "net_per_pair": %f, "completed": true}],
         "heatmap_disjoint": true,
         "open_loop": [
           {"load_label": "50k", "offered_per_sec": 50000.0,
            "sojourn_p999_ns": %d, "slo_p999_ns": 500000000,
            "slo_ok": %b}]}}|}
    net8 p999 slo_ok

let load s =
  match Harness.Bench_compare.of_string s with
  | Ok d -> d
  | Error e -> Alcotest.failf "unexpected parse failure: %s" e

let test_bench_fabric_parse () =
  let d = load (fabric_doc ()) in
  let module B = Harness.Bench_compare in
  Alcotest.(check bool) "fabric sim points fold into sim" true
    (List.mem_assoc "fabric/sim/p8/sh8" d.B.sim);
  Alcotest.(check bool) "p999 point extracted" true
    (List.mem_assoc "fabric/50k" d.B.p999);
  Alcotest.(check (list string)) "no slo failures when ok" [] d.B.slo_failures;
  let bad = load (fabric_doc ~slo_ok:false ()) in
  Alcotest.(check (list string)) "failed verdict surfaces" [ "fabric/50k" ]
    bad.B.slo_failures

let test_bench_fabric_gates () =
  let module B = Harness.Bench_compare in
  let old_doc = load (fabric_doc ()) in
  Alcotest.(check bool) "identical ok" true
    (B.ok (B.diff ~old_doc ~new_doc:old_doc ()));
  (* the sharded sim point regressing gates like any sim point *)
  Alcotest.(check bool) "fabric sim regression gates" false
    (B.ok (B.diff ~old_doc ~new_doc:(load (fabric_doc ~net8:80. ())) ()));
  (* p999 collapse past the wide gate fails; jitter inside it passes *)
  Alcotest.(check bool) "p999 within 400% passes" true
    (B.ok (B.diff ~old_doc ~new_doc:(load (fabric_doc ~p999:3_000_000 ())) ()));
  Alcotest.(check bool) "p999 collapse gates" false
    (B.ok
       (B.diff ~old_doc ~new_doc:(load (fabric_doc ~p999:100_000_000 ())) ()));
  Alcotest.(check bool) "p999 gate widens on demand" true
    (B.ok
       (B.diff ~max_p999_regress:100_000. ~old_doc
          ~new_doc:(load (fabric_doc ~p999:100_000_000 ()))
          ()));
  (* a failed SLO verdict in NEW is absolute: no baseline needed *)
  Alcotest.(check bool) "slo failure gates absolutely" false
    (B.ok (B.diff ~old_doc ~new_doc:(load (fabric_doc ~slo_ok:false ())) ()))

(* ------------------------------------------------------------------ *)
(* Simulated fabric: scaling and the disjoint-writer verdict *)

let test_sim_scaling_and_disjoint () =
  let f =
    Harness.Gate.fabric ~shards:8 ~native_shards:8 ~pairs:800 ~arrivals:0 []
  in
  Alcotest.(check bool) "both complete" true
    Harness.Workload.(f.single.completed && f.sharded.completed);
  let verdict name =
    List.exists
      (fun (v : Harness.Verdict.t) -> v.name = name && v.ok)
      (Harness.Gate.fabric_verdicts f)
  in
  Alcotest.(check bool) "8 shards at least 3x cheaper per pair" true
    (verdict "sim-scaling>=3x");
  Alcotest.(check bool) "writers disjoint at 8 shards" true
    (verdict "writers-disjoint")

let test_writers_disjoint_detects_overlap () =
  let line ~label ~writers =
    {
      Sim.Cache.line = 0;
      label = Some label;
      hits = 0;
      misses = 0;
      invalidations = 0;
      cycles = 0;
      sharer_joins = 0;
      reads = 0;
      writes = List.length writers;
      top_reader = None;
      top_writer = None;
      readers = [];
      writers;
    }
  in
  Alcotest.(check bool) "disjoint writers pass" true
    (Squeues.Fabric_queue.writers_disjoint
       [
         line ~label:"fabric.s0.aq.Head" ~writers:[ 0; 2 ];
         line ~label:"fabric.s1.aq.Head" ~writers:[ 1; 3 ];
       ]);
  Alcotest.(check bool) "overlapping writer caught" false
    (Squeues.Fabric_queue.writers_disjoint
       [
         line ~label:"fabric.s0.aq.Head" ~writers:[ 0 ];
         line ~label:"fabric.s1.aq.Head" ~writers:[ 0 ];
       ]);
  Alcotest.(check bool) "unlabeled lines ignored" true
    (Squeues.Fabric_queue.writers_disjoint
       [ line ~label:"Head" ~writers:[ 0; 1; 2 ] ])

(* ------------------------------------------------------------------ *)
(* Workload_variants: the generalized batch driver *)

let test_fabric_batched_driver () =
  let m =
    Harness.Workload_variants.fabric_batched ~shards:2 ~domains:2 ~items:2_000
      ~batch:8 ()
  in
  let open Harness.Workload_variants in
  Alcotest.(check int) "batch recorded" 8 m.batch;
  Alcotest.(check int) "all items moved" (2 * 2_000) m.total_items;
  Alcotest.(check bool) "throughput positive" true (m.items_per_second > 0.)

(* ------------------------------------------------------------------ *)
(* Polling bounded shards: two loads per empty ring, and the dequeue
   engine wakes on an arrival *)

let test_empty_sweep_records_nothing () =
  let fab = F.create () in
  Obs.Flight.enable ();
  Fun.protect ~finally:Obs.Flight.disable (fun () ->
      (* one item through first, so this domain's flight row exists *)
      ignore (F.try_enqueue fab 0);
      Alcotest.(check (option int)) "the item" (Some 0) (F.drain_one fab);
      let r0 = Obs.Flight.recorded () in
      Alcotest.(check (option int)) "empty" None (F.drain_one fab);
      Alcotest.(check int) "an empty sweep records nothing" r0
        (Obs.Flight.recorded ());
      ignore (F.try_enqueue fab 1);
      Alcotest.(check (option int)) "an item lands" (Some 1) (F.drain_one fab);
      Alcotest.(check bool) "a claiming sweep records" true
        (Obs.Flight.recorded () > r0))

let test_dequeue_wakes_on_arrival () =
  (* The default shards (8 bounded SCQ rings) with no deadline and no
     span, so the one call waits for the value however late the
     producer runs, and a backoff bound of 2^30 relaxes: a blind spin
     lasts up to about half a minute, so only the shards' hint ends
     it within seconds. *)
  let fab =
    F.create
      ~config:
        {
          F.default_config with
          resilience =
            {
              R.default with
              R.deadline_ns = 0;
              policy = R.Block_until max_int;
              backoff_initial = 1 lsl 30;
              backoff_limit = 1 lsl 30;
            };
        }
      ()
  in
  let calling = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        Atomic.set calling true;
        F.try_dequeue fab)
  in
  while not (Atomic.get calling) do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  (match F.try_enqueue fab 42 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue into an empty fabric refused");
  (match Domain.join consumer with
  | Ok v -> Alcotest.(check int) "the enqueued value, in one call" 42 v
  | Error e -> Alcotest.failf "the dequeue gave up: %s" (R.error_to_string e));
  let waited = Unix.gettimeofday () -. t0 in
  if waited > 5. then
    Alcotest.failf "the dequeue returned %.1f s after the enqueue" waited

let suites =
  [
    ( "fabric",
      [
        Alcotest.test_case "elastic grow/drain FIFO" `Quick
          test_elastic_grow_drain;
        Alcotest.test_case "elastic 2-domain order" `Quick
          test_elastic_two_domain;
        Alcotest.test_case "bounded conservation + refusals" `Quick
          test_bounded_conservation;
        Alcotest.test_case "backpressure bounds (concurrent)" `Quick
          test_backpressure_bounds_concurrent;
        Alcotest.test_case "per-key FIFO across producers" `Quick
          test_per_key_fifo;
        Alcotest.test_case "batch + producer handle" `Quick
          test_batch_and_producer;
        Alcotest.test_case "chaos-wrapped conservation" `Quick
          test_chaos_conservation;
        Alcotest.test_case "open-loop schedule deterministic" `Quick
          test_schedule_determinism;
        Alcotest.test_case "open-loop burst stretch" `Quick
          test_schedule_burst_stretch;
        Alcotest.test_case "open-loop run conservation" `Quick
          test_open_loop_run_conservation;
        Alcotest.test_case "bench schema-7 fabric parse" `Quick
          test_bench_fabric_parse;
        Alcotest.test_case "bench p999 + SLO gates" `Quick
          test_bench_fabric_gates;
        Alcotest.test_case "sim scaling >= 3x + disjoint" `Quick
          test_sim_scaling_and_disjoint;
        Alcotest.test_case "writers_disjoint detects overlap" `Quick
          test_writers_disjoint_detects_overlap;
        Alcotest.test_case "an empty sweep records nothing" `Quick
          test_empty_sweep_records_nothing;
        Alcotest.test_case "dequeue wakes on an arrival" `Quick
          test_dequeue_wakes_on_arrival;
        Alcotest.test_case "fabric batched driver" `Quick
          test_fabric_batched_driver;
      ] );
  ]
