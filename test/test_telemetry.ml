(* Tests of the telemetry subsystem (lib/obs): windowed histogram
   quantiles, the timeseries ring, the sampler's registry and exports,
   the flight recorder's rings and anomaly latch, the pretty JSON
   emitter, and the schema-8 timeline validator. *)

let json = Alcotest.testable Obs.Json.pp ( = )

let member_exn what k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what k

let series_of timeline =
  match member_exn "timeline" "series" timeline with
  | Obs.Json.List l -> l
  | _ -> Alcotest.fail "timeline.series is not an array"

let find_series ?quantile name timeline =
  List.find_opt
    (fun s ->
      Obs.Json.member "name" s = Some (Obs.Json.String name)
      &&
      match quantile with
      | None -> true
      | Some q -> (
          match Obs.Json.member "labels" s with
          | Some labels ->
              Obs.Json.member "quantile" labels = Some (Obs.Json.String q)
          | None -> false))
    (series_of timeline)

let points_of s =
  match Obs.Json.member "points" s with
  | Some (Obs.Json.List l) ->
      List.map
        (fun p ->
          match
            ( Obs.Json.member "t_ms" p |> Option.map Obs.Json.to_float_opt,
              Obs.Json.member "v" p |> Option.map Obs.Json.to_float_opt )
          with
          | Some (Some t), Some (Some v) -> (t, v)
          | _ -> Alcotest.fail "malformed point")
        l
  | _ -> Alcotest.fail "series without points"

(* {1 Histogram windowed quantiles} *)

let test_quantile_of_counts_empty () =
  let cs = Array.make Obs.Histogram.n_buckets 0 in
  Alcotest.(check (option int))
    "empty counts" None
    (Obs.Histogram.quantile_of_counts cs 0.5);
  Alcotest.(check (option int))
    "empty counts p999" None
    (Obs.Histogram.quantile_of_counts cs 0.999)

let test_quantile_of_counts_single_bucket () =
  let h = Obs.Histogram.create () in
  for _ = 1 to 100 do
    Obs.Histogram.record h 5
  done;
  let cs = Obs.Histogram.counts h in
  let b = Obs.Histogram.bucket_of 5 in
  let ub = Obs.Histogram.upper_bound b in
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "q=%g all in one bucket" q)
        (Some ub)
        (Obs.Histogram.quantile_of_counts cs q))
    [ 0.; 0.5; 0.99; 0.999; 1. ]

let test_quantile_of_counts_small_n () =
  (* p999 of n < 1000 samples is the maximum's bucket: rank
     ceil(0.999 * n) = n for any 0 < n < 1000 *)
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 1; 2; 3; 1000 ];
  let cs = Obs.Histogram.counts h in
  Alcotest.(check (option int))
    "p999 of 4 samples = max bucket"
    (Some (Obs.Histogram.upper_bound (Obs.Histogram.bucket_of 1000)))
    (Obs.Histogram.quantile_of_counts cs 0.999)

let test_quantile_of_counts_window () =
  (* the sampler's window = counts-after minus counts-before; the
     quantile walk must see only the window's samples *)
  let h = Obs.Histogram.create () in
  for _ = 1 to 50 do
    Obs.Histogram.record h 10
  done;
  let before = Obs.Histogram.counts h in
  for _ = 1 to 50 do
    Obs.Histogram.record h 100_000
  done;
  let after = Obs.Histogram.counts h in
  let window = Array.map2 ( - ) after before in
  Alcotest.(check (option int))
    "window sees only the slow samples"
    (Some (Obs.Histogram.upper_bound (Obs.Histogram.bucket_of 100_000)))
    (Obs.Histogram.quantile_of_counts window 0.5)

let test_quantile_monotone_in_q () =
  let h = Obs.Histogram.create () in
  let v = ref 7 in
  for _ = 1 to 2_000 do
    (* spread over many buckets, deterministically *)
    v := ((!v * 1103515245) + 12345) land 0xFFFFF;
    Obs.Histogram.record h !v
  done;
  let cs = Obs.Histogram.counts h in
  let q50 = Option.get (Obs.Histogram.quantile_of_counts cs 0.5) in
  let q99 = Option.get (Obs.Histogram.quantile_of_counts cs 0.99) in
  let q999 = Option.get (Obs.Histogram.quantile_of_counts cs 0.999) in
  Alcotest.(check bool) "p50 <= p99" true (q50 <= q99);
  Alcotest.(check bool) "p99 <= p999" true (q99 <= q999);
  Alcotest.(check (option int))
    "counts quantile agrees with histogram quantile" (Obs.Histogram.p999 h)
    (Some q999)

(* {1 Timeseries ring} *)

let test_timeseries_overwrite () =
  let ts = Obs.Timeseries.create ~capacity:4 "t" in
  Alcotest.(check int) "capacity pow2" 4 (Obs.Timeseries.capacity ts);
  for i = 1 to 10 do
    Obs.Timeseries.push ts ~t_ns:(i * 1000) (float_of_int i)
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Timeseries.length ts);
  Alcotest.(check int) "dropped = overflow" 6 (Obs.Timeseries.dropped ts);
  Alcotest.(check (list (pair int (float 0.0))))
    "oldest-first, newest retained"
    [ (7000, 7.); (8000, 8.); (9000, 9.); (10000, 10.) ]
    (Obs.Timeseries.to_list ts);
  Alcotest.(check (option (pair int (float 0.0))))
    "last" (Some (10000, 10.)) (Obs.Timeseries.last ts)

let test_timeseries_json_rebased () =
  let ts =
    Obs.Timeseries.create ~labels:[ ("quantile", "0.5") ] ~unit_:"ns"
      ~capacity:8 "lat"
  in
  Obs.Timeseries.push ts ~t_ns:2_000_000 1.;
  Obs.Timeseries.push ts ~t_ns:4_500_000 2.;
  let j = Obs.Timeseries.to_json ~t0:1_000_000 ts in
  Alcotest.(check json) "name" (Obs.Json.String "lat") (member_exn "ts" "name" j);
  (match points_of j with
  | [ (t1, v1); (t2, v2) ] ->
      Alcotest.(check (float 1e-9)) "t rebased to ms" 1.0 t1;
      Alcotest.(check (float 1e-9)) "t rebased to ms" 3.5 t2;
      Alcotest.(check (float 0.0)) "v1" 1. v1;
      Alcotest.(check (float 0.0)) "v2" 2. v2
  | pts -> Alcotest.failf "expected 2 points, got %d" (List.length pts));
  match Obs.Json.member "labels" j with
  | Some labels ->
      Alcotest.(check json) "label kept" (Obs.Json.String "0.5")
        (member_exn "labels" "quantile" labels)
  | None -> Alcotest.fail "labels missing"

(* {1 Sampler} *)

let test_sampler_gauge_and_counter () =
  Obs.Sampler.clear ();
  let g = ref 1.5 in
  let c = ref 0 in
  Obs.Sampler.register_gauge "t.gauge" (fun () -> !g);
  Obs.Sampler.register_counter "t.counter" (fun () -> !c);
  Obs.Sampler.tick ();
  g := 2.5;
  c := 1000;
  Obs.Sampler.tick ();
  let timeline = Obs.Sampler.timeline_json () in
  (match find_series "t.gauge" timeline with
  | Some s -> (
      match points_of s with
      | [ (_, v1); (_, v2) ] ->
          Alcotest.(check (float 0.0)) "gauge point 1" 1.5 v1;
          Alcotest.(check (float 0.0)) "gauge point 2" 2.5 v2
      | pts -> Alcotest.failf "gauge: expected 2 points, got %d" (List.length pts))
  | None -> Alcotest.fail "gauge series missing");
  (match find_series "t.counter" timeline with
  | Some s -> (
      match points_of s with
      | [ (_, r1); (_, r2) ] ->
          Alcotest.(check (float 0.0)) "no events in first window" 0. r1;
          Alcotest.(check bool) "positive rate after bump" true (r2 > 0.)
      | pts ->
          Alcotest.failf "counter: expected 2 points, got %d" (List.length pts))
  | None -> Alcotest.fail "counter series missing");
  Obs.Sampler.clear ()

let test_sampler_histogram_window () =
  Obs.Sampler.clear ();
  let h = Obs.Histogram.create () in
  Obs.Sampler.register_histogram "t.lat" h;
  for _ = 1 to 500 do
    Obs.Histogram.record h 100
  done;
  Obs.Sampler.tick ();
  for _ = 1 to 500 do
    Obs.Histogram.record h 1_000_000
  done;
  Obs.Sampler.tick ();
  let timeline = Obs.Sampler.timeline_json () in
  let last_of q =
    match find_series ~quantile:q "t.lat" timeline with
    | Some s -> (
        match List.rev (points_of s) with
        | (_, v) :: _ -> v
        | [] -> Alcotest.failf "quantile %s: no points" q)
    | None -> Alcotest.failf "quantile series %s missing" q
  in
  let p50 = last_of "0.5" and p99 = last_of "0.99" and p999 = last_of "0.999" in
  Alcotest.(check bool) "windowed p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool) "windowed p99 <= p999" true (p99 <= p999);
  (* the second window holds only the slow samples: its p50 must sit in
     the 1ms bucket, far above the first window's 100ns ceiling *)
  Alcotest.(check bool) "window isolation" true (p50 > 1000.);
  (match find_series "t.lat_count" timeline with
  | Some s -> (
      match points_of s with
      | [ (_, c1); (_, c2) ] ->
          Alcotest.(check (float 0.0)) "window count 1" 500. c1;
          Alcotest.(check (float 0.0)) "window count 2" 500. c2
      | pts -> Alcotest.failf "count: expected 2 points, got %d" (List.length pts))
  | None -> Alcotest.fail "count series missing");
  Obs.Sampler.clear ()

let test_sampler_remove_retires () =
  Obs.Sampler.clear ();
  Obs.Sampler.register_gauge "gone.g" (fun () -> 1.);
  Obs.Sampler.register_gauge "kept.g" (fun () -> 2.);
  Obs.Sampler.tick ();
  Obs.Sampler.remove ~prefix:"gone.";
  Obs.Sampler.tick ();
  let timeline = Obs.Sampler.timeline_json () in
  (match find_series "gone.g" timeline with
  | Some s ->
      Alcotest.(check int)
        "retired series keeps its pre-removal points" 1
        (List.length (points_of s))
  | None -> Alcotest.fail "removed series dropped from export");
  (match find_series "kept.g" timeline with
  | Some s -> Alcotest.(check int) "live series kept ticking" 2 (List.length (points_of s))
  | None -> Alcotest.fail "live series missing");
  Obs.Sampler.clear ()

let test_sampler_openmetrics () =
  Obs.Sampler.clear ();
  Obs.Sampler.register_gauge ~labels:[ ("shard", "3") ] "fab.depth-now"
    (fun () -> 7.);
  Obs.Sampler.tick ();
  let om = Obs.Sampler.to_openmetrics () in
  let trimmed = String.trim om in
  let len = String.length trimmed in
  Alcotest.(check string)
    "EOF-terminated" "# EOF"
    (String.sub trimmed (len - 5) 5);
  Alcotest.(check bool)
    "sanitized family name" true
    (let re = Str.regexp_string "# TYPE fab_depth_now gauge" in
     try
       ignore (Str.search_forward re om 0);
       true
     with Not_found -> false);
  Alcotest.(check bool)
    "label exposition" true
    (let re = Str.regexp_string "shard=\"3\"" in
     try
       ignore (Str.search_forward re om 0);
       true
     with Not_found -> false);
  Obs.Sampler.clear ()

let test_sampler_timeline_validates () =
  Obs.Sampler.clear ();
  let h = Obs.Histogram.create () in
  Obs.Sampler.register_histogram "v.lat" h;
  Obs.Sampler.register_gauge "v.depth" (fun () -> 1.);
  for i = 1 to 3 do
    Obs.Histogram.record h (i * 100);
    Obs.Sampler.tick ()
  done;
  let timeline = Obs.Sampler.timeline_json () in
  (match Harness.Bench_compare.validate_timeline timeline with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sampler export rejected: %s" e);
  (* and the validator has teeth *)
  (match Harness.Bench_compare.validate_timeline (Obs.Json.Assoc []) with
  | Ok () -> Alcotest.fail "empty object validated"
  | Error _ -> ());
  (match
     Harness.Bench_compare.validate_timeline
       (Obs.Json.Assoc
          [
            ("t0_ns", Obs.Json.Int 0);
            ("period_ns", Obs.Json.Int (-5));
            ("series", Obs.Json.List []);
          ])
   with
  | Ok () -> Alcotest.fail "non-positive period validated"
  | Error _ -> ());
  (* the quick-look table renders every series *)
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Report.timeline_table fmt timeline;
  Format.pp_print_flush fmt ();
  let rendered = Buffer.contents buf in
  Alcotest.(check bool)
    "table mentions the gauge" true
    (let re = Str.regexp_string "v.depth" in
     try
       ignore (Str.search_forward re rendered 0);
       true
     with Not_found -> false);
  Obs.Sampler.clear ()

(* {1 Flight recorder} *)

let with_temp_file f =
  let path = Filename.temp_file "flight" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_flight_dump_loads () =
  Obs.Flight.disable ();
  Obs.Flight.reset ();
  Obs.Flight.enable ();
  let span = Locks.Probe.label "t.dump.span" in
  Locks.Probe.site (Locks.Probe.label "t.dump.site");
  Locks.Probe.phase_begin span;
  Locks.Probe.site (Locks.Probe.label "t.dump.inner");
  Locks.Probe.phase_end span;
  Obs.Flight.disable ();
  let doc = Obs.Flight.dump_json ~reason:"unit-test" () in
  (* round-trips through the parser *)
  let reparsed = Obs.Json.of_string (Obs.Json.to_string doc) in
  Alcotest.(check json) "dump round-trips" doc reparsed;
  let events =
    match member_exn "dump" "traceEvents" doc with
    | Obs.Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check bool) "events present" true (List.length events >= 4);
  (* every B has a matching E per tid: depth never goes negative and
     ends at zero — the balance pass contract that makes dumps load *)
  let depths = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        match member_exn "event" "ph" ev with
        | Obs.Json.String s -> s
        | _ -> Alcotest.fail "ph not a string"
      in
      let tid =
        match member_exn "event" "tid" ev with
        | Obs.Json.Int i -> i
        | _ -> Alcotest.fail "tid not an int"
      in
      let d = try Hashtbl.find depths tid with Not_found -> 0 in
      match ph with
      | "B" -> Hashtbl.replace depths tid (d + 1)
      | "E" ->
          Alcotest.(check bool) "E never unmatched" true (d > 0);
          Hashtbl.replace depths tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ d -> Alcotest.(check int) "all spans closed" 0 d)
    depths;
  (match member_exn "dump" "otherData" doc with
  | Obs.Json.Assoc _ as od ->
      Alcotest.(check json) "reason recorded" (Obs.Json.String "unit-test")
        (member_exn "otherData" "reason" od)
  | _ -> Alcotest.fail "otherData missing")

let test_flight_overwrites_oldest () =
  Obs.Flight.disable ();
  Obs.Flight.configure ~capacity:16;
  Obs.Flight.enable ();
  let before = Obs.Flight.recorded () in
  let wrap = Locks.Probe.label "t.ring.wrap" in
  for _ = 1 to 100 do
    Locks.Probe.site wrap
  done;
  Obs.Flight.disable ();
  Alcotest.(check int) "every event counted" 100
    (Obs.Flight.recorded () - before);
  let doc = Obs.Flight.dump_json ~reason:"wrap" () in
  let retained =
    match member_exn "dump" "traceEvents" doc with
    | Obs.Json.List l -> List.length l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check bool)
    (Printf.sprintf "retained %d <= ring capacity" retained)
    true
    (retained <= Obs.Flight.capacity ());
  Obs.Flight.configure ~capacity:1024

let test_flight_record_allocates_nothing () =
  Obs.Flight.disable ();
  Obs.Flight.reset ();
  Obs.Flight.enable ();
  let site = Locks.Probe.label "t.alloc.site"
  and span = Locks.Probe.label "t.alloc.span" in
  let triple () =
    Locks.Probe.site site;
    Locks.Probe.phase_begin span;
    Locks.Probe.phase_end span
  in
  (* warm-up: this domain's ring row installed *)
  for _ = 1 to 100 do
    triple ()
  done;
  let n = 10_000 in
  let before = Obs.Flight.recorded () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    triple ()
  done;
  let words = Gc.minor_words () -. w0 in
  let recorded = Obs.Flight.recorded () - before in
  Obs.Flight.disable ();
  Alcotest.(check int) "every event recorded" (3 * n) recorded;
  let per_event = words /. float_of_int (3 * n) in
  if per_event >= 0.01 then
    Alcotest.failf "flight recording allocates %.2f minor words per event"
      per_event

(* Rings are allocated by a domain's first event, not by [enable]: the
   records outlive a disable/enable cycle, and [configure] drops them. *)
let test_flight_records_survive_cycle () =
  let retained () =
    match member_exn "dump" "traceEvents" (Obs.Flight.dump_json ~reason:"t" ()) with
    | Obs.Json.List l -> List.length l
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Obs.Flight.disable ();
  Obs.Flight.reset ();
  Alcotest.(check int) "reset leaves no records" 0 (Obs.Flight.recorded ());
  Obs.Flight.enable ();
  Alcotest.(check int) "enable records nothing" 0 (retained ());
  Locks.Probe.site (Locks.Probe.label "t.cycle.one");
  Obs.Flight.disable ();
  Obs.Flight.enable ();
  Locks.Probe.site (Locks.Probe.label "t.cycle.two");
  Obs.Flight.disable ();
  Alcotest.(check int) "both events recorded" 2 (Obs.Flight.recorded ());
  Alcotest.(check int) "both survive the cycle" 2 (retained ());
  Obs.Flight.configure ~capacity:(Obs.Flight.capacity ());
  Alcotest.(check int) "configure drops the count" 0 (Obs.Flight.recorded ());
  Alcotest.(check int) "configure drops the records" 0 (retained ())

let test_flight_latch_priority () =
  with_temp_file @@ fun path ->
  Obs.Flight.disable ();
  Obs.Flight.reset ();
  Obs.Flight.enable ();
  Locks.Probe.site (Locks.Probe.label "t.latch");
  Obs.Flight.disable ();
  Obs.Flight.arm_dump ~path;
  Alcotest.(check bool) "armed, nothing dumped yet" true
    (Obs.Flight.last_dump () = None);
  Obs.Flight.note_anomaly ~major:false ~reason:"minor-1" ();
  Alcotest.(check (option (pair string string)))
    "minor claims an empty latch"
    (Some (path, "minor-1"))
    (Obs.Flight.last_dump ());
  Obs.Flight.note_anomaly ~reason:"major-1" ();
  Alcotest.(check (option (pair string string)))
    "major overwrites minor"
    (Some (path, "major-1"))
    (Obs.Flight.last_dump ());
  Obs.Flight.note_anomaly ~reason:"major-2" ();
  Obs.Flight.note_anomaly ~major:false ~reason:"minor-2" ();
  Alcotest.(check (option (pair string string)))
    "first major wins"
    (Some (path, "major-1"))
    (Obs.Flight.last_dump ());
  (* the dump on disk is the black box, loadable *)
  let body = In_channel.with_open_text path In_channel.input_all in
  (match Obs.Json.member "traceEvents" (Obs.Json.of_string body) with
  | Some (Obs.Json.List l) ->
      Alcotest.(check bool) "dump file has events" true (List.length l >= 1)
  | _ -> Alcotest.fail "dump file has no traceEvents");
  Obs.Flight.disarm_dump ();
  Obs.Flight.note_anomaly ~reason:"after-disarm" ();
  Alcotest.(check bool) "disarmed latch ignores anomalies" true
    (Obs.Flight.last_dump () = None)

(* {1 Pretty JSON} *)

let test_pretty_round_trip () =
  let doc =
    Obs.Json.Assoc
      [
        ("empty_list", Obs.Json.List []);
        ("empty_obj", Obs.Json.Assoc []);
        ( "series",
          Obs.Json.List
            [
              Obs.Json.Assoc
                [
                  ("name", Obs.Json.String "a\"b\\c");
                  ("v", Obs.Json.Float 1.5);
                  ("n", Obs.Json.Int (-3));
                  ("flag", Obs.Json.Bool true);
                  ("nothing", Obs.Json.Null);
                ];
              Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ];
            ] );
      ]
  in
  let pretty = Obs.Json.to_string_pretty doc in
  Alcotest.(check json) "pretty form parses back" doc
    (Obs.Json.of_string pretty);
  Alcotest.(check bool) "actually multi-line" true
    (String.contains pretty '\n')

let suites =
  [
    ( "telemetry.histogram",
      [
        Alcotest.test_case "quantile_of_counts: empty" `Quick
          test_quantile_of_counts_empty;
        Alcotest.test_case "quantile_of_counts: single bucket" `Quick
          test_quantile_of_counts_single_bucket;
        Alcotest.test_case "quantile_of_counts: p999 of small n" `Quick
          test_quantile_of_counts_small_n;
        Alcotest.test_case "quantile_of_counts: window diff" `Quick
          test_quantile_of_counts_window;
        Alcotest.test_case "quantiles monotone in q" `Quick
          test_quantile_monotone_in_q;
      ] );
    ( "telemetry.timeseries",
      [
        Alcotest.test_case "overwrite-oldest ring" `Quick
          test_timeseries_overwrite;
        Alcotest.test_case "json rebased to t0" `Quick
          test_timeseries_json_rebased;
      ] );
    ( "telemetry.sampler",
      [
        Alcotest.test_case "gauge points and counter rates" `Quick
          test_sampler_gauge_and_counter;
        Alcotest.test_case "windowed histogram quantiles" `Quick
          test_sampler_histogram_window;
        Alcotest.test_case "remove retires series into exports" `Quick
          test_sampler_remove_retires;
        Alcotest.test_case "openmetrics exposition" `Quick
          test_sampler_openmetrics;
        Alcotest.test_case "timeline validates and renders" `Quick
          test_sampler_timeline_validates;
      ] );
    ( "telemetry.flight",
      [
        Alcotest.test_case "dump is balanced chrome trace" `Quick
          test_flight_dump_loads;
        Alcotest.test_case "ring overwrites oldest, counts all" `Quick
          test_flight_overwrites_oldest;
        Alcotest.test_case "anomaly latch priority" `Quick
          test_flight_latch_priority;
        Alcotest.test_case "recording allocates nothing" `Quick
          test_flight_record_allocates_nothing;
        Alcotest.test_case "records survive disable/enable" `Quick
          test_flight_records_survive_cycle;
      ] );
    ( "telemetry.json",
      [
        Alcotest.test_case "pretty emitter round-trips" `Quick
          test_pretty_round_trip;
      ] );
  ]
