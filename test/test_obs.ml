(* The observability layer: JSON round-trips, padded counters,
   power-of-two histograms, Chrome-trace export, and the Instrumented
   queue wrapper (semantics preserved, counters attributed, disabled
   path inert). *)

(* ------------------------------------------------------------------ *)
(* Json *)

let roundtrip j = Obs.Json.of_string (Obs.Json.to_string j)

let test_json_roundtrip () =
  let doc =
    Obs.Json.(
      Assoc
        [
          ("null", Null);
          ("flag", Bool true);
          ("n", Int (-42));
          ("x", Float 2.5);
          ("s", String "quo\"te\n\ttab \\ slash");
          ("l", List [ Int 1; Int 2; Assoc [ ("k", Bool false) ] ]);
          ("empty_obj", Assoc []);
          ("empty_list", List []);
        ])
  in
  Alcotest.(check bool) "roundtrip preserves the tree" true (roundtrip doc = doc)

let test_json_nonfinite () =
  Alcotest.(check string) "nan degrades to null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf degrades to null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Obs.Json.of_string_opt s = None))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_json_accessors () =
  let j = Obs.Json.of_string {|{"a": 3, "b": "x", "c": [1, 2]}|} in
  Alcotest.(check (option int)) "member/int" (Some 3)
    Obs.Json.(Option.bind (member "a" j) to_int_opt);
  Alcotest.(check (option string)) "member/string" (Some "x")
    Obs.Json.(Option.bind (member "b" j) to_string_opt);
  Alcotest.(check (option int)) "list length" (Some 2)
    Obs.Json.(
      Option.map List.length (Option.bind (member "c" j) to_list_opt));
  Alcotest.(check bool) "missing member" true (Obs.Json.member "z" j = None)

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_basics () =
  let c = Obs.Counter.create () in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

let test_counter_multi_domain () =
  let c = Obs.Counter.create () in
  let per = 10_000 and domains = 4 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "sums across domains" (domains * per)
    (Obs.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_buckets () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Obs.Histogram.bucket_of 0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Obs.Histogram.bucket_of (-5));
  Alcotest.(check int) "1 -> bucket 1" 1 (Obs.Histogram.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (Obs.Histogram.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Obs.Histogram.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (Obs.Histogram.bucket_of 4);
  Alcotest.(check int) "1023 -> bucket 10" 10 (Obs.Histogram.bucket_of 1023);
  Alcotest.(check int) "1024 -> bucket 11" 11 (Obs.Histogram.bucket_of 1024);
  (* bounds bracket every value of the bucket it lands in *)
  List.iter
    (fun v ->
      let b = Obs.Histogram.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "%d within its bucket bounds" v)
        true
        (Obs.Histogram.lower_bound b <= max v 0
        && max v 0 <= Obs.Histogram.upper_bound b))
    [ 0; 1; 2; 7; 8; 100; 4095; 4096; 123_456_789 ];
  (* the shift cascade agrees with counting bits one at a time, at
     every power-of-two edge *)
  let reference v =
    let rec bits n v = if v = 0 then n else bits (n + 1) (v lsr 1) in
    if v <= 0 then 0 else bits 0 v
  in
  let edges =
    List.concat_map
      (fun k ->
        let p = 1 lsl k in
        [ p - 1; p; p + 1 ])
      (List.init (Sys.int_size - 1) Fun.id)
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %d" v)
        (reference v) (Obs.Histogram.bucket_of v))
    ([ 0; -1; -5; min_int; max_int ] @ edges)

let test_histogram_record_and_merge () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 1; 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check int) "bucket 1" 2 (Obs.Histogram.bucket_count h 1);
  Alcotest.(check int) "bucket 2" 2 (Obs.Histogram.bucket_count h 2);
  Alcotest.(check (list (pair int int)))
    "non-empty buckets ascending"
    [ (1, 2); (2, 2); (64, 1) ]
    (Obs.Histogram.buckets h);
  let h2 = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h2) [ 1; 1000 ];
  let m = Obs.Histogram.merge h h2 in
  Alcotest.(check int) "merge count" 7 (Obs.Histogram.count m);
  Alcotest.(check int) "merge bucket 1" 3 (Obs.Histogram.bucket_count m 1);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Obs.Histogram.count h)

let test_histogram_percentile () =
  let h = Obs.Histogram.create () in
  Alcotest.(check (option int)) "empty" None (Obs.Histogram.percentile h 50.);
  for _ = 1 to 99 do
    Obs.Histogram.record h 1
  done;
  Obs.Histogram.record h 1_000_000;
  Alcotest.(check (option int)) "p50 in the low bucket" (Some 1)
    (Obs.Histogram.percentile h 50.);
  (match Obs.Histogram.percentile h 100. with
  | Some ub -> Alcotest.(check bool) "p100 covers the outlier" true (ub >= 1_000_000)
  | None -> Alcotest.fail "p100 on a non-empty histogram")

let test_histogram_sum_mean () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty sum" 0 (Obs.Histogram.sum h);
  Alcotest.(check bool) "empty mean" true (Obs.Histogram.mean h = None);
  List.iter (Obs.Histogram.record h) [ 5; 7; 100 ];
  (* the sum is exact even though buckets quantize: 5 and 7 share
     bucket [4..7] yet contribute 12, not 2x upper_bound *)
  Alcotest.(check int) "exact sum" 112 (Obs.Histogram.sum h);
  (match Obs.Histogram.mean h with
  | Some m ->
      Alcotest.(check (float 1e-9)) "mean = sum/count" (112. /. 3.) m
  | None -> Alcotest.fail "mean on a non-empty histogram");
  let h2 = Obs.Histogram.create () in
  Obs.Histogram.record h2 1_000;
  Alcotest.(check int) "merge adds sums" 1_112
    (Obs.Histogram.sum (Obs.Histogram.merge h h2));
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset clears the sum" 0 (Obs.Histogram.sum h);
  let j = roundtrip (Obs.Histogram.to_json h2) in
  Alcotest.(check (option int)) "sum in json" (Some 1_000)
    Obs.Json.(Option.bind (member "sum" j) to_int_opt);
  Alcotest.(check bool) "mean in json" true
    Obs.Json.(
      match member "mean" j with Some (Float m) -> m = 1_000. | _ -> false);
  let empty_j = Obs.Histogram.to_json (Obs.Histogram.create ()) in
  Alcotest.(check bool) "empty mean is null in json" true
    (Obs.Json.member "mean" empty_j = Some Obs.Json.Null)

let test_histogram_json () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 5; 5; 9 ];
  let j = roundtrip (Obs.Histogram.to_json h) in
  Alcotest.(check (option int)) "count field" (Some 3)
    Obs.Json.(Option.bind (member "count" j) to_int_opt);
  let buckets =
    Obs.Json.(Option.bind (member "buckets" j) to_list_opt) |> Option.get
  in
  let total =
    List.fold_left
      (fun acc b ->
        acc + Option.get Obs.Json.(Option.bind (member "count" b) to_int_opt))
      0 buckets
  in
  Alcotest.(check int) "bucket counts sum to total" 3 total

(* ------------------------------------------------------------------ *)
(* Chrome-trace export: run a tiny simulation, export, parse, check. *)

let test_chrome_trace_roundtrip () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let tr = Sim.Engine.enable_trace eng in
  let a = Sim.Engine.setup_alloc eng 1 in
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Api.write a (Sim.Word.Int 1);
           ignore (Sim.Api.read a);
           ignore
             (Sim.Api.cas a ~expected:(Sim.Word.Int 1)
                ~desired:(Sim.Word.Int 2))))
  done;
  ignore (Sim.Engine.run eng);
  let s = Sim.Trace.to_chrome_string ~label:"unit test" tr in
  let j = Obs.Json.of_string s in
  Alcotest.(check (option string)) "display unit" (Some "ms")
    Obs.Json.(Option.bind (member "displayTimeUnit" j) to_string_opt);
  let events =
    Obs.Json.(Option.bind (member "traceEvents" j) to_list_opt) |> Option.get
  in
  (* one process_name metadata record plus one complete event per trace
     record (nothing dropped in a run this small) *)
  Alcotest.(check int) "event count" (1 + Sim.Trace.length tr)
    (List.length events);
  let phases =
    List.filter_map
      (fun e -> Obs.Json.(Option.bind (member "ph" e) to_string_opt))
      events
  in
  Alcotest.(check int) "every event has a phase" (List.length events)
    (List.length phases);
  Alcotest.(check bool) "metadata present" true (List.mem "M" phases);
  Alcotest.(check bool) "complete events present" true (List.mem "X" phases);
  List.iter
    (fun e ->
      match Obs.Json.(Option.bind (member "ph" e) to_string_opt) with
      | Some "X" ->
          let has k = Obs.Json.member k e <> None in
          Alcotest.(check bool) "X has ts/dur/pid/tid" true
            (has "ts" && has "dur" && has "pid" && has "tid")
      | _ -> ())
    events

let test_chrome_trace_hit_annotations () =
  let eng = Sim.Engine.create Sim.Config.default in
  let tr = Sim.Engine.enable_trace eng in
  let a = Sim.Engine.setup_alloc eng 1 in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Api.write a (Sim.Word.Int 7);
         ignore (Sim.Api.read a)));
  ignore (Sim.Engine.run eng);
  List.iter
    (fun e ->
      if Sim.Trace.is_memory_op e.Sim.Trace.op then
        Alcotest.(check bool) "memory ops carry hit/miss" true
          (e.Sim.Trace.hit <> None))
    (Sim.Trace.events tr)

(* The Chrome exporter's nested phase events: durations ("ph":"B"/"E")
   emitted by Sim.Api.phase must parse, stay time-sorted per process,
   and bracket properly (every E closes the most recent B of the same
   name). *)
let test_chrome_trace_phase_events () =
  let eng = Sim.Engine.create (Sim.Config.with_processors 2) in
  let tr = Sim.Engine.enable_trace eng in
  let a = Sim.Engine.setup_alloc eng 1 in
  for _ = 1 to 2 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Api.phase "op" (fun () ->
               Sim.Api.phase "snapshot" (fun () -> ignore (Sim.Api.read a));
               Sim.Api.phase "cas" (fun () ->
                   ignore
                     (Sim.Api.cas a ~expected:(Sim.Word.Int 0)
                        ~desired:(Sim.Word.Int 1))))))
  done;
  ignore (Sim.Engine.run eng);
  let j = Obs.Json.of_string (Sim.Trace.to_chrome_string ~label:"phases" tr) in
  let events =
    Obs.Json.(Option.bind (member "traceEvents" j) to_list_opt) |> Option.get
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Obs.Json.(Option.bind (member "ph" e) to_string_opt) with
      | Some (("B" | "E" | "X") as ph) ->
          let tid =
            Option.get Obs.Json.(Option.bind (member "tid" e) to_int_opt)
          in
          let ts =
            Option.get Obs.Json.(Option.bind (member "ts" e) to_int_opt)
          in
          let name = Obs.Json.(Option.bind (member "name" e) to_string_opt) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
          Hashtbl.replace by_tid tid ((ph, ts, name) :: prev)
      | _ -> ())
    events;
  Alcotest.(check int) "one lane per simulated process" 2
    (Hashtbl.length by_tid);
  Hashtbl.iter
    (fun _tid rev ->
      let seq = List.rev rev in
      ignore
        (List.fold_left
           (fun last (_, ts, _) ->
             Alcotest.(check bool) "timestamps non-decreasing per process" true
               (ts >= last);
             ts)
           min_int seq);
      let open_at_end =
        List.fold_left
          (fun stack (ph, _, name) ->
            match ph with
            | "B" -> Option.get name :: stack
            | "E" -> (
                match stack with
                | top :: rest ->
                    Alcotest.(check string) "E closes the innermost open B" top
                      (Option.get name);
                    rest
                | [] -> Alcotest.fail "E without an open B")
            | _ -> stack)
          [] seq
      in
      Alcotest.(check int) "every phase closed" 0 (List.length open_at_end))
    by_tid;
  let count ph =
    List.length
      (List.filter
         (fun e ->
           Obs.Json.(Option.bind (member "ph" e) to_string_opt) = Some ph)
         events)
  in
  (* 3 nested phases per process, 2 processes *)
  Alcotest.(check int) "B events" 6 (count "B");
  Alcotest.(check int) "E events" 6 (count "E")

(* ------------------------------------------------------------------ *)
(* Profile: per-site contention and per-phase spans via the Probe hooks *)

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

let test_profile_sites () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Alcotest.(check bool) "enabled" true (Obs.Profile.enabled ());
  let site_a = Locks.Probe.label "t.site_a" in
  Locks.Probe.site (Locks.Probe.label "t.anchor");
  for _ = 1 to 50 do
    spin 200;
    Locks.Probe.site site_a
  done;
  Obs.Profile.disable ();
  Alcotest.(check bool) "disabled" false (Obs.Profile.enabled ());
  let s = Obs.Profile.snapshot () in
  let a = List.find (fun e -> e.Obs.Profile.label = "t.site_a") s.sites in
  Alcotest.(check int) "all events counted" 50 a.Obs.Profile.events;
  (* the first site after the anchor attributes the spin's span; exact
     sum equals the histogram's *)
  Alcotest.(check bool) "cycles attributed" true (a.Obs.Profile.cycles > 0);
  Alcotest.(check int) "entry cycles = histogram sum" a.Obs.Profile.cycles
    (Obs.Histogram.sum a.Obs.Profile.hist);
  Alcotest.(check bool) "p50 available" true (Obs.Profile.p50 a <> None);
  (* disabled: further marks record nothing *)
  Locks.Probe.site site_a;
  let s' = Obs.Profile.snapshot () in
  let a' = List.find (fun e -> e.Obs.Profile.label = "t.site_a") s'.sites in
  Alcotest.(check int) "no recording when disabled" 50 a'.Obs.Profile.events

let test_profile_phases () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let outer = Locks.Probe.label "t.outer" and inner = Locks.Probe.label "t.inner" in
  for _ = 1 to 20 do
    Locks.Probe.phase_begin outer;
    Locks.Probe.phase_begin inner;
    spin 100;
    Locks.Probe.phase_end inner;
    Locks.Probe.phase_end outer
  done;
  Obs.Profile.disable ();
  let s = Obs.Profile.snapshot () in
  let find l = List.find (fun e -> e.Obs.Profile.label = l) s.phases in
  let outer = find "t.outer" and inner = find "t.inner" in
  Alcotest.(check int) "outer spans" 20 outer.Obs.Profile.events;
  Alcotest.(check int) "inner spans" 20 inner.Obs.Profile.events;
  (* proper nesting: the outer span contains the inner one *)
  Alcotest.(check bool) "outer >= inner cycles" true
    (outer.Obs.Profile.cycles >= inner.Obs.Profile.cycles);
  Alcotest.(check bool) "inner cycles positive" true
    (inner.Obs.Profile.cycles > 0)

let test_profile_diff_and_json () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let t_d = Locks.Probe.label "t.d" in
  Locks.Probe.site t_d;
  for _ = 1 to 10 do
    Locks.Probe.site t_d
  done;
  let before = Obs.Profile.snapshot () in
  for _ = 1 to 7 do
    Locks.Probe.site t_d
  done;
  Obs.Profile.disable ();
  let after = Obs.Profile.snapshot () in
  let d = Obs.Profile.diff after before in
  let e = List.find (fun e -> e.Obs.Profile.label = "t.d") d.sites in
  Alcotest.(check int) "diff counts only the window" 7 e.Obs.Profile.events;
  let j = roundtrip (Obs.Profile.to_json after) in
  let sites =
    Obs.Json.(Option.bind (member "sites" j) to_list_opt) |> Option.get
  in
  let jd =
    List.find
      (fun s ->
        Obs.Json.(Option.bind (member "label" s) to_string_opt)
        = Some "t.d")
      sites
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Obs.Json.member k jd <> None))
    [ "events"; "cycles"; "p50"; "p99"; "latency" ];
  Alcotest.(check (option int)) "json events" (Some 18)
    Obs.Json.(Option.bind (member "events" jd) to_int_opt)

let test_profile_multi_domain () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let domains = 4 and per = 1_000 in
  let md = Locks.Probe.label "t.md" in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Locks.Probe.site md
            done))
  in
  List.iter Domain.join ds;
  Obs.Profile.disable ();
  let s = Obs.Profile.snapshot () in
  let e = List.find (fun e -> e.Obs.Profile.label = "t.md") s.sites in
  Alcotest.(check int) "events from every domain aggregated" (domains * per)
    e.Obs.Profile.events

(* The chaos layer and the profiler hook sites independently; both see
   every mark, and removing one leaves the other active. *)
let test_profile_composes_with_chaos_hook () =
  Obs.Profile.reset ();
  let chaos_seen = ref 0 in
  Locks.Probe.subscribe Chaos (fun ev _ ->
      if ev = Locks.Probe.Site then incr chaos_seen);
  Obs.Profile.enable ();
  let both = Locks.Probe.label "t.both" in
  for _ = 1 to 5 do
    Locks.Probe.site both
  done;
  Alcotest.(check int) "chaos hook saw every mark" 5 !chaos_seen;
  Obs.Profile.disable ();
  for _ = 1 to 3 do
    Locks.Probe.site both
  done;
  Alcotest.(check int) "chaos hook survives profiler removal" 8 !chaos_seen;
  Locks.Probe.unsubscribe Chaos;
  let s = Obs.Profile.snapshot () in
  let e = List.find (fun e -> e.Obs.Profile.label = "t.both") s.sites in
  Alcotest.(check int) "profiler saw its window" 5 e.Obs.Profile.events

(* ------------------------------------------------------------------ *)
(* Instrumented wrapper *)

module I = Obs.Instrumented.Make (Core.Ms_queue)

let run_model ops =
  let q = Queue.create () and log = ref [] in
  List.iter
    (fun op ->
      let r =
        match op with
        | `Enq v ->
            Queue.push v q;
            `U
        | `Deq -> `D (Queue.take_opt q)
        | `Peek -> `D (Queue.peek_opt q)
        | `Empty -> `B (Queue.is_empty q)
      in
      log := r :: !log)
    ops;
  List.rev !log

let run_instrumented ops =
  let q = I.create () and log = ref [] in
  List.iter
    (fun op ->
      let r =
        match op with
        | `Enq v ->
            I.enqueue q v;
            `U
        | `Deq -> `D (I.dequeue q)
        | `Peek -> `D (I.peek q)
        | `Empty -> `B (I.is_empty q)
      in
      log := r :: !log)
    ops;
  List.rev !log

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           (4, map (fun v -> `Enq v) (int_range 0 1000));
           (4, return `Deq);
           (1, return `Peek);
           (1, return `Empty);
         ]))

let qcheck_instrumented_fifo =
  QCheck2.Test.make ~count:200
    ~name:"instrumented ms-queue random ops match FIFO model" ops_gen
    (fun ops ->
      Obs.Control.with_enabled (fun () -> run_instrumented ops = run_model ops))

let test_instrumented_counts () =
  Obs.Control.with_enabled (fun () ->
      let q = I.create () in
      let m = I.metrics q in
      Alcotest.(check (option int)) "empty dequeue" None (I.dequeue q);
      I.enqueue q 1;
      I.enqueue q 2;
      Alcotest.(check (option int)) "fifo" (Some 1) (I.dequeue q);
      Alcotest.(check int) "length forwards" 1 (I.length q);
      Alcotest.(check int) "enqueues" 2 (Obs.Counter.value m.Obs.Metrics.enqueues);
      Alcotest.(check int) "dequeues" 2 (Obs.Counter.value m.Obs.Metrics.dequeues);
      Alcotest.(check int) "empty dequeues" 1
        (Obs.Counter.value m.Obs.Metrics.empty_dequeues);
      Alcotest.(check int) "enqueue latencies sampled" 2
        (Obs.Histogram.count m.Obs.Metrics.enq_latency);
      Alcotest.(check int) "dequeue latencies sampled" 2
        (Obs.Histogram.count m.Obs.Metrics.deq_latency);
      Alcotest.(check int) "one retry histogram sample per op" 4
        (Obs.Histogram.count m.Obs.Metrics.retries_per_op))

let test_instrumented_disabled_is_inert () =
  Obs.Control.disable ();
  let q = I.create () in
  let m = I.metrics q in
  I.enqueue q 1;
  Alcotest.(check (option int)) "still a queue" (Some 1) (I.dequeue q);
  Alcotest.(check int) "no enqueues recorded" 0
    (Obs.Counter.value m.Obs.Metrics.enqueues);
  Alcotest.(check int) "no dequeues recorded" 0
    (Obs.Counter.value m.Obs.Metrics.dequeues);
  Alcotest.(check int) "no latencies recorded" 0
    (Obs.Histogram.count m.Obs.Metrics.enq_latency)

let test_instrumented_multi_domain () =
  Obs.Control.with_enabled (fun () ->
      let q = I.create () in
      let domains = 4 and per = 2_000 in
      let ds =
        List.init domains (fun i ->
            Domain.spawn (fun () ->
                for k = 1 to per do
                  I.enqueue q ((i * 1_000_000) + k);
                  let rec deq () =
                    match I.dequeue q with
                    | Some _ -> ()
                    | None ->
                        Domain.cpu_relax ();
                        deq ()
                  in
                  deq ()
                done))
      in
      List.iter Domain.join ds;
      let m = I.metrics q in
      Alcotest.(check int) "all enqueues counted" (domains * per)
        (Obs.Counter.value m.Obs.Metrics.enqueues);
      Alcotest.(check int) "non-empty dequeues = enqueues" (domains * per)
        (Obs.Counter.value m.Obs.Metrics.dequeues
        - Obs.Counter.value m.Obs.Metrics.empty_dequeues);
      Alcotest.(check bool) "queue drained" true (I.is_empty q))

let test_metrics_json () =
  Obs.Control.with_enabled (fun () ->
      let q = I.create () in
      I.enqueue q 1;
      ignore (I.dequeue q);
      let j = roundtrip (Obs.Metrics.to_json (I.metrics q)) in
      Alcotest.(check (option string)) "name" (Some Core.Ms_queue.name)
        Obs.Json.(Option.bind (member "name" j) to_string_opt);
      Alcotest.(check (option int)) "enqueues" (Some 1)
        Obs.Json.(Option.bind (member "enqueues" j) to_int_opt);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (Obs.Json.member k j <> None))
        [
          "dequeues"; "empty_dequeues"; "cas_retries"; "backoffs"; "helps";
          "enq_latency_ns"; "deq_latency_ns"; "retries_per_op";
        ])

let test_control_restores () =
  Alcotest.(check bool) "disabled by default" false (Obs.Control.enabled ());
  Obs.Control.with_enabled (fun () ->
      Alcotest.(check bool) "enabled inside" true (Obs.Control.enabled ()));
  Alcotest.(check bool) "restored" false (Obs.Control.enabled ());
  (try Obs.Control.with_enabled (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "restored after raise" false (Obs.Control.enabled ())

(* ------------------------------------------------------------------ *)
(* Footprint: per-domain rows are allocated by a slot's first write, so
   a structure nobody writes costs its slot tables. *)

let words x = Obj.reachable_words (Obj.repr x)

let at_most what ~bytes x =
  let got = words x * (Sys.word_size / 8) in
  if got > bytes then
    Alcotest.failf "%s reaches %d bytes, bound %d" what got bytes

(* [f ()] in a fresh domain whose id maps to another slot (modulo
   [slots]) than the calling domain's. *)
let rec in_other_slot ~slots f =
  let slot () = (Domain.self () :> int) land (slots - 1) in
  let mine = slot () in
  match Domain.join (Domain.spawn (fun () -> if slot () = mine then None else Some (f ()))) with
  | Some v -> v
  | None -> in_other_slot ~slots f

let test_rows_install_on_first_write () =
  let t = Obs.Rows.create ~slots:4 in
  let row = Obs.Rows.row t ~width:3 in
  Alcotest.(check int) "fresh: no rows" 0 (Obs.Rows.installed t);
  let r = row 1 in
  r.(0) <- 7;
  Alcotest.(check int) "one row after one write" 1 (Obs.Rows.installed t);
  Alcotest.(check int) "width cells" 3 (Array.length r);
  Alcotest.(check bool) "the same slot's row again" true (row 1 == r);
  Alcotest.(check bool) "a colliding id shares it" true (row 5 == r);
  (row 2).(0) <- 5;
  let slots = ref [] in
  Obs.Rows.iteri (fun s _ -> slots := s :: !slots) t;
  Alcotest.(check (list int)) "readers visit installed rows only" [ 1; 2 ]
    (List.rev !slots);
  Alcotest.(check int) "fold" 12 (Obs.Rows.fold (fun n r -> n + r.(0)) 0 t);
  List.iter
    (fun slots ->
      match Obs.Rows.create ~slots with
      | _ -> Alcotest.failf "create ~slots:%d accepted" slots
      | exception Invalid_argument _ -> ())
    [ 0; 3; -4 ]

(* One row per writing domain: the first write adds a row, later writes
   add nothing, and a second domain on another slot adds one more row
   of the same size. *)
let one_row_per_domain what ~slots ~fresh_bytes ~row_bytes create write =
  let x = create () in
  at_most ("fresh " ^ what) ~bytes:fresh_bytes x;
  let fresh = words x in
  write x;
  let one = words x in
  let row = one - fresh in
  if row <= 0 || row * (Sys.word_size / 8) > row_bytes then
    Alcotest.failf "%s: the first write added %d words" what row;
  write x;
  Alcotest.(check int) (what ^ ": a second write adds no row") one (words x);
  in_other_slot ~slots (fun () -> write x);
  Alcotest.(check int)
    (what ^ ": a second domain adds one row")
    (one + row) (words x)

let test_counter_footprint () =
  one_row_per_domain "counter" ~slots:128 ~fresh_bytes:2048 ~row_bytes:256
    Obs.Counter.create Obs.Counter.incr

let test_histogram_footprint () =
  one_row_per_domain "histogram" ~slots:64 ~fresh_bytes:1024 ~row_bytes:1024
    Obs.Histogram.create (fun h -> Obs.Histogram.record h 100)

(* The layers above shrink with no change of their own: before rows were
   allocated on first write these read 211 KB, 292 KB and 3.47 MB. *)
let test_layer_footprints () =
  at_most "fresh Metrics.t" ~bytes:(12 * 1024) (Obs.Metrics.create "m");
  at_most "fresh Resilient engine" ~bytes:(20 * 1024)
    (Resilience.Resilient.Engine.create ~name:"e" ());
  at_most "default fabric" ~bytes:(1100 * 1024)
    (Fabric.Queue_fabric.create () : int Fabric.Queue_fabric.t)

(* The profiler's per-domain state is a row installed by the domain's
   first mark, so [reset] swaps in an empty row table and two empty
   label tables.  Rebuilding 64 per-domain slots up front, as it once
   did, cost about 7.5k words. *)
let test_profile_reset_allocates_little () =
  let w0 = Gc.minor_words () in
  Obs.Profile.reset ();
  let words = Gc.minor_words () -. w0 in
  if words >= 512. then
    Alcotest.failf "Profile.reset allocates %.0f minor words (bound 512)" words

(* Two domains on distinct slots writing at once: no row is shared, so
   the totals are exact. *)
let test_two_domains_exact () =
  let c = Obs.Counter.create () and h = Obs.Histogram.create () in
  let per = 20_000 in
  let go = Atomic.make false in
  let body () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    for i = 1 to per do
      Obs.Counter.incr c;
      Obs.Histogram.record h i
    done;
    (Domain.self () :> int)
  in
  let d1 = Domain.spawn body and d2 = Domain.spawn body in
  Atomic.set go true;
  let id1 = Domain.join d1 and id2 = Domain.join d2 in
  (* 64 divides 128: distinct histogram slots imply distinct counter ones *)
  Alcotest.(check bool) "writers on distinct slots" true ((id1 - id2) land 63 <> 0);
  Alcotest.(check int) "counter total" (2 * per) (Obs.Counter.value c);
  Alcotest.(check int) "histogram count" (2 * per) (Obs.Histogram.count h);
  Alcotest.(check int) "histogram sum" (per * (per + 1)) (Obs.Histogram.sum h)

let suites =
  [
    ( "obs.footprint",
      [
        Alcotest.test_case "rows installed on first write" `Quick
          test_rows_install_on_first_write;
        Alcotest.test_case "counter: one row per writing domain" `Quick
          test_counter_footprint;
        Alcotest.test_case "histogram: one row per writing domain" `Quick
          test_histogram_footprint;
        Alcotest.test_case "metrics, engine and fabric bounds" `Quick
          test_layer_footprints;
        Alcotest.test_case "profile reset allocates under 512 words" `Quick
          test_profile_reset_allocates_little;
        Alcotest.test_case "two domains on distinct slots exact" `Quick
          test_two_domains_exact;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "obs.counter",
      [
        Alcotest.test_case "basics" `Quick test_counter_basics;
        Alcotest.test_case "multi-domain" `Quick test_counter_multi_domain;
      ] );
    ( "obs.histogram",
      [
        Alcotest.test_case "bucketing" `Quick test_histogram_buckets;
        Alcotest.test_case "record and merge" `Quick
          test_histogram_record_and_merge;
        Alcotest.test_case "percentile" `Quick test_histogram_percentile;
        Alcotest.test_case "exact sum and mean" `Quick test_histogram_sum_mean;
        Alcotest.test_case "json" `Quick test_histogram_json;
      ] );
    ( "obs.chrome_trace",
      [
        Alcotest.test_case "export parses and validates" `Quick
          test_chrome_trace_roundtrip;
        Alcotest.test_case "hit/miss annotations" `Quick
          test_chrome_trace_hit_annotations;
        Alcotest.test_case "nested phase events bracket" `Quick
          test_chrome_trace_phase_events;
      ] );
    ( "obs.profile",
      [
        Alcotest.test_case "site attribution" `Quick test_profile_sites;
        Alcotest.test_case "phase spans" `Quick test_profile_phases;
        Alcotest.test_case "diff and json" `Quick test_profile_diff_and_json;
        Alcotest.test_case "multi-domain aggregation" `Quick
          test_profile_multi_domain;
        Alcotest.test_case "composes with chaos hook" `Quick
          test_profile_composes_with_chaos_hook;
      ] );
    ( "obs.instrumented",
      [
        QCheck_alcotest.to_alcotest qcheck_instrumented_fifo;
        Alcotest.test_case "counts attributed" `Quick test_instrumented_counts;
        Alcotest.test_case "disabled path inert" `Quick
          test_instrumented_disabled_is_inert;
        Alcotest.test_case "multi-domain" `Quick test_instrumented_multi_domain;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "control restores" `Quick test_control_restores;
      ] );
  ]
