(* Unit tests for the benchmark's own helpers: exact percentiles and
   the span recorder. *)

open Perfbench

let ints = Alcotest.(array int)
let one_to n = Array.init n (fun i -> i + 1)

let test_rank () =
  Alcotest.(check int) "p99 of 100 is the 99th" 99 (Stats.rank ~n:100 9_900);
  Alcotest.(check int) "p99.9 of 1000 is the 999th" 999 (Stats.rank ~n:1000 9_990);
  Alcotest.(check int) "p99.9 of 100 is the last" 100 (Stats.rank ~n:100 9_990);
  Alcotest.(check int) "p50 of 4 is the 2nd" 2 (Stats.rank ~n:4 5_000);
  Alcotest.(check int) "p50 of 3 is the 2nd" 2 (Stats.rank ~n:3 5_000);
  Alcotest.(check int) "p0 is the first" 1 (Stats.rank ~n:10 0);
  Alcotest.(check int) "one sample" 1 (Stats.rank ~n:1 9_990);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples")
    (fun () -> ignore (Stats.rank ~n:0 5_000))

let test_percentile () =
  let s = Stats.sorted_ints (Array.init 100 (fun i -> 100 - i)) 100 in
  Alcotest.check ints "sorted copy" (one_to 100) s;
  Alcotest.(check int) "p50" 50 (Stats.percentile s 5_000);
  Alcotest.(check int) "p99" 99 (Stats.percentile s 9_900);
  Alcotest.(check int) "p99.9" 100 (Stats.percentile s 9_990);
  Alcotest.check ints "prefix only" [| 3; 5 |] (Stats.sorted_ints [| 5; 3; 1 |] 2)

let test_beyond () =
  let s = [| 1; 1; 1; 2 |] in
  Alcotest.(check int) "ties are not beyond" 1 (Stats.beyond s 1);
  Alcotest.(check int) "nothing beyond the max" 0 (Stats.beyond s 2);
  Alcotest.(check int) "everything beyond" 4 (Stats.beyond s 0);
  Alcotest.(check int) "p50 of ties" 1 (Stats.percentile s 5_000)

let test_summary () =
  let s = Stats.summarize (one_to 1000) in
  Alcotest.(check int) "count" 1000 s.count;
  let p q = Stats.find s q in
  Alcotest.(check (pair int int)) "p50" (500, 500) ((p 5_000).value, (p 5_000).beyond);
  Alcotest.(check (pair int int)) "p99" (990, 10) ((p 9_900).value, (p 9_900).beyond);
  Alcotest.(check (pair int int)) "p99.9" (999, 1) ((p 9_990).value, (p 9_990).beyond);
  Alcotest.(check int) "empty summary" 0 (List.length (Stats.summarize [||]).points);
  Alcotest.(check string) "label" "p99.9" (Stats.label 9_990);
  Alcotest.(check string) "label" "p50" (Stats.label 5_000)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check int) "ints, unsorted" 3 (Stats.median_ints [| 5; 1; 3; 4; 2 |]);
  Alcotest.(check int) "ints, none" 0 (Stats.median_ints [||])

let test_spans () =
  let name = Spans.intern "test.call" and other = Spans.intern "test.other" in
  Alcotest.(check int) "interning is idempotent" name (Spans.intern "test.call");
  let t = Spans.create ~cap:2 in
  let root = Spans.enter t.main ~name:other ~parent:Spans.none ~item:0 100 in
  Spans.add t.aux ~name ~parent:root ~item:7 ~start:110 ~stop:150;
  Spans.add t.aux ~name ~parent:root ~item:Spans.none ~start:160 ~stop:165;
  Spans.add t.aux ~name ~parent:root ~item:8 ~start:170 ~stop:171;
  Spans.leave t.main root 200;
  Alcotest.(check int) "recorded" 3 (Spans.recorded t);
  Alcotest.(check int) "full buffer drops" 1 (Spans.dropped t);
  Alcotest.check ints "durations by name" [| 40; 5 |] (Spans.durations t name);
  Alcotest.check ints "filtered by item" [| 40 |]
    (Spans.durations ~item:(fun i -> i >= 0) t name);
  Alcotest.check ints "enclosing span" [| 100 |] (Spans.durations t other);
  match Spans.to_chrome ~per_name:1 ~other:[] t with
  | Obs.Json.Assoc fields -> (
      match List.assoc "traceEvents" fields with
      | List events ->
          (* two thread names plus one span of each name *)
          Alcotest.(check int) "capped per name" 4 (List.length events)
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace is not an object"

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "beyond" `Quick test_beyond;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("spans", [ Alcotest.test_case "record and export" `Quick test_spans ]);
    ]
