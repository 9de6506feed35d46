(* The resilience layer: deadlines, bounded retry with backoff, shed
   policies, and the per-direction circuit breaker — plus the
   observability satellites it leans on (Histogram.quantile/p999,
   Backoff reseeding). *)

module R = Resilience.Resilient
module RQ = R.Make_bounded (Core.Queue_intf.Unbounded (Core.Ms_queue))
module RB = R.Make_bounded (Core.Scq_queue)

(* An unbounded queue's enqueue goes through the engine too, and is
   never refused. *)
let enq t v =
  match RQ.try_enqueue t v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unbounded enqueue refused: %s" (R.error_to_string e)

(* A hair-trigger config so unit tests visit every outcome fast. *)
let quick =
  {
    R.default with
    deadline_ns = 100_000;
    max_retries = 0;
    breaker_threshold = 3;
    breaker_cooldown_ns = 1_000;
  }

(* ------------------------------------------------------------------ *)
(* Histogram quantiles (satellite of this layer's reporting) *)

let test_quantile () =
  let h = Obs.Histogram.create () in
  Alcotest.(check (option int)) "empty" None (Obs.Histogram.quantile h 0.5);
  for v = 1 to 1000 do
    Obs.Histogram.record h v
  done;
  let get q = Option.get (Obs.Histogram.quantile h q) in
  (* bucketed: exact to within a factor of two, and monotone in q *)
  Alcotest.(check bool) "p50 within 2x" true (get 0.5 >= 500 && get 0.5 < 1024);
  Alcotest.(check bool) "p999 within 2x" true (get 0.999 >= 999 && get 0.999 < 2048);
  Alcotest.(check bool) "monotone" true (get 0.5 <= get 0.9 && get 0.9 <= get 1.0);
  Alcotest.(check (option int))
    "p999 = quantile 0.999"
    (Obs.Histogram.quantile h 0.999)
    (Obs.Histogram.p999 h);
  Alcotest.(check (option int))
    "percentile is quantile/100"
    (Obs.Histogram.quantile h 0.99)
    (Obs.Histogram.percentile h 99.);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile") (fun () ->
      ignore (Obs.Histogram.quantile h 1.5))

let test_profile_p999 () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let l = Locks.Probe.label "resilience.test" in
  Locks.Probe.phase_begin l;
  Locks.Probe.phase_end l;
  Obs.Profile.disable ();
  let snap = Obs.Profile.snapshot () in
  match
    List.find_opt
      (fun (e : Obs.Profile.entry) -> e.label = "resilience.test")
      snap.Obs.Profile.phases
  with
  | None -> Alcotest.fail "phase span not captured"
  | Some e ->
      Alcotest.(check bool) "p999 populated" true (Obs.Profile.p999 e <> None)

let test_backoff_reseed () =
  (* reseeding is part of the deterministic-soak contract; it must be
     callable at any time and leave backoff functional *)
  Locks.Backoff.reseed 0xDEADBEEFL;
  let b = Locks.Backoff.create ~initial:2 ~limit:8 () in
  for _ = 1 to 5 do
    Locks.Backoff.once b
  done;
  Locks.Backoff.reset b;
  Locks.Backoff.once b;
  (* restore the default streams for every other test *)
  Locks.Backoff.reseed 0x6A697474L

(* ------------------------------------------------------------------ *)
(* Error paths of the engine *)

let test_fail_fast () =
  let t = RQ.create ~config:{ quick with R.policy = R.Fail_fast } () in
  (match RQ.try_dequeue t with
  | Error R.Rejected -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty dequeue should fail fast");
  Alcotest.(check bool) "rejection counted" true ((RQ.outcomes t).R.rejections >= 1)

let test_shed () =
  let t = RQ.create ~config:{ quick with R.max_retries = 2 } () in
  (match RQ.try_dequeue t with
  | Error R.Shedded -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty dequeue should shed");
  Alcotest.(check bool) "shed counted" true ((RQ.outcomes t).R.sheds >= 1)

let test_deadline () =
  (* unbounded retries: only the deadline can end the operation *)
  let t = RQ.create ~config:{ quick with R.max_retries = -1 } () in
  (match RQ.try_dequeue t with
  | Error R.Timed_out -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty dequeue should time out");
  Alcotest.(check bool) "timeout counted" true ((RQ.outcomes t).R.timeouts >= 1)

let test_unbounded_retries_wait () =
  (* [Shed] without a retry bound holds an empty dequeue for its whole
     deadline: the verdict comes no sooner than the budget *)
  let t =
    RQ.create
      ~config:
        {
          quick with
          R.deadline_ns = 1_000_000;
          max_retries = -1;
          breaker_threshold = 0;
        }
      ()
  in
  let t0 = Obs.Clock.now_ns () in
  (match RQ.try_dequeue t with
  | Error R.Timed_out -> ()
  | Ok _ -> Alcotest.fail "an empty queue dequeued"
  | Error e -> Alcotest.failf "expected a timeout, got %s" (R.error_to_string e));
  Alcotest.(check bool) "waited the whole 1 ms deadline" true
    (Obs.Clock.now_ns () - t0 >= 1_000_000)

let test_success_resets () =
  let t = RQ.create ~config:quick () in
  enq t 42;
  (match RQ.try_dequeue t with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "value should come back");
  Alcotest.(check bool) "no outcome counted on success" true
    ((RQ.outcomes t).R.sheds = 0 && (RQ.outcomes t).R.timeouts = 0)

let test_deadline_from_first_refusal () =
  (* the budget starts at the first refusal: a slow first attempt does
     not use it up *)
  let e =
    R.Engine.create
      ~config:{ quick with R.deadline_ns = 5_000_000; R.max_retries = -1 }
      ~name:"deadline" ()
  in
  let calls = ref 0 in
  let slow_then_ready () =
    incr calls;
    if !calls = 1 then begin
      Unix.sleepf 0.02;
      None
    end
    else Some ()
  in
  (match R.Engine.enqueue e slow_then_ready with
  | Ok () -> ()
  | Error err ->
      Alcotest.failf "retry after a slow refusal failed: %s"
        (R.error_to_string err));
  Alcotest.(check int) "refused once, then succeeded" 2 !calls

(* ------------------------------------------------------------------ *)
(* The engine's cost and its switch: a first-try success allocates
   only its [Ok]; the metrics follow [Obs.Control], the outcomes do
   not *)

let pairs = 10_000

let minor_words_per_pair enq deq =
  let w0 = Gc.minor_words () in
  for i = 1 to pairs do
    enq i;
    deq ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int pairs

let test_first_try_allocation () =
  Alcotest.(check bool) "metrics off" false (Obs.Control.enabled ());
  let bare = Core.Scq_queue.create () in
  let bare_words =
    minor_words_per_pair
      (fun i -> ignore (Core.Scq_queue.try_enqueue bare i))
      (fun () -> ignore (Core.Scq_queue.try_dequeue bare))
  in
  let t = RB.create () in
  let wrapped_words =
    minor_words_per_pair
      (fun i ->
        match RB.try_enqueue t i with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "enqueue refused")
      (fun () ->
        match RB.try_dequeue t with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "dequeue refused")
  in
  let extra = wrapped_words -. bare_words in
  if extra > 20. then
    Alcotest.failf "engine allocates %.1f minor words per pair (> 20)" extra

let run_pairs t n =
  for i = 1 to n do
    ignore (RB.try_enqueue t i);
    ignore (RB.try_dequeue t)
  done

let op_counts t =
  let m = RB.metrics t in
  Obs.
    [
      Counter.value m.Metrics.enqueues;
      Counter.value m.Metrics.dequeues;
      Histogram.count m.Metrics.enq_latency;
      Histogram.count m.Metrics.deq_latency;
    ]

let test_metrics_follow_control () =
  let n = 100 in
  let off = RB.create () in
  run_pairs off n;
  Alcotest.(check (list int)) "metrics off: nothing recorded" [ 0; 0; 0; 0 ]
    (op_counts off);
  let ff = RB.create ~config:{ quick with R.policy = R.Fail_fast } () in
  (match RB.try_dequeue ff with
  | Error R.Rejected -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty dequeue should fail fast");
  Alcotest.(check int) "outcomes stay on" 1 (RB.outcomes ff).R.rejections;
  let on = RB.create () in
  Obs.Control.with_enabled (fun () -> run_pairs on n);
  Alcotest.(check (list int)) "metrics on: every op recorded" [ n; n; n; n ]
    (op_counts on)

let test_straddling_op_records_nothing () =
  let e = R.Engine.create ~name:"straddle" () in
  Fun.protect ~finally:Obs.Control.disable (fun () ->
      match
        R.Engine.enqueue e (fun () ->
            Obs.Control.enable ();
            Some ())
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "enqueue refused");
  let m = R.Engine.metrics e in
  Alcotest.(check int) "no latency sample" 0
    (Obs.Histogram.count m.Obs.Metrics.enq_latency);
  Alcotest.(check int) "no op counted" 0
    (Obs.Counter.value m.Obs.Metrics.enqueues)

let test_raising_attempt () =
  (* the phase bracket closes on the fast path and on a half-open
     probe, and a probe that dies re-opens the circuit *)
  let depth = ref 0 in
  let res_deq = Locks.Probe.label "res.deq" in
  Locks.Probe.subscribe Profile (fun ev label ->
      if label = res_deq then
        match ev with
        | Begin -> incr depth
        | End -> decr depth
        | Site -> ());
  Fun.protect ~finally:(fun () -> Locks.Probe.unsubscribe Profile) (fun () ->
      let e = R.Engine.create ~config:quick ~name:"raise" () in
      let boom () = failwith "boom" in
      (match R.Engine.dequeue e boom with
      | _ -> Alcotest.fail "the attempt's exception must propagate"
      | exception Failure _ -> ());
      Alcotest.(check int) "phase closed (fast path)" 0 !depth;
      for _ = 1 to 3 do
        ignore (R.Engine.dequeue e (fun () -> None))
      done;
      Alcotest.(check bool) "tripped" true
        (R.Engine.breaker_state e `Deq = R.Open);
      Unix.sleepf 0.001;
      (match R.Engine.dequeue e boom with
      | _ -> Alcotest.fail "the probe's exception must propagate"
      | exception Failure _ -> ());
      Alcotest.(check int) "phase closed (probe)" 0 !depth;
      Alcotest.(check bool) "dead probe re-opens" true
        (R.Engine.breaker_state e `Deq = R.Open))

(* ------------------------------------------------------------------ *)
(* Circuit breaker: trip, reject while open, half-open probe, recover *)

let test_success_ends_refusal_run () =
  (* refusals trip only when consecutive: a success in between resets
     the run *)
  let t = RQ.create ~config:{ quick with R.policy = R.Fail_fast } () in
  let refuse () = ignore (RQ.try_dequeue t) in
  refuse ();
  refuse ();
  enq t 1;
  (match RQ.try_dequeue t with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "value should come back");
  refuse ();
  refuse ();
  Alcotest.(check bool) "still closed" true (RQ.breaker_state t `Deq = R.Closed);
  refuse ();
  Alcotest.(check bool) "third consecutive refusal trips" true
    (RQ.breaker_state t `Deq = R.Open)

let test_breaker_trip_and_recover () =
  let t = RQ.create ~config:quick () in
  Alcotest.(check bool) "starts closed" true (RQ.breaker_state t `Deq = R.Closed);
  (* three shed operations = three consecutive refusals: trips *)
  for _ = 1 to 3 do
    ignore (RQ.try_dequeue t)
  done;
  Alcotest.(check bool) "tripped open" true (RQ.breaker_state t `Deq = R.Open);
  Alcotest.(check int) "one trip counted" 1 (RQ.outcomes t).R.breaker_trips;
  (* after the cooldown a half-open probe is admitted; a successful
     probe closes the circuit *)
  Unix.sleepf 0.001;
  enq t 7;
  (match RQ.try_dequeue t with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "half-open probe should succeed");
  Alcotest.(check bool) "recovered closed" true
    (RQ.breaker_state t `Deq = R.Closed);
  Alcotest.(check int) "recovery counted" 1
    (RQ.outcomes t).R.breaker_recoveries

let test_breaker_failed_probe_reopens () =
  let t = RQ.create ~config:quick () in
  for _ = 1 to 3 do
    ignore (RQ.try_dequeue t)
  done;
  Alcotest.(check bool) "tripped" true (RQ.breaker_state t `Deq = R.Open);
  Unix.sleepf 0.001;
  (* the probe finds the queue still empty: refused, breaker re-opens *)
  (match RQ.try_dequeue t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probe on an empty queue cannot succeed");
  Alcotest.(check bool) "re-opened" true (RQ.breaker_state t `Deq = R.Open);
  Alcotest.(check bool) "re-trip counted" true
    ((RQ.outcomes t).R.breaker_trips >= 2)

let test_breaker_directions_independent () =
  let t = RB.create ~config:quick ~capacity:4 () in
  (* storm the empty-dequeue side until its breaker trips *)
  for _ = 1 to 3 do
    ignore (RB.try_dequeue t)
  done;
  Alcotest.(check bool) "deq breaker open" true
    (RB.breaker_state t `Deq = R.Open);
  (* enqueues must still be admitted — they are what refills the queue *)
  (match RB.try_enqueue t 1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enqueue side must not be tripped");
  Alcotest.(check bool) "enq breaker closed" true
    (RB.breaker_state t `Enq = R.Closed)

let test_breaker_disabled () =
  (* [breaker_threshold = 0], as the fabric's dequeue engine runs: a
     refusal run of any length leaves the circuit closed, so a long
     cooldown never delays the poll after an arrival *)
  let t =
    RQ.create
      ~config:
        {
          quick with
          R.policy = R.Fail_fast;
          breaker_threshold = 0;
          breaker_cooldown_ns = 1_000_000_000;
        }
      ()
  in
  for _ = 1 to 100 do
    ignore (RQ.try_dequeue t)
  done;
  Alcotest.(check bool) "still closed" true (RQ.breaker_state t `Deq = R.Closed);
  Alcotest.(check int) "no trip" 0 (RQ.outcomes t).R.breaker_trips;
  enq t 1;
  match RQ.try_dequeue t with
  | Ok 1 -> ()
  | Ok _ -> Alcotest.fail "wrong value"
  | Error e ->
      Alcotest.failf "the poll after an arrival failed: %s"
        (R.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Bounded wrapper: full-side refusals *)

let test_bounded_full_path () =
  let t = RB.create ~config:{ quick with R.breaker_threshold = 0 } ~capacity:4 () in
  let cap = RB.capacity t in
  for i = 1 to cap do
    match RB.try_enqueue t i with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "enqueue under capacity refused"
  done;
  (match RB.try_enqueue t 999 with
  | Error R.Shedded -> ()
  | Ok () -> Alcotest.fail "enqueue past capacity admitted"
  | Error _ -> Alcotest.fail "expected a shed on the full path");
  (* FIFO comes back out *)
  for i = 1 to cap do
    match RB.try_dequeue t with
    | Ok v -> Alcotest.(check int) "fifo" i v
    | Error _ -> Alcotest.fail "dequeue of a full queue refused"
  done

(* ------------------------------------------------------------------ *)
(* Budgets near [max_int] saturate instead of wrapping into the past *)

let test_deadline_max_int () =
  (* a deadline past [max_int] ns is no deadline: the retry budget
     decides, as with [deadline_ns = 0] *)
  let t =
    RB.create
      ~config:
        { R.default with R.deadline_ns = max_int; backoff_initial = 1; backoff_limit = 1 }
      ()
  in
  (match RB.try_dequeue t with
  | Error R.Shedded -> ()
  | Ok _ -> Alcotest.fail "an empty queue dequeued"
  | Error e ->
      Alcotest.failf "expected a shed after the retry budget, got %s"
        (R.error_to_string e));
  Alcotest.(check int) "no timeout" 0 (RB.outcomes t).R.timeouts

(* ------------------------------------------------------------------ *)
(* A dequeue hint keeps every limit, and without a deadline every
   verdict and count; under a deadline it can change which limit an
   operation meets first *)

let test_deq_hint_same_verdicts () =
  (* no deadline, so the retry budget decides; a long cooldown, so the
     ops after the trip are rejected whatever their timing *)
  let config =
    { R.default with R.deadline_ns = 0; breaker_cooldown_ns = 1_000_000_000 }
  in
  let tests = ref 0 in
  let hinted =
    R.Engine.create ~config
      ~deq_hint:(fun () ->
        incr tests;
        true)
      ~name:"hinted" ()
  in
  let blind = R.Engine.create ~config ~name:"blind" () in
  let empty () = None in
  let verdicts e =
    Obs.Control.with_enabled (fun () ->
        List.init 3 (fun _ ->
            match R.Engine.dequeue e empty with
            | Ok () -> "ok"
            | Error err -> R.error_to_string err))
  in
  let v_hinted = verdicts hinted and v_blind = verdicts blind in
  Alcotest.(check (list string)) "blind verdicts"
    [ "shedded"; "rejected"; "rejected" ] v_blind;
  Alcotest.(check (list string)) "same verdicts" v_blind v_hinted;
  Alcotest.(check bool) "the hint was tested" true (!tests > 0);
  let counts e =
    let o = R.Engine.outcomes e in
    [
      Obs.Counter.value (R.Engine.metrics e).Obs.Metrics.empty_dequeues;
      o.R.sheds;
      o.R.rejections;
      o.R.timeouts;
      o.R.breaker_trips;
    ]
  in
  Alcotest.(check (list int)) "same refusal and trip counts" (counts blind)
    (counts hinted);
  (* the enqueue direction never tests it *)
  let before = !tests in
  ignore (R.Engine.enqueue hinted empty);
  Alcotest.(check int) "enqueues spin blind" before !tests

let test_deq_hint_deadline () =
  (* A backoff bound of 2^22 relaxes: the blind spin's 64 retries
     outlast a 50 ms deadline on any host (on average two spins do),
     while a hint that always reads [true] on an always-empty attempt
     spends the 64 retries at once. *)
  let config =
    {
      R.default with
      R.deadline_ns = 50_000_000;
      backoff_initial = 1 lsl 22;
      backoff_limit = 1 lsl 22;
    }
  in
  let verdict e =
    match R.Engine.dequeue e (fun () -> None) with
    | Ok () -> "ok"
    | Error err -> R.error_to_string err
  in
  Alcotest.(check string) "blind: the deadline first" "timed_out"
    (verdict (R.Engine.create ~config ~name:"blind" ()));
  Alcotest.(check string) "hinted: the retry budget first" "shedded"
    (verdict
       (R.Engine.create ~config ~deq_hint:(fun () -> true) ~name:"hinted" ()))

let test_to_json () =
  let t = RQ.create ~config:quick () in
  enq t 1;
  ignore (RQ.try_dequeue t);
  ignore (RQ.try_dequeue t);
  let j = RQ.to_json t in
  (* round-trips through the parser and carries the outcome section *)
  let s = Obs.Json.to_string j in
  match Obs.Json.of_string_opt s with
  | None -> Alcotest.fail "to_json emitted invalid JSON"
  | Some j' ->
      Alcotest.(check bool) "outcomes present" true
        (Obs.Json.member "outcomes" j' <> None)

(* ------------------------------------------------------------------ *)
(* Properties: the wrapper preserves the queue's semantics, including
   under chaos perturbation *)

let prop_wrapper_fifo =
  QCheck2.Test.make ~count:50 ~name:"resilient wrapper preserves FIFO"
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let t = RQ.create () in
      List.iter (enq t) l;
      let out =
        List.init (List.length l) (fun _ ->
            match RQ.try_dequeue t with Ok v -> Some v | Error _ -> None)
      in
      out = List.map Option.some l && RQ.try_dequeue t <> Ok 0)

let prop_wrapper_conservation_chaos =
  QCheck2.Test.make ~count:10
    ~name:"resilient 2-domain conservation under chaos"
    QCheck2.Gen.(list_size (int_range 1 300) small_nat)
    (fun l ->
      Obs.Chaos.with_enabled ~seed:0x52455354L (fun () ->
          let t = RQ.create () in
          let n = List.length l in
          let consumer =
            Domain.spawn (fun () ->
                let got = ref [] in
                let missing = ref n in
                while !missing > 0 do
                  match RQ.try_dequeue t with
                  | Ok v ->
                      got := v :: !got;
                      decr missing
                  | Error _ -> Domain.cpu_relax ()
                done;
                List.rev !got)
          in
          List.iter (enq t) l;
          let got = Domain.join consumer in
          (* single producer, single consumer: exact order *)
          got = l && RQ.queue t |> Core.Ms_queue.is_empty))

let suites =
  [
    ( "resilience",
      [
        Alcotest.test_case "histogram quantile/p999" `Quick test_quantile;
        Alcotest.test_case "profile p999 column" `Quick test_profile_p999;
        Alcotest.test_case "backoff reseed" `Quick test_backoff_reseed;
        Alcotest.test_case "fail-fast" `Quick test_fail_fast;
        Alcotest.test_case "shed after retry budget" `Quick test_shed;
        Alcotest.test_case "deadline times out" `Quick test_deadline;
        Alcotest.test_case "unbounded retries wait out the deadline" `Quick
          test_unbounded_retries_wait;
        Alcotest.test_case "success leaves no outcome" `Quick test_success_resets;
        Alcotest.test_case "deadline runs from the first refusal" `Quick
          test_deadline_from_first_refusal;
        Alcotest.test_case "first-try success allocates only Ok" `Quick
          test_first_try_allocation;
        Alcotest.test_case "metrics follow Obs.Control" `Quick
          test_metrics_follow_control;
        Alcotest.test_case "straddling op records nothing" `Quick
          test_straddling_op_records_nothing;
        Alcotest.test_case "raising attempt closes its phase" `Quick
          test_raising_attempt;
        Alcotest.test_case "success ends the refusal run" `Quick
          test_success_ends_refusal_run;
        Alcotest.test_case "breaker trip + recover" `Quick
          test_breaker_trip_and_recover;
        Alcotest.test_case "failed probe re-opens" `Quick
          test_breaker_failed_probe_reopens;
        Alcotest.test_case "breaker directions independent" `Quick
          test_breaker_directions_independent;
        Alcotest.test_case "threshold 0 never trips" `Quick
          test_breaker_disabled;
        Alcotest.test_case "bounded full path" `Quick test_bounded_full_path;
        Alcotest.test_case "deadline of max_int saturates" `Quick
          test_deadline_max_int;
        Alcotest.test_case "dequeue hint without a deadline keeps verdicts"
          `Quick test_deq_hint_same_verdicts;
        Alcotest.test_case "dequeue hint under a deadline sheds sooner" `Quick
          test_deq_hint_deadline;
        Alcotest.test_case "to_json round-trip" `Quick test_to_json;
        QCheck_alcotest.to_alcotest prop_wrapper_fifo;
        QCheck_alcotest.to_alcotest prop_wrapper_conservation_chaos;
      ] );
  ]
