(* serve: a user's view of the default fabric under an open loop.

   One producer domain fires seeded Poisson arrivals
   ([Harness.Open_loop.schedule]) into the default
   [Fabric.Queue_fabric] (8 bounded SCQ shards, [Shed] policy) with
   [Obs.Flight] on, as shipped; one consumer domain polls
   [try_dequeue].  The rate is light, so the consumer is mostly idle
   and the run exercises what [pairs]' end-to-end metric never does:
   the resilience engine's refusal and backoff path on an empty fabric
   and the enabled flight hooks.  At this rate the exact p50 is steady;
   the tail is host steal and GC, so it is a diagnostic only.

   The payload is the arrival index and an item is due at run start
   plus its schedule offset, so sojourn is measured from the due time
   and a lagging generator shows as latency, not as a lighter load.

   Items cannot be repeated, so host interference is filtered over
   time instead: the end-to-end figure is the 10th percentile, over
   windows of [window] consecutive arrivals (about 10 ms), of each
   window's exact sojourn p50.  The tail diagnostics pool every
   item. *)

open Common
module F = Fabric.Queue_fabric

let rate = 100_000.
let warmup_pairs = 20_000
let grace_ns = 5_000_000_000
let window = 1_000
let n_round = Spans.intern "serve.round"
let n_enq = Spans.intern "serve.try_enqueue"
let n_deq = Spans.intern "serve.try_dequeue"

type round = {
  offsets : int array;
  fab : int F.t;
  sojourn : int array;
  late : int array;
  seen : Bytes.t;  (** the delivery bitmap: one byte per arrival *)
  warm_ok : bool;
}

let setup ~seed ~round ~arrivals =
  let cfg =
    {
      Harness.Open_loop.default with
      seed = derive seed round;
      rate;
      arrivals;
      producers = 1;
      consumers = 1;
    }
  in
  let offsets = (Harness.Open_loop.schedule cfg).(0) in
  let fab = F.create () in
  Obs.Flight.enable ();
  (* Warm-up: pairs in this domain; an empty fabric hands each value
     straight back. *)
  let warm_ok = ref true in
  for i = 0 to warmup_pairs - 1 do
    (match F.try_enqueue fab i with Ok () -> () | Error _ -> warm_ok := false);
    match F.try_dequeue fab with
    | Ok v when v = i -> ()
    | Ok _ | Error _ -> warm_ok := false
  done;
  {
    offsets;
    fab;
    sojourn = Array.make arrivals 0;
    late = Array.make arrivals 0;
    seen = Bytes.make arrivals '\000';
    warm_ok = !warm_ok;
  }

type tally = {
  accepted : int;
  delivered : int;  (** distinct arrivals delivered *)
  duplicates : int;
  strays : int;  (** values that were never enqueued *)
  hits : int;
  misses : int;
  flight_events : int;
}

let measure ctx ~parent rd =
  let n = Array.length rd.offsets in
  let spans = ctx.spans in
  let ready = Atomic.make false and start = Atomic.make 0 in
  let accepted_final = Atomic.make (-1) in
  let consumer () =
    Atomic.set ready true;
    while Atomic.get start = 0 do
      Domain.cpu_relax ()
    done;
    let t0 = Atomic.get start in
    let delivered = ref 0 and dups = ref 0 and strays = ref 0 in
    let hits = ref 0 and misses = ref 0 in
    let give_up = ref max_int and finished = ref false in
    while not !finished do
      let c0 = now_ns () in
      (match F.try_dequeue rd.fab with
      | Ok i ->
          let t = now_ns () in
          incr hits;
          if i < 0 || i >= n then incr strays
          else if Bytes.get rd.seen i <> '\000' then incr dups
          else begin
            Bytes.set rd.seen i '\001';
            rd.sojourn.(i) <- t - (t0 + rd.offsets.(i));
            incr delivered
          end;
          (match spans with
          | None -> ()
          | Some s -> Spans.add s.aux ~name:n_deq ~parent ~item:i ~start:c0 ~stop:t)
      | Error _ -> (
          incr misses;
          match spans with
          | None -> ()
          | Some s ->
              Spans.add s.aux ~name:n_deq ~parent ~item:Spans.none ~start:c0
                ~stop:(now_ns ())));
      let acc = Atomic.get accepted_final in
      if acc >= 0 then
        if !delivered >= acc then finished := true
        else if !give_up = max_int then give_up := now_ns () + grace_ns
        else if now_ns () > !give_up then finished := true
    done;
    (!delivered, !dups, !strays, !hits, !misses)
  in
  let recorded0 = Obs.Flight.recorded () in
  let d = Domain.spawn consumer in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let t0 = now_ns () + 100_000 in
  Atomic.set start t0;
  let accepted = ref 0 in
  for i = 0 to n - 1 do
    let due = t0 + rd.offsets.(i) in
    let now = ref (now_ns ()) in
    while !now < due do
      Domain.cpu_relax ();
      now := now_ns ()
    done;
    rd.late.(i) <- !now - due;
    (match F.try_enqueue rd.fab i with Ok () -> incr accepted | Error _ -> ());
    match spans with
    | None -> ()
    | Some s -> Spans.add s.main ~name:n_enq ~parent ~item:i ~start:!now ~stop:(now_ns ())
  done;
  Atomic.set accepted_final !accepted;
  let delivered, duplicates, strays, hits, misses = Domain.join d in
  let flight_events = Obs.Flight.recorded () - recorded0 in
  Obs.Flight.disable ();
  { accepted = !accepted; delivered; duplicates; strays; hits; misses; flight_events }

(* Exact sojourn p50 (µs) of each window of arrivals that delivered. *)
let window_p50s rd =
  List.filter_map
    (fun w ->
      let got = ref [] in
      for i = w * window to ((w + 1) * window) - 1 do
        if Bytes.get rd.seen i <> '\000' then got := rd.sojourn.(i) :: !got
      done;
      if !got = [] then None
      else Some (float_of_int (Stats.median_ints (Array.of_list !got)) /. 1e3))
    (List.init (Array.length rd.offsets / window) Fun.id)

let run ctx =
  let arrivals =
    max 1000 (int_of_float (rate *. ctx.seconds /. float_of_int rounds))
  in
  let setups = ref [] and sojourns = ref [] and lates = ref [] and p50s = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let hits = ref 0 and misses = ref 0 and flight = ref 0 and delivered = ref 0 in
  let outcomes = ref [] and heap = ref None in
  let checks =
    List.map
      (fun name -> (name, ref true))
      [
        "warm-up pairs come back in order"; "no arrival delivered twice";
        "only enqueued values delivered"; "every accepted arrival delivered";
        "fabric empty after the run";
      ]
  in
  let check name ok =
    let r = List.assoc name checks in
    r := !r && ok
  in
  for round = 0 to rounds - 1 do
    let rd, setup_ns =
      timed (fun () -> setup ~seed:ctx.seed ~round ~arrivals)
    in
    setups := (float_of_int setup_ns /. 1e9) :: !setups;
    let t =
      span ctx ~name:n_round ~parent:Spans.none ~item:round (fun parent ->
          measure ctx ~parent rd)
    in
    let n = Array.length rd.offsets in
    attempted := !attempted + n;
    failed := !failed + (n - t.delivered);
    hits := !hits + t.hits;
    misses := !misses + t.misses;
    flight := !flight + t.flight_events;
    delivered := !delivered + t.delivered;
    outcomes := F.outcomes rd.fab :: !outcomes;
    let got = Array.make t.delivered 0 and k = ref 0 in
    Array.iteri
      (fun i s ->
        if Bytes.get rd.seen i <> '\000' then begin
          got.(!k) <- s;
          incr k
        end)
      rd.sojourn;
    p50s := window_p50s rd @ !p50s;
    sojourns := got :: !sojourns;
    lates := rd.late :: !lates;
    check "warm-up pairs come back in order" rd.warm_ok;
    check "no arrival delivered twice" (t.duplicates = 0);
    check "only enqueued values delivered" (t.strays = 0);
    check "every accepted arrival delivered" (t.delivered = t.accepted);
    check "fabric empty after the run" (F.is_empty rd.fab);
    if round = 0 then heap := Some (heap_peak_mb ())
  done;
  let sojourn = Stats.sorted_ints (Array.concat !sojourns) !delivered in
  let late = Array.concat !lates in
  let late = Stats.sorted_ints late (Array.length late) in
  let soj = Stats.summarize sojourn and lat = Stats.summarize late in
  let us s q = float_of_int (Stats.find s q).Stats.value /. 1e3 in
  let tail q =
    [
      metric ("sojourn_" ^ Stats.label q ^ "_us") "us" (us soj q);
      metric
        ("sojourn_" ^ Stats.label q ^ "_beyond")
        "count"
        (float_of_int (Stats.find soj q).beyond);
    ]
  in
  let sum f = List.fold_left (fun a o -> a + f o) 0 !outcomes in
  let layers =
    match ctx.spans with
    | None -> []
    | Some s ->
        let med a = float_of_int (Stats.median_ints a) in
        [
          metric "serve.enq_call_ns" "ns" (med (Spans.durations s n_enq));
          metric "serve.deq_hit_ns" "ns"
            (med (Spans.durations ~item:(fun i -> i >= 0) s n_deq));
          metric "serve.deq_miss_ns" "ns"
            (med (Spans.durations ~item:(fun i -> i < 0) s n_deq));
          metric "serve.deq_calls_per_item" "calls/item"
            (float_of_int (!hits + !misses) /. float_of_int (max 1 !delivered));
          metric "resilience.timeouts" "count"
            (float_of_int (sum (fun o -> o.Resilience.Resilient.timeouts)));
          metric "resilience.sheds" "count" (float_of_int (sum (fun o -> o.sheds)));
          metric "resilience.rejections" "count"
            (float_of_int (sum (fun o -> o.rejections)));
          metric "resilience.breaker_trips" "count"
            (float_of_int (sum (fun o -> o.breaker_trips)));
          metric "obs.flight.events_per_item" "events/item"
            (float_of_int !flight /. float_of_int !attempted);
          metric "serve.late_p50_us" "us" (us lat 5_000);
          metric "serve.late_p99_us" "us" (us lat 9_900);
        ]
  in
  {
    checks = List.map (fun (name, r) -> (name, !r)) checks;
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        metric "time_per_item_us" "us"
          (let a = Array.of_list !p50s in
           Array.sort Float.compare a;
           Stats.percentile a 1_000);
        metric "setup_s" "s" (Stats.median !setups);
        Option.get !heap;
      ];
    layers;
    notes =
      List.concat_map tail Stats.standard
      @ [
          metric "sojourn_samples" "count" (float_of_int soj.count);
          metric "late_p50_us" "us" (us lat 5_000);
          metric "late_p99_us" "us" (us lat 9_900);
          metric "deq_calls_per_item" "calls/item"
            (float_of_int (!hits + !misses) /. float_of_int (max 1 !delivered));
          metric "failed_frac" "frac" (float_of_int !failed /. float_of_int !attempted);
        ];
  }
