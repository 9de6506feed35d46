(* verify: exhaustive preemption-bounded model checking of the
   shipping queue code, as a user of [Mcheck] runs it:
   [Mcheck.Core_explore.check] over every traced queue and every
   default scenario, plus the bounded battery, in one domain.  The
   only workload that runs [Mcheck]/[Lincheck]; its schedule counts
   are exact, so a smarter explorer shows as fewer runs.  The
   explored battery is fixed, so the seed does not change it.  Rounds
   repeat the battery until the budget is spent; each verdict is timed
   by its fastest round. *)

open Common
module CE = Mcheck.Core_explore

let preemptions = 2
let n_round = Spans.intern "verify.round"
let n_check = Spans.intern "verify.check"

type verdict = {
  queue : string;
  runs : int;
  failures : int;
  diverged : int;
  bounded : bool;
  ns : int;
}

let battery ctx ~parent =
  let out = ref [] in
  let one ~bounded queue f =
    let (o : Mcheck.Explore.outcome), ns =
      timed (fun () ->
          span ctx ~name:n_check ~parent ~item:(List.length !out) (fun _ -> f ()))
    in
    out :=
      {
        queue;
        runs = o.runs;
        failures = List.length o.failures;
        diverged = o.diverged;
        bounded;
        ns;
      }
      :: !out
  in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun s -> one ~bounded:false name (fun () -> CE.check ~max_preemptions:preemptions q s))
        CE.scenarios)
    CE.queues;
  List.iter
    (fun (name, q) ->
      List.iter
        (fun b ->
          one ~bounded:true (name ^ "-bounded") (fun () ->
              CE.check_bounded ~max_preemptions:preemptions q b))
        CE.bounded_scenarios)
    CE.bqueues;
  List.rev !out

let queue_names =
  List.map fst CE.queues @ List.map (fun (n, _) -> n ^ "-bounded") CE.bqueues

let run ctx =
  let setups = ref [] and batteries = ref [] and heap = ref None in
  let stop = now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let round = ref 0 in
  let warm = List.assoc "ms" CE.queues in
  while !round = 0 || now_ns () < stop do
    (* Set-up is a fixed warm-up pass: one queue over every scenario. *)
    let (), setup_ns =
      timed (fun () ->
          List.iter
            (fun s -> ignore (CE.check ~max_preemptions:preemptions warm s))
            CE.scenarios)
    in
    setups := (float_of_int setup_ns /. 1e9) :: !setups;
    let b =
      span ctx ~name:n_round ~parent:Spans.none ~item:!round (fun parent ->
          battery ctx ~parent)
    in
    batteries := b :: !batteries;
    if !round = 0 then heap := Some (heap_peak_mb ());
    incr round
  done;
  (* The planted bugs must still be caught: the checker checks. *)
  let broken = CE.check CE.broken (CE.pairs ~procs:2 ~ops:1) in
  let broken_bounded =
    CE.check_bounded CE.broken_bounded
      (Option.get (CE.find_bounded_scenario "b-empty-race"))
  in
  let all = List.concat !batteries in
  let wrong v = v.failures > 0 || v.diverged > 0 in
  let failed = List.length (List.filter wrong all) in
  let sum f b = List.fold_left (fun a v -> a + f v) 0 b in
  let first = List.hd !batteries in
  let best =
    List.fold_left
      (fun acc b -> List.map2 (fun x v -> { x with ns = min x.ns v.ns }) acc b)
      first !batteries
  in
  let wall b = float_of_int (sum (fun v -> v.ns) b) in
  let runs b = sum (fun v -> if v.bounded then 0 else v.runs) b in
  let layers =
    if ctx.spans = None then []
    else
      [
        metric "mcheck.runs" "count" (float_of_int (runs first));
        metric "mcheck.bounded_runs" "count"
          (float_of_int (sum (fun v -> if v.bounded then v.runs else 0) first));
        metric "mcheck.diverged" "count" (float_of_int (sum (fun v -> v.diverged) first));
        metric "mcheck.run_us" "us" (wall best /. 1e3 /. float_of_int (sum (fun v -> v.runs) best));
      ]
      @ List.map
          (fun q ->
            metric
              (Printf.sprintf "mcheck.%s_s" q)
              "s"
              (wall (List.filter (fun v -> v.queue = q) best) /. 1e9))
          queue_names
  in
  {
    checks =
      [
        ("every shipping queue passes every scenario", failed = 0);
        ( "schedule counts repeat exactly",
          List.for_all (fun b -> List.map (fun v -> v.runs) b = List.map (fun v -> v.runs) first) !batteries );
        ("planted broken queue is caught", broken.failures <> []);
        ("planted broken bounded queue is caught", broken_bounded.failures <> []);
      ];
    attempted = List.length all + 2;
    failed =
      failed
      + List.length
          (List.filter (fun (o : Mcheck.Explore.outcome) -> o.failures = [])
             [ broken; broken_bounded ]);
    e2e =
      [
        metric "time_per_item_us" "us" (wall best /. 1e3 /. float_of_int (List.length best));
        metric "setup_s" "s" (Stats.median !setups);
        Option.get !heap;
      ];
    layers;
    notes =
      [
        metric "rounds" "count" (float_of_int !round);
        metric "verdicts_per_round" "count" (float_of_int (List.length first));
        metric "schedules_per_round" "count" (float_of_int (sum (fun v -> v.runs) first));
        metric "failed_frac" "frac"
          (float_of_int failed /. float_of_int (List.length all));
      ];
  }
