(* figures: the simulator regenerates the paper's Figure 3 (one
   process per processor) and Figure 4 (two per processor, which
   drives the quantum-preemption path Figure 3 skips) for all six
   algorithms, in one domain.  Regeneration time is what a user of
   the simulator pays, and this is the only workload that runs
   [Sim]/[Squeues].  Scale: [pairs_per_point] pairs per point, p in
   [procs], so a regeneration takes under a second and a run holds
   several rounds; each point is timed by its fastest round.
   Simulated cycles are deterministic in the seed: every round must
   reproduce the same net cycles, and the default seed's must equal
   the committed reference. *)

open Common

let procs = [ 1; 2; 4; 8 ]
let pairs_per_point = 2_000
let figures = [ (3, 1); (4, 2) ] (* figure, processes per processor *)
let default_seed = 1
let n_round = Spans.intern "figures.round"
let n_figure = Spans.intern "figures.figure"
let n_point = Spans.intern "figures.point"

let params seed =
  {
    Harness.Params.default with
    total_pairs = pairs_per_point;
    seed = derive seed 0;
  }

type point = {
  fig : int;
  algo : string;
  procs : int;
  net_time : int;
  elapsed : int;
  completed : bool;
  ns : int;  (** wall time of this point's [Harness.Workload.run] *)
}

(* One regeneration: every point of both figures, in a fixed order. *)
let regenerate ctx ~parent base =
  let points = ref [] in
  List.iter
    (fun (fig, mpl) ->
      span ctx ~name:n_figure ~parent ~item:fig (fun parent ->
          List.iter
            (fun ({ key; algo } : Harness.Registry.entry) ->
              List.iter
                (fun p ->
                  let m, ns =
                    timed (fun () ->
                        span ctx ~name:n_point ~parent ~item:(List.length !points)
                          (fun _ ->
                            Harness.Workload.run algo
                              { base with processors = p; multiprogramming = mpl }))
                  in
                  points :=
                    {
                      fig;
                      algo = key;
                      procs = p;
                      net_time = m.net_time;
                      elapsed = m.elapsed;
                      completed = m.completed;
                      ns;
                    }
                    :: !points)
                procs)
            Harness.Registry.all))
    figures;
  List.rev !points

let key p = (p.fig, p.algo, p.procs, p.net_time)
let matches_reference points = List.map key points = Figures_ref.points

let run ctx =
  let base = params ctx.seed in
  let setups = ref [] and regens = ref [] and heap = ref None in
  let stop = now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let round = ref 0 in
  while !round < 2 || now_ns () < stop do
    (* Set-up is a fixed warm-up pass: the largest Figure 4 point. *)
    let (), setup_ns =
      timed (fun () ->
          ignore
            (Harness.Workload.run
               (Harness.Registry.find "ms")
               { base with processors = 8; multiprogramming = 2 }))
    in
    setups := (float_of_int setup_ns /. 1e9) :: !setups;
    regens :=
      span ctx ~name:n_round ~parent:Spans.none ~item:!round (fun parent ->
          regenerate ctx ~parent base)
      :: !regens;
    if !round = 0 then heap := Some (heap_peak_mb ());
    incr round
  done;
  let first = List.hd (List.rev !regens) in
  (* Each point timed by its fastest round. *)
  let best =
    List.fold_left
      (fun acc r -> List.map2 (fun b p -> { b with ns = min b.ns p.ns }) acc r)
      first !regens
  in
  let all_points = List.concat !regens in
  let failed = List.length (List.filter (fun p -> not p.completed) all_points) in
  let reference_ok =
    if ctx.seed = default_seed then matches_reference first
    else
      matches_reference
        (regenerate { ctx with spans = None } ~parent:Spans.none (params default_seed))
  in
  let sum f pts = List.fold_left (fun a p -> a + f p) 0 pts in
  let wall pts = float_of_int (sum (fun p -> p.ns) pts) in
  let pairs pts = float_of_int (sum (fun p -> if p.completed then pairs_per_point else 0) pts) in
  let layers =
    if ctx.spans = None then []
    else
      List.map
        (fun (fig, _) ->
          metric
            (Printf.sprintf "sim.fig%d_s" fig)
            "s"
            (wall (List.filter (fun p -> p.fig = fig) best) /. 1e9))
        figures
      @ List.map
          (fun ({ key; _ } : Harness.Registry.entry) ->
            let pts = List.filter (fun p -> p.algo = key) best in
            metric (Printf.sprintf "sim.%s.us_per_pair" key) "us" (wall pts /. 1e3 /. pairs pts))
          Harness.Registry.all
      @ [
          metric "sim.mcycles_per_s" "Mcycles/s"
            (float_of_int (sum (fun p -> p.elapsed) best) /. 1e6 /. (wall best /. 1e9));
        ]
  in
  {
    checks =
      [
        ("every point completed", failed = 0);
        ( "every round reproduces the same net cycles",
          List.for_all (fun r -> List.map key r = List.map key first) !regens );
        ("default seed matches the committed net cycles", reference_ok);
      ];
    attempted = List.length all_points;
    failed;
    e2e =
      [
        metric "time_per_item_us" "us" (wall best /. 1e3 /. pairs best);
        metric "setup_s" "s" (Stats.median !setups);
        Option.get !heap;
      ];
    layers;
    notes =
      [
        metric "rounds" "count" (float_of_int !round);
        metric "points_per_round" "count" (float_of_int (List.length first));
        metric "mcycles_per_round" "Mcycles"
          (float_of_int (sum (fun p -> p.elapsed) first) /. 1e6);
        metric "failed_frac" "frac"
          (float_of_int failed /. float_of_int (List.length all_points));
      ];
  }
