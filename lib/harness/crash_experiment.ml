type trial = { crash_after : int; outcome : Sim.Engine.outcome }

type result = {
  algorithm : string;
  trials : int;
  survived_trials : int;
  blocked_trials : int;
  victim_total_ops : int;
  points : trial list;
}

let survives_all r = r.blocked_trials = 0

(* The liveness sweep's workload, the first process the victim. *)
let setup q params ?trace_limit () =
  let eng, pids, trace = Liveness.setup q params ?trace_limit () in
  (eng, List.hd pids, trace)

(* Far above any legitimate inter-pair gap at this scale, small enough
   that blocked trials end quickly. *)
let watchdog = 2_000_000

let run_trial (module Q : Squeues.Intf.S) params ~crash_after =
  let eng, victim, _ = setup (module Q) params () in
  Sim.Faults.inject eng victim (Sim.Faults.Crash { after_ops = crash_after });
  let outcome = Sim.Engine.run ~max_steps:params.Params.max_steps ~watchdog eng in
  { crash_after; outcome }

let params_of ~procs ~pairs ~seed =
  {
    Params.default with
    processors = procs;
    total_pairs = pairs;
    seed = Option.value seed ~default:Params.default.Params.seed;
  }

let run (module Q : Squeues.Intf.S) ?(procs = 4) ?(pairs = 2_000)
    ?(trials = 12) ?seed () =
  let params = params_of ~procs ~pairs ~seed in
  (* reference run: how many simulator operations does the victim
     execute end-to-end?  Crash points are swept across that range. *)
  let eng, victim, _ = setup (module Q) params () in
  (match Sim.Engine.run ~max_steps:params.Params.max_steps ~watchdog eng with
  | Sim.Engine.Completed -> ()
  | Sim.Engine.Step_limit | Sim.Engine.Blocked ->
      failwith (Q.name ^ ": crash-sweep reference run did not complete"));
  let victim_total_ops = Sim.Engine.ops_executed eng victim in
  let points =
    Sim.Faults.crash_points ~trials ~total_ops:victim_total_ops
    |> List.map (fun crash_after ->
           run_trial (module Q) params ~crash_after)
  in
  let blocked =
    List.length
      (List.filter (fun t -> t.outcome <> Sim.Engine.Completed) points)
  in
  {
    algorithm = Q.name;
    trials = List.length points;
    survived_trials = List.length points - blocked;
    blocked_trials = blocked;
    victim_total_ops;
    points;
  }

(* Replay one crash point with tracing enabled, for exporting the trace
   tail of a Blocked verdict (msq_check crash --trace-out). *)
let replay_traced (module Q : Squeues.Intf.S) ?(procs = 4) ?(pairs = 2_000)
    ?(trace_limit = 4_096) ?seed ~crash_after () =
  let params = params_of ~procs ~pairs ~seed in
  let eng, victim, trace = setup (module Q) params ~trace_limit () in
  Sim.Faults.inject eng victim (Sim.Faults.Crash { after_ops = crash_after });
  let outcome = Sim.Engine.run ~max_steps:params.Params.max_steps ~watchdog eng in
  (outcome, Option.get trace, Sim.Engine.blocked eng)

(* The acceptance sweep: the paper's dichotomy as a gate.  48 points
   are dense enough that every blocking queue's critical section is
   hit at least once. *)
let sweep ?(keys = Registry.keys) ?(trials = 48) ?seed () =
  List.map (fun key -> (key, run (Registry.find key) ~trials ?seed ())) keys

let dichotomy results =
  List.filter_map
    (fun (key, r) ->
      let blocked = r.blocked_trials > 0 in
      let detail =
        if blocked then
          Printf.sprintf "blocked in %d/%d crash trials" r.blocked_trials
            r.trials
        else Printf.sprintf "survived all %d crash points" r.trials
      in
      if List.mem key Registry.nonblocking then
        Some (Verdict.v ("non-blocking " ^ key) (not blocked) detail)
      else if List.mem key Registry.keys then
        Some (Verdict.v ("blocking " ^ key) blocked detail)
      else None)
    results

let trace_first_blocked ?seed results =
  List.find_map
    (fun (key, r) ->
      List.find_map
        (fun t ->
          if t.outcome = Sim.Engine.Completed then None
          else
            let _, trace, info =
              replay_traced (Registry.find key) ?seed ~crash_after:t.crash_after
                ()
            in
            let label = Printf.sprintf "%s crash after %d ops" key t.crash_after in
            Some (label, trace, info))
        r.points)
    results

let pp_result fmt r =
  Format.fprintf fmt "%-18s survived %d/%d crash points%s" r.algorithm
    r.survived_trials r.trials
    (if survives_all r then " (non-blocking: no crash can block the others)"
     else
       Printf.sprintf " — BLOCKED in %d (a crashed process strands the rest)"
         r.blocked_trials)
