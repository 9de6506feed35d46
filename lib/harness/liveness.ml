type verdict = Completed | Timed_out of { trials_done : int }

type result = {
  algorithm : string;
  stall_duration : int;
  trials : int;
  blocked_trials : int;
  worst_others_finish : int;
  undelayed_elapsed : int;
  verdict : verdict;
}

let non_blocking r = r.blocked_trials = 0

let verdict_string = function
  | Completed -> "completed"
  | Timed_out { trials_done } ->
      Printf.sprintf "timed_out after %d trials" trials_done

let setup (module Q : Squeues.Intf.S) (params : Params.t) ?trace_limit () =
  let cfg =
    {
      (Sim.Config.with_processors params.Params.processors) with
      quantum = params.Params.quantum;
      seed = params.Params.seed;
    }
  in
  let eng = Sim.Engine.create cfg in
  let trace =
    Option.map (fun limit -> Sim.Engine.enable_trace ~limit eng) trace_limit
  in
  let options =
    {
      Squeues.Intf.pool = params.Params.pool;
      bounded = false;
      backoff = params.Params.backoff;
    }
  in
  let q = Q.init ~options eng in
  let n = params.Params.processors in
  let per = params.Params.total_pairs / n in
  let body i () =
    for k = 1 to per do
      Q.enqueue q ((i * 10_000_000) + k);
      Sim.Api.work params.Params.other_work;
      ignore (Q.dequeue q);
      Sim.Api.work params.Params.other_work;
      Sim.Api.progress ()
    done
  in
  (eng, List.init n (fun i -> Sim.Engine.spawn eng (body i)), trace)

(* One run, reporting the latest finish time among non-victim processes;
   [None] if the run blocked or hit the step budget (counted as a
   propagated delay by the caller). *)
let run_once q (params : Params.t) ~stall =
  let eng, pids, _ = setup q params () in
  let victim = List.hd pids in
  (match stall with
  | Some fault -> Sim.Faults.inject eng victim fault
  | None -> ());
  match Sim.Engine.run ~max_steps:params.Params.max_steps ?watchdog:params.Params.watchdog eng with
  | Sim.Engine.Step_limit | Sim.Engine.Blocked -> None
  | Sim.Engine.Completed ->
      let others = List.filter (fun pid -> pid <> victim) pids in
      Some
        (List.fold_left
           (fun acc pid -> max acc (Sim.Engine.finish_time eng pid))
           0 others)

let run (module Q : Squeues.Intf.S) ?(procs = 8) ?(pairs = 8_000) ?(trials = 12)
    ?(stall_duration = 50_000_000) ?seed ?deadline_s () =
  let params =
    {
      Params.default with
      processors = procs;
      total_pairs = pairs;
      seed = Option.value seed ~default:Params.default.Params.seed;
    }
  in
  let undelayed =
    match run_once (module Q) params ~stall:None with
    | Some t -> t
    | None -> failwith (Q.name ^ ": liveness reference run did not complete")
  in
  let blocked = ref 0 in
  let worst = ref 0 in
  (* Per-case wall-clock deadline: the engine watchdog bounds a single
     pathological trial, but a whole sweep of near-watchdog trials can
     still take unbounded wall time — the deadline cuts the sweep and
     reports how far it got, as a structured verdict rather than a
     stuck CI job. *)
  let t0 = Unix.gettimeofday () in
  let expired () =
    match deadline_s with
    | Some d -> Unix.gettimeofday () -. t0 > d
    | None -> false
  in
  let verdict = ref Completed in
  (try
     for k = 0 to trials - 1 do
       if expired () then begin
         verdict := Timed_out { trials_done = k };
         Obs.Flight.note_anomaly
           ~reason:(Printf.sprintf "liveness-timeout:%s after %d trials" Q.name k)
           ();
         raise Exit
       end;
       (* spread injection times over the bulk of the undelayed run *)
       let at = max 1 (undelayed * (k + 1) / (trials + 1)) in
       match
         run_once (module Q) params
           ~stall:(Some (Sim.Faults.Stall { at; duration = stall_duration }))
       with
       | Some finish ->
           worst := max !worst finish;
           if finish - undelayed > stall_duration / 2 then incr blocked
       | None ->
           (* the watchdog (or step budget) cut the trial: everybody was
              waiting out the stall — the delay clearly propagated *)
           incr blocked
     done
   with Exit -> ());
  {
    algorithm = Q.name;
    stall_duration;
    trials;
    blocked_trials = !blocked;
    worst_others_finish = !worst;
    undelayed_elapsed = undelayed;
    verdict = !verdict;
  }

(* Registry-driven sweep: every queue from the given list (default: the
   paper's six algorithms) through the same experiment, so new queues
   are covered by registering them, not by editing call sites. *)
let run_all ?(queues = Registry.all) ?procs ?pairs ?trials ?stall_duration
    ?seed ?deadline_s () =
  List.map
    (fun { Registry.algo; _ } ->
      run algo ?procs ?pairs ?trials ?stall_duration ?seed ?deadline_s ())
    queues

let pp_result fmt r =
  Format.fprintf fmt "%-18s delay propagated in %d/%d trials: %s%s" r.algorithm
    r.blocked_trials r.trials
    (if non_blocking r then "non-blocking (others unaffected)"
     else "BLOCKING (others wait out the delay)")
    (match r.verdict with
    | Completed -> ""
    | Timed_out _ -> Printf.sprintf " [%s]" (verdict_string r.verdict))
