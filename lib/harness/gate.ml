(* Run [body i] on [n] fresh domains and wait for all of them. *)
let on_domains n body =
  List.iter Domain.join (List.init n (fun i -> Domain.spawn (body i)))

(* ------------------------------------------------------------------ *)
(* Fabric *)

type load = { label : string; rate : float; skew : float; crash : bool }

type fabric = {
  shards : int;
  pairs : int;
  single : Workload.measurement;
  sharded : Workload.measurement;
  open_loop : (load * Open_loop.result) list;
}

let slo_p999_ns = 500_000_000

let native_fabric shards =
  Fabric.Queue_fabric.create
    ~config:
      {
        Fabric.Queue_fabric.default_config with
        shards = max 1 shards;
        shard_capacity = 4_096;
      }
    ()

let fabric ?quantum ?seed ~shards ~native_shards ~pairs ~arrivals loads =
  let shards = max 1 shards in
  let d = Params.default in
  let params =
    {
      d with
      total_pairs = pairs;
      processors = 8;
      seed = Option.value seed ~default:d.seed;
      quantum = Option.value quantum ~default:d.quantum;
    }
  in
  let sim n =
    Workload.run ~heatmap:true (Squeues.Fabric_queue.algo ~shards:n) params
  in
  let single = sim 1 in
  let sharded = sim shards in
  let open_loop =
    List.map
      (fun l ->
        ( l,
          Open_loop.run
            ~config:
              {
                Open_loop.default with
                seed = Option.value seed ~default:0xFABL;
                rate = l.rate;
                arrivals;
                key_skew = l.skew;
                crash_restart = l.crash;
              }
            (native_fabric native_shards) ))
      loads
  in
  { shards; pairs; single; sharded; open_loop }

let speedup f =
  f.single.Workload.net_per_pair /. f.sharded.Workload.net_per_pair

let disjoint f =
  Squeues.Fabric_queue.writers_disjoint f.single.Workload.heatmap
  && Squeues.Fabric_queue.writers_disjoint f.sharded.Workload.heatmap

let p999 r =
  let _, _, p = Open_loop.percentiles r.Open_loop.sojourn in
  p

let fabric_verdicts f =
  let s = speedup f in
  Verdict.v "sim-scaling>=3x"
    (f.shards < 8 || s >= 3.0)
    (Printf.sprintf "%.2fx at %d shards vs 1%s" s f.shards
       (if f.shards < 8 then " (skipped: applies at >= 8 shards)" else ""))
  :: Verdict.v "writers-disjoint" (disjoint f)
       "each per-shard line written by one shard's processor set"
  :: List.map
       (fun (l, r) ->
         let p = p999 r in
         Verdict.v
           (Printf.sprintf "slo-p999@%.0f/s" l.rate)
           (p <= slo_p999_ns)
           (Printf.sprintf "sojourn p999 %d ns (SLO %d ns)" p slo_p999_ns))
       f.open_loop

let fabric_fields f =
  let open Obs.Json in
  let sim_point n (m : Workload.measurement) =
    Assoc
      [
        ("shards", Int n);
        ("processors", Int 8);
        ("pairs", Int f.pairs);
        ("net_per_pair", Float m.net_per_pair);
        ("completed", Bool m.completed);
      ]
  in
  let ol_point (l, r) =
    match Open_loop.result_json r with
    | Assoc kvs ->
        Assoc
          (kvs
          @ [
              ("load_label", String l.label);
              ("slo_p999_ns", Int slo_p999_ns);
              ("slo_ok", Bool (p999 r <= slo_p999_ns));
            ])
    | j -> j
  in
  [
    ("sim_scaling", List [ sim_point 1 f.single; sim_point f.shards f.sharded ]);
    ("heatmap_disjoint", Bool (disjoint f));
    ("open_loop", List (List.map ol_point f.open_loop));
  ]

let fabric_json f = Obs.Json.Assoc (fabric_fields f)

let fabric_check_json f =
  Obs.Json.Assoc
    (("shards", Obs.Json.Int f.shards)
    :: ("speedup", Obs.Json.Float (speedup f))
    :: fabric_fields f)

let pp_fabric fmt f =
  Format.fprintf fmt "simulated shard scaling (p = 8, %d pairs)@." f.pairs;
  List.iter
    (fun (n, (m : Workload.measurement)) ->
      Format.fprintf fmt "  %d shard(s): %7.0f cycles/pair%s@." n
        m.net_per_pair
        (if m.completed then "" else " [incomplete]"))
    [ (1, f.single); (f.shards, f.sharded) ];
  Format.fprintf fmt "  speedup %d shards vs 1: %.2fx@." f.shards (speedup f);
  List.iter
    (fun (_, r) -> Format.fprintf fmt "  %a@." Open_loop.pp_result r)
    f.open_loop

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let flight_dump ~seed ~path =
  Obs.Flight.reset ();
  Obs.Flight.arm_dump ~path;
  let caught = Soak.self_test ~seed in
  let dump = Obs.Flight.last_dump () in
  Obs.Flight.disarm_dump ();
  Verdict.v "planted-bug-caught" caught
    (if caught then "conservation audit caught the planted element drop"
     else "the planted element drop went undetected")
  ::
  (match dump with
  | None -> [ Verdict.v "dump" false "anomaly latch never fired; nothing written" ]
  | Some (path, reason) ->
      [
        Verdict.v "dump-reason"
          (String.starts_with ~prefix:"soak-audit" reason)
          (Printf.sprintf "latched %S -> %s" reason path);
        (match
           Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all)
         with
        | exception (Sys_error e | Obs.Json.Parse_error e) ->
            Verdict.v "dump-events" false e
        | doc ->
            let events =
              match Obs.Json.member "traceEvents" doc with
              | Some (Obs.Json.List l) -> List.length l
              | _ -> 0
            in
            Verdict.v "dump-events" (events > 0)
              (Printf.sprintf "%d Chrome-trace events in %s" events path));
      ])

type timeline = {
  json : Obs.Json.t;
  openmetrics : string;
  fabric_run : Open_loop.result;
}

let timeline ~seed ~pairs ~arrivals =
  Obs.Sampler.clear ();
  Obs.Sampler.start ~period_ns:5_000_000 ();
  let (module Q : Core.Queue_intf.BOUNDED) = (Registry.find_native "ms").queue in
  let module I = Obs.Instrumented.Make_bounded (Q) in
  let q = I.create () in
  Obs.Sampler.register_metrics ~prefix:"msq" (I.metrics q);
  Obs.Sampler.register_gauge "msq.length" (fun () -> float_of_int (I.length q));
  Obs.Control.with_enabled (fun () ->
      on_domains 2 (fun _ () ->
          for i = 1 to pairs do
            ignore (I.try_enqueue q i);
            ignore (I.try_dequeue q)
          done));
  Obs.Sampler.remove ~prefix:"msq";
  (* metrics on, so the fabric dequeue engine's series get points *)
  let fabric_run =
    Obs.Control.with_enabled (fun () ->
        Open_loop.run
          ~config:{ Open_loop.default with seed; rate = 50_000.; arrivals }
          (native_fabric 4))
  in
  Obs.Sampler.stop ();
  let json = Obs.Sampler.timeline_json () in
  let openmetrics = Obs.Sampler.to_openmetrics () in
  Obs.Sampler.clear ();
  { json; openmetrics; fabric_run }

let timeline_verdicts t =
  let series =
    match Obs.Json.member "series" t.json with
    | Some (Obs.Json.List l) -> l
    | _ -> []
  in
  let points =
    List.fold_left
      (fun acc s ->
        match Obs.Json.member "points" s with
        | Some (Obs.Json.List l) -> acc + List.length l
        | _ -> acc)
      0 series
  in
  [
    (match Bench_compare.validate_timeline t.json with
    | Ok () -> Verdict.v "schema" true "timeline validates under the schema-8 shape"
    | Error e -> Verdict.v "schema" false e);
    Verdict.v "non-empty"
      (series <> [] && points > 0)
      (Printf.sprintf "%d series, %d points" (List.length series) points);
    Verdict.v "openmetrics"
      (String.ends_with ~suffix:"# EOF" (String.trim t.openmetrics))
      "OpenMetrics exposition is # EOF-terminated";
  ]

let max_overhead_pct = 2.0
let overhead_pairs = 15

type overhead = { median : float; q1 : float; q3 : float }

(* Nearest rank of [q] in a sorted, non-empty array. *)
let rank sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let overhead_pct ?(pairs = 5_000) () =
  let (module Q : Core.Queue_intf.S) =
    Option.get (Registry.find_native "ms").unbounded
  in
  let spin () =
    let acc = ref 0 in
    for i = 1 to 100_000 do
      acc := Sys.opaque_identity (!acc + i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let run_pairs () =
    let q = Q.create () in
    let t0 = Obs.Clock.now_ns () in
    for i = 1 to pairs do
      Q.enqueue q i;
      spin ();
      ignore (Q.dequeue q)
    done;
    float_of_int (Obs.Clock.now_ns () - t0)
  in
  let run_on () =
    Obs.Flight.enable ();
    Obs.Sampler.start ~period_ns:5_000_000 ();
    let t = run_pairs () in
    Obs.Sampler.stop ();
    Obs.Flight.disable ();
    t
  in
  Obs.Sampler.register_gauge "telemetry.overhead_probe" (fun () -> 1.);
  (* Each pair runs both sides back to back, the first side alternating,
     so a slow stretch of the host lands on one pair, not on one side. *)
  let pcts =
    Array.init overhead_pairs (fun i ->
        let off, on =
          if i land 1 = 0 then
            let off = run_pairs () in
            (off, run_on ())
          else
            let on = run_on () in
            (run_pairs (), on)
        in
        (on -. off) /. off *. 100.)
  in
  Obs.Sampler.clear ();
  Array.sort Float.compare pcts;
  { median = rank pcts 0.5; q1 = rank pcts 0.25; q3 = rank pcts 0.75 }

let overhead_verdict o =
  Verdict.v "overhead" (o.median <= max_overhead_pct)
    (Printf.sprintf
       "median %+.2f%% enabled vs disabled over %d pairs (IQR %+.2f to %+.2f%%; \
        limit %.1f%%)"
       o.median overhead_pairs o.q1 o.q3 max_overhead_pct)

type telemetry = { verdicts : Verdict.t list; timeline : timeline }

let telemetry ~seed ~flight_out =
  let dump = flight_dump ~seed ~path:flight_out in
  let timeline = timeline ~seed ~pairs:30_000 ~arrivals:2_000 in
  let overhead = overhead_verdict (overhead_pct ()) in
  { verdicts = dump @ timeline_verdicts timeline @ [ overhead ]; timeline }

(* ------------------------------------------------------------------ *)
(* Chaos *)

let chaos_queues key =
  match
    List.filter_map
      (fun (e : Registry.native_entry) ->
        if key = "all" || e.key = key then
          Option.map (fun q -> (e.key, q)) e.unbounded
        else None)
      Registry.native
  with
  | [] -> invalid_arg (Printf.sprintf "no unbounded native queue %S" key)
  | qs -> qs

let chaos ?(ops = 2_000) ?(rounds = 4) ?seed queues =
  let domains = 4 in
  let seed = Option.value seed ~default:Obs.Chaos.default.seed in
  Obs.Chaos.configure ~seed ~one_in:4 ~max_delay:96 ();
  let stamp p k = (p * 1_000_000) + k in
  (* one round: conservation (every value enqueued comes out exactly
     once) and per-producer FIFO (a consumer sees each producer's values
     in increasing order); returns the violations *)
  let round (module Q : Core.Queue_intf.S) =
    let q = Q.create () in
    let dequeued = Array.make domains [] in
    let body i () =
      let out = ref [] in
      for k = 1 to ops do
        Q.enqueue q (stamp i k);
        match Q.dequeue q with Some v -> out := v :: !out | None -> ()
      done;
      dequeued.(i) <- List.rev !out
    in
    on_domains domains body;
    let rec drain acc =
      match Q.dequeue q with Some v -> drain (v :: acc) | None -> acc
    in
    let violations = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
    let got =
      List.sort compare (List.concat (drain [] :: Array.to_list dequeued))
    in
    let expected =
      List.init (domains * ops) (fun n -> stamp (n / ops) ((n mod ops) + 1))
    in
    if got <> expected then
      fail "conservation violated (%d values out, %d in)" (List.length got)
        (List.length expected);
    Array.iter
      (fun l ->
        let last = Array.make domains min_int in
        List.iter
          (fun v ->
            let p = v / 1_000_000 in
            if v <= last.(p) then fail "FIFO violation (%d after %d)" v last.(p);
            last.(p) <- v)
          l)
      dequeued;
    List.rev !violations
  in
  Obs.Chaos.reset_hits ();
  let audits =
    Obs.Chaos.with_enabled (fun () ->
        List.map
          (fun (key, q) ->
            let module Q = Obs.Chaos.Make ((val q : Core.Queue_intf.S)) in
            (key, List.concat (List.init rounds (fun _ -> round (module Q)))))
          queues)
  in
  let hits = Obs.Chaos.hits () in
  List.map
    (fun (key, violations) ->
      Verdict.v key (violations = [])
        (match violations with
        | [] ->
            Printf.sprintf "conserved, per-producer FIFO held (%d rounds)"
              rounds
        | v :: _ ->
            Printf.sprintf "%d violation(s), first: %s"
              (List.length violations) v))
    audits
  @ [
      Verdict.v "delays-injected" (hits > 0)
        (Printf.sprintf
           "%d queue(s) x %d rounds x %d domains x %d pairs, seed %Ld, %d \
            delays injected"
           (List.length queues) rounds domains ops seed hits);
    ]

(* ------------------------------------------------------------------ *)
(* Native linearizability *)

let native_lin_queue ?(rounds = 25) ?(ops = 4) ?(chaos = false) ?seed ?batch
    ~name (module B0 : Core.Queue_intf.BOUNDED) =
  let domains = 2 and capacity = 2 in
  let (module B : Core.Queue_intf.BOUNDED) =
    if chaos then (module Obs.Chaos.Make_bounded (B0)) else (module B0)
  in
  if chaos then begin
    Option.iter (fun s -> Obs.Chaos.configure ~seed:s ()) seed;
    Obs.Chaos.reset_hits ();
    Obs.Chaos.enable ()
  end;
  (* [rounds] histories, each of [domains] domains calling [step i k]
     for k = 1 .. ops on what [fresh recorder] set up, checked against
     the FIFO spec — the bounded one when [fresh] reports a capacity *)
  let histories fresh =
    List.init rounds (fun _ ->
        let recorder = Lincheck.History.create_recorder () in
        let step, capacity = fresh recorder in
        on_domains domains (fun i () ->
            for k = 1 to ops do
              step i k
            done);
        Lincheck.Checker.check ?capacity (Lincheck.History.history recorder))
  in
  let fulls = Atomic.make 0 in
  let cap_used = ref max_int in
  let plain =
    histories (fun recorder ->
        let q = B.create ~capacity () in
        cap_used := B.capacity q;
        let finite = !cap_used < max_int in
        let try_enq i v =
          Lincheck.History.record recorder ~proc:i (fun () ->
              let ok = B.try_enqueue q v in
              if not ok then Atomic.incr fulls;
              Lincheck.History.Try_enq (v, ok))
        in
        (* a finite queue runs two enqueues per dequeue, so the net fill
           drives it into its capacity and full verdicts occur *)
        ( (fun i k ->
            if finite then begin
              try_enq i ((i * 1000) + (2 * k) - 1);
              try_enq i ((i * 1000) + (2 * k))
            end
            else try_enq i ((i * 1000) + k);
            Lincheck.History.record recorder ~proc:i (fun () ->
                Lincheck.History.Deq (B.try_dequeue q))),
          if finite then Some !cap_used else None ))
  in
  let batched =
    Option.map
      (fun (module Q0 : Core.Queue_intf.BATCH) ->
        let (module Q : Core.Queue_intf.BATCH) =
          if chaos then (module Obs.Chaos.Make_batch (Q0)) else (module Q0)
        in
        histories (fun recorder ->
            let q = Q.create () in
            ( (fun i k ->
                let vs = List.init 3 (fun j -> (i * 1000) + (k * 10) + j) in
                Lincheck.History.record_many recorder ~proc:i (fun () ->
                    Q.enqueue_batch q vs;
                    List.map (fun v -> Lincheck.History.Enq v) vs);
                Lincheck.History.record_many recorder ~proc:i (fun () ->
                    List.map
                      (fun v -> Lincheck.History.Deq (Some v))
                      (Q.dequeue_batch q ~max:3))),
              None )))
      batch
  in
  let chaos_note =
    if not chaos then ""
    else
      Printf.sprintf "; chaos seed %Ld, %d delays injected"
        (Obs.Chaos.current ()).Obs.Chaos.seed (Obs.Chaos.hits ())
  in
  if chaos then Obs.Chaos.disable ();
  let judge ?(note = "") vname what verdicts =
    let count v = List.length (List.filter (( = ) v) verdicts) in
    let bad = count Lincheck.Checker.Not_linearizable in
    Verdict.v vname (bad = 0)
      (Printf.sprintf "%s, %d linearizability failures, %d inconclusive%s"
         what bad (count Lincheck.Checker.Inconclusive) note)
  in
  judge ~note:chaos_note name
    (Printf.sprintf "%d rounds x %d domains%s" rounds domains
       (if !cap_used < max_int then
          Printf.sprintf " at capacity %d, %d full verdicts" !cap_used
            (Atomic.get fulls)
        else ""))
    plain
  :: Option.to_list
       (Option.map
          (judge (name ^ "/batch")
             (Printf.sprintf "%d rounds x %d domains of batch=3" rounds domains))
          batched)

let native_lin ?chaos ?seed key =
  let entry = Registry.find_native key in
  (* The fabric's registry adapter routes by domain id, so it only
     promises per-key FIFO — a whole-queue FIFO checker would flag
     legitimate cross-shard reordering.  Pin every operation to one key
     (hence one shard), where total FIFO order is the claim. *)
  let queue =
    if key = "fabric" then
      (module Core.Queue_intf.Unbounded (Fabric.Queue_fabric.Single_key)
      : Core.Queue_intf.BOUNDED)
    else entry.queue
  in
  native_lin_queue ?chaos ?seed ?batch:entry.batch ~name:key queue

(* ------------------------------------------------------------------ *)
(* Native model checking *)

type mcheck = { verdicts : Verdict.t list; counterexample : string option }

let mcheck_native ?preemptions ?depth_limit ?queue ?scenario ~self_test () =
  let module CE = Mcheck.Core_explore in
  let module E = Mcheck.Explore in
  let failure_lines fs =
    String.concat ""
      (List.map
         (fun (f : E.failure) ->
           Format.asprintf "@\n    %s under schedule %a" f.message
             E.pp_schedule f.schedule)
         fs)
  in
  match
    CE.battery ?max_preemptions:preemptions ?max_steps:depth_limit ?queue
      ?scenario ()
  with
  | Error e -> Error e
  | Ok runs ->
      let planted =
        if self_test then
          CE.self_test ?max_preemptions:preemptions ?max_steps:depth_limit ()
        else []
      in
      let verdicts =
        List.map
          (fun { CE.queue; scenario; outcome = o } ->
            Verdict.v (queue ^ "/" ^ scenario) (o.E.failures = [])
              (Printf.sprintf
                 "%d schedules explored, %d diverged, %d violations%s" o.E.runs
                 o.E.diverged (List.length o.E.failures)
                 (failure_lines o.E.failures)))
          runs
        (* the checker checking the checker: a planted bug that goes
           uncaught means the whole run proves nothing *)
        @ List.map
            (fun { CE.queue; scenario; outcome = o } ->
              let caught = o.E.failures <> [] in
              Verdict.v
                (Printf.sprintf "self-test %s/%s" queue scenario)
                caught
                (Printf.sprintf "%d schedules explored, %s%s" o.E.runs
                   (if caught then "planted bug caught" else "PLANTED BUG MISSED")
                   (failure_lines o.E.failures)))
            planted
      in
      let counterexample =
        List.find_map
          (fun { CE.queue; scenario; outcome = o } ->
            match o.E.failures with
            | [] -> None
            | f :: _ ->
                Some
                  (Printf.sprintf
                     "queue: %s\nscenario: %s\nmessage: %s\nschedule: %s\ntrace:\n%s"
                     queue scenario f.E.message
                     (Format.asprintf "%a" E.pp_schedule f.E.schedule)
                     (String.concat ""
                        (List.map (fun l -> "  " ^ l ^ "\n") f.E.trace))))
          runs
      in
      Ok { verdicts; counterexample }
