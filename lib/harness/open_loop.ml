(* Open-loop driver: arrivals on the world's schedule, not the
   queue's.  The schedule is precomputed and pure (unit-testable); the
   run itself paces real domains against the monotonic clock and fires
   late arrivals immediately, which is what makes queueing delay show
   up in the sojourn tail instead of silently stretching the run. *)

type burst = { on_ns : int; off_ns : int }

type config = {
  seed : int64;
  rate : float;
  arrivals : int;
  producers : int;
  consumers : int;
  burst : burst option;
  key_skew : float;
  keys : int;
  crash_restart : bool;
}

let default =
  {
    seed = 9L;
    rate = 50_000.;
    arrivals = 5_000;
    producers = 2;
    consumers = 1;
    burst = None;
    key_skew = 0.;
    keys = 16;
    crash_restart = false;
  }

(* ------------------------------------------------------------------ *)
(* SplitMix64 ([Locks.Backoff]), the repo-wide deterministic generator. *)

let mix64 = Locks.Backoff.mix64

(* uniform in [0, 1), 53 mantissa bits *)
let u01 st =
  Int64.to_float (Int64.shift_right_logical (Locks.Backoff.next st) 11)
  /. 9007199254740992.

let per_producer cfg p =
  (cfg.arrivals / cfg.producers)
  + if p < cfg.arrivals mod cfg.producers then 1 else 0

(* Map "on-time" x to wall time: arrivals only flow during the on
   phases, so each completed on-span also skips an off-span. *)
let burst_stretch b x =
  let on = max 1 b.on_ns and off = max 0 b.off_ns in
  (x / on * (on + off)) + (x mod on)

let schedule cfg =
  let mean_ns = 1e9 *. float_of_int (max 1 cfg.producers) /. cfg.rate in
  Array.init cfg.producers (fun p ->
      let st = ref (mix64 (Int64.add cfg.seed (Int64.of_int (p + 1)))) in
      let t = ref 0.0 in
      Array.init (per_producer cfg p) (fun _ ->
          t := !t +. (-.mean_ns *. log (1.0 -. u01 st));
          let x = int_of_float !t in
          match cfg.burst with None -> x | Some b -> burst_stretch b x))

let keys_for cfg p =
  if cfg.key_skew <= 0. then [||]
  else begin
    let k = max 1 cfg.keys in
    (* Zipf(s): weight of key i is (i+1)^-s; draw by CDF scan *)
    let cdf = Array.make k 0.0 in
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      total := !total +. (1.0 /. (float_of_int (i + 1) ** cfg.key_skew));
      cdf.(i) <- !total
    done;
    let st = ref (mix64 (Int64.add (mix64 cfg.seed) (Int64.of_int (p + 1)))) in
    Array.init (per_producer cfg p) (fun _ ->
        let u = u01 st *. !total in
        let rec find i = if i >= k - 1 || cdf.(i) >= u then i else find (i + 1) in
        find 0)
  end

(* ------------------------------------------------------------------ *)

type result = {
  config : config;
  duration_ns : int;
  offered_per_sec : float;
  achieved_per_sec : float;
  enqueued : int;
  refused : int;
  dequeued : int;
  restarts : int;
  sojourn : Obs.Histogram.t;
  enq_latency : Obs.Histogram.t;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Sleep most of a long gap, spin the rest — sleepf alone overshoots by
   scheduler quanta, spinning alone burns the (single) core. *)
let pace target =
  let rec loop () =
    let d = target - now_ns () in
    if d > 5_000_000 then begin
      Unix.sleepf (float_of_int (d - 2_000_000) /. 1e9);
      loop ()
    end
    else if d > 0 then begin
      Domain.cpu_relax ();
      loop ()
    end
  in
  loop ()

let run ?(config = default) fab =
  let cfg = config in
  let sched = schedule cfg in
  let pkeys = Array.init cfg.producers (keys_for cfg) in
  let sojourn = Obs.Histogram.create () in
  let enq_latency = Obs.Histogram.create () in
  (* when a sampler is live, the run narrates itself: per-shard depths,
     breaker states and the latency histograms appear on the timeline
     for exactly the duration of this run *)
  let telemetry = Obs.Sampler.active () in
  if telemetry then begin
    Fabric.Queue_fabric.register_telemetry ~prefix:"open_loop.fabric" fab;
    Obs.Sampler.register_histogram "open_loop.sojourn_ns" sojourn;
    Obs.Sampler.register_histogram "open_loop.enq_latency_ns" enq_latency
  end;
  let enqueued = Atomic.make 0 in
  let refused = Atomic.make 0 in
  let dequeued = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let live_producers = Atomic.make cfg.producers in
  let start = Atomic.make 0 in
  let wait_start () =
    while Atomic.get start = 0 do
      Domain.cpu_relax ()
    done;
    Atomic.get start
  in
  let fire p i =
    let t0 = now_ns () in
    let r =
      if Array.length pkeys.(p) = 0 then Fabric.Queue_fabric.try_enqueue fab t0
      else Fabric.Queue_fabric.try_enqueue ~key:pkeys.(p).(i) fab t0
    in
    (match r with
    | Ok () -> Atomic.incr enqueued
    | Error _ -> Atomic.incr refused);
    Obs.Histogram.record enq_latency (now_ns () - t0)
  in
  let produce_range p t0 ~from ~upto =
    for i = from to upto - 1 do
      pace (t0 + sched.(p).(i));
      fire p i
    done
  in
  let producer p () =
    let t0 = wait_start () in
    let n = Array.length sched.(p) in
    if cfg.crash_restart && p = 0 && n >= 2 then begin
      (* fail-stop halfway; the replacement resumes the same schedule
         against the same epoch, so arrivals missed during the outage
         fire immediately — the world does not wait *)
      let half = n / 2 in
      produce_range p t0 ~from:0 ~upto:half;
      Atomic.incr restarts;
      Domain.join
        (Domain.spawn (fun () -> produce_range p t0 ~from:half ~upto:n))
    end
    else produce_range p t0 ~from:0 ~upto:n;
    Atomic.decr live_producers
  in
  let consumer () =
    ignore (wait_start ());
    let running = ref true in
    while !running do
      match Fabric.Queue_fabric.try_dequeue fab with
      | Ok ts ->
          Obs.Histogram.record sojourn (now_ns () - ts);
          Atomic.incr dequeued
      | Error _ -> (
          if Atomic.get live_producers = 0 then
            (* quiescent: drain raw, outside the policy engine, so a
               tripped breaker cannot strand values *)
            match Fabric.Queue_fabric.drain_one fab with
            | Some ts ->
                Obs.Histogram.record sojourn (now_ns () - ts);
                Atomic.incr dequeued
            | None -> running := false
          else Domain.cpu_relax ())
    done
  in
  let pdoms = Array.init cfg.producers (fun p -> Domain.spawn (producer p)) in
  let cdoms =
    Array.init (max 1 cfg.consumers) (fun _ -> Domain.spawn consumer)
  in
  let t0 = now_ns () in
  Atomic.set start t0;
  Array.iter Domain.join pdoms;
  Array.iter Domain.join cdoms;
  let duration_ns = max 1 (now_ns () - t0) in
  if telemetry then begin
    (* one last sample so the timeline's tail reflects the drained
       state, then drop this run's sources (the series keep their
       points for export) *)
    Obs.Sampler.tick ();
    Obs.Sampler.remove ~prefix:"open_loop."
  end;
  {
    config = cfg;
    duration_ns;
    offered_per_sec = cfg.rate;
    achieved_per_sec =
      float_of_int (Atomic.get dequeued) *. 1e9 /. float_of_int duration_ns;
    enqueued = Atomic.get enqueued;
    refused = Atomic.get refused;
    dequeued = Atomic.get dequeued;
    restarts = Atomic.get restarts;
    sojourn;
    enq_latency;
  }

(* ------------------------------------------------------------------ *)

let pct h p = match Obs.Histogram.percentile h p with Some v -> v | None -> 0
let percentiles h = (pct h 50., pct h 99., pct h 99.9)

let result_json r =
  let open Obs.Json in
  let s50, s99, s999 = percentiles r.sojourn in
  let e50, e99, e999 = percentiles r.enq_latency in
  Assoc
    [
      ("seed", String (Printf.sprintf "0x%Lx" r.config.seed));
      ("offered_per_sec", Float r.offered_per_sec);
      ("achieved_per_sec", Float r.achieved_per_sec);
      ("arrivals", Int r.config.arrivals);
      ("producers", Int r.config.producers);
      ("consumers", Int r.config.consumers);
      ( "burst",
        match r.config.burst with
        | None -> Bool false
        | Some b -> Assoc [ ("on_ns", Int b.on_ns); ("off_ns", Int b.off_ns) ]
      );
      ("key_skew", Float r.config.key_skew);
      ("crash_restart", Bool r.config.crash_restart);
      ("duration_ns", Int r.duration_ns);
      ("enqueued", Int r.enqueued);
      ("refused", Int r.refused);
      ("dequeued", Int r.dequeued);
      ("restarts", Int r.restarts);
      ("sojourn_p50_ns", Int s50);
      ("sojourn_p99_ns", Int s99);
      ("sojourn_p999_ns", Int s999);
      ("enq_p50_ns", Int e50);
      ("enq_p99_ns", Int e99);
      ("enq_p999_ns", Int e999);
      ("sojourn", Obs.Histogram.to_json r.sojourn);
      ("enq_latency", Obs.Histogram.to_json r.enq_latency);
    ]

let pp_result fmt r =
  let s50, s99, s999 = percentiles r.sojourn in
  Format.fprintf fmt
    "offered %8.0f/s achieved %8.0f/s  %d enq / %d refused / %d deq%s  \
     sojourn p50 %d p99 %d p999 %d ns"
    r.offered_per_sec r.achieved_per_sec r.enqueued r.refused r.dequeued
    (if r.restarts > 0 then Printf.sprintf " / %d restarts" r.restarts else "")
    s50 s99 s999
