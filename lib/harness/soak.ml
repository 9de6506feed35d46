exception Crashed of string
exception Aborted

type crash_mode = Mid_protocol | Between_ops

type report = {
  queue : string;
  seed : int64;
  rounds : int;
  producers : int;
  consumers : int;
  ops : int;
  enqueued : int;
  maybe_enqueued : int;
  consumed : int;
  drained : int;
  crashes : int;
  restarts : int;
  enq_crashes : int;
  deq_crashes : int;
  chaos_hits : int;
  hp_lag_high_water : int;
  deq_p999_ns : int;  (* consumers' p999 dequeue latency; 0 when empty *)
  outcomes : Resilience.Resilient.outcomes;
  audit_failures : string list;
  watchdog_expired : bool;
  elapsed_s : float;
}

let passed r = r.audit_failures = [] && not r.watchdog_expired

let report_json r =
  let open Obs.Json in
  Assoc
    [
      ("queue", String r.queue);
      ("seed", String (Printf.sprintf "0x%Lx" r.seed));
      ("rounds", Int r.rounds);
      ("producers", Int r.producers);
      ("consumers", Int r.consumers);
      ("ops_per_producer", Int r.ops);
      ("enqueued", Int r.enqueued);
      ("maybe_enqueued", Int r.maybe_enqueued);
      ("consumed", Int r.consumed);
      ("drained", Int r.drained);
      ("crashes", Int r.crashes);
      ("restarts", Int r.restarts);
      ("enq_crashes", Int r.enq_crashes);
      ("deq_crashes", Int r.deq_crashes);
      ("chaos_hits", Int r.chaos_hits);
      ("hp_lag_high_water", Int r.hp_lag_high_water);
      ("deq_p999_ns", Int r.deq_p999_ns);
      ("outcomes", Resilience.Resilient.outcomes_json r.outcomes);
      ( "audit_failures",
        List (List.map (fun s -> String s) r.audit_failures) );
      ("watchdog_expired", Bool r.watchdog_expired);
      ("passed", Bool (passed r));
      ("elapsed_s", Float r.elapsed_s);
    ]

let pp_report fmt r =
  Format.fprintf fmt
    "%-14s %d rounds: %d enq (+%d maybe), %d consumed + %d drained, %d \
     crashes / %d restarts, chaos %d — %s"
    r.queue r.rounds r.enqueued r.maybe_enqueued r.consumed r.drained r.crashes
    r.restarts r.chaos_hits
    (if passed r then "ok"
     else if r.watchdog_expired then "WATCHDOG EXPIRED"
     else "AUDIT FAILED: " ^ String.concat "; " r.audit_failures)

(* ------------------------------------------------------------------ *)
(* Host-side deterministic decisions (victims, countdowns): SplitMix64
   from [Locks.Backoff], the generator behind the chaos/backoff streams. *)

let mix64 = Locks.Backoff.mix64

let rng_of seed =
  let st = ref seed in
  fun () -> Int64.to_int (Int64.shift_right_logical (Locks.Backoff.next st) 2)

let n_rows = 128
let row () = (Domain.self () :> int) land (n_rows - 1)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Per-worker bookkeeping, read by the end-of-round audits. *)

type slot = {
  mutable definite : int list;
  mutable maybe : int list;
  mutable got : int list;  (* newest first *)
  mutable s_crashes : int;
  mutable s_restarts : int;
  mutable err : string option;
}

let fresh_slot () =
  { definite = []; maybe = []; got = []; s_crashes = 0; s_restarts = 0; err = None }

let hp_lag_bound = 1 lsl 16

(* Soak-tuned resilience: tight deadlines and a hair-trigger breaker so
   a run actually visits every outcome the report attributes. *)
let soak_config =
  {
    Resilience.Resilient.default with
    deadline_ns = 200_000;
    max_retries = 32;
    breaker_threshold = 8;
    breaker_cooldown_ns = 50_000;
  }

module Make (B : Core.Queue_intf.BOUNDED) = struct
  module R = Resilience.Resilient.Make_bounded (B)

  let run ?(capacity = 64) ?gauge ?(rounds = 4) ?(producers = 2)
      ?(consumers = 2) ?(ops = 1_000) ?(deadline_s = 60.)
      ?(crash_mode = Mid_protocol) ~seed () =
    let rq = R.create ~config:soak_config ~capacity () in
    (* timed here, not by the engine, whose metrics follow Obs.Control *)
    let deq_latency = Obs.Histogram.create () in
    (* the raw queue, outside the breaker: end-of-round drain and audits *)
    let q = R.queue rq in
    let t_start = Unix.gettimeofday () in
    (* the flight recorder rides along for the whole soak: if the run
       dies, the black box holds every domain's last recorded moments *)
    let flight_was_on = Obs.Flight.enabled () in
    if not flight_was_on then Obs.Flight.enable ();
    let rnd = rng_of seed in
    let stop = Atomic.make false in
    let expired = Atomic.make false in
    let finished = Atomic.make false in
    let arm = Array.make n_rows 0 in
    let hp_ctr = Array.make n_rows 0 in
    (* Hazard-pointer sites, flagged once per label interned so far:
       the hook tests a flag, not a string (no allocation per mark). *)
    let hp_site =
      Array.init (Locks.Probe.count ()) (fun i ->
          String.starts_with ~prefix:"msq-hp" Locks.Probe.(name (of_int i)))
    in
    (* The site handler at the Chaos position: watchdog escape hatch,
       the chaos delay itself, crash countdowns, then stalled
       hazard-pointer readers. *)
    let hook l =
      if Atomic.get stop then raise Aborted;
      Obs.Chaos.maybe_delay ();
      (let r = row () in
       let c = arm.(r) in
       if c > 0 then begin
         arm.(r) <- c - 1;
         if c = 1 then raise (Crashed (Locks.Probe.name l))
       end);
      let id = (l :> int) in
      if id < Array.length hp_site && hp_site.(id) then begin
        let r = row () in
        hp_ctr.(r) <- hp_ctr.(r) + 1;
        (* every 64th hazard-pointer event, the reader stalls while still
           holding its protection — reclamation must wait it out *)
        if hp_ctr.(r) mod 64 = 0 then
          for _ = 1 to 2_048 do
            Domain.cpu_relax ()
          done
      end
    in
    let watchdog =
      Domain.spawn (fun () ->
          let rec loop () =
            if Atomic.get finished then ()
            else if Unix.gettimeofday () -. t_start > deadline_s then begin
              Atomic.set expired true;
              Atomic.set stop true
            end
            else begin
              Unix.sleepf 0.02;
              loop ()
            end
          in
          loop ())
    in
    Obs.Chaos.reset_hits ();
    let audit_failures = ref [] in
    let fail round fmt =
      Printf.ksprintf
        (fun s ->
          audit_failures := Printf.sprintf "round %d: %s" round s :: !audit_failures)
        fmt
    in
    let agg_definite = ref 0
    and agg_maybe = ref 0
    and agg_got = ref 0
    and agg_drained = ref 0
    and agg_crashes = ref 0
    and agg_restarts = ref 0
    and agg_enq_crashes = ref 0
    and agg_deq_crashes = ref 0
    and hp_hw = ref (-1)
    and rounds_done = ref 0 in
    let body () =
      for round = 0 to rounds - 1 do
        if not (Atomic.get stop) then begin
          (* alternate calm and storm chaos configurations, each round's
             streams a pure function of the run seed and the round *)
          let storm = round land 1 = 1 in
          let cseed = mix64 (Int64.add seed (Int64.of_int (round + 1))) in
          Obs.Chaos.configure ~seed:cseed
            ~one_in:(if storm then 2 else 8)
            ~max_delay:(if storm then 256 else 48)
            ();
          Locks.Backoff.reseed (mix64 cseed);
          Obs.Chaos.subscribe hook;
          let stamp i k = (round * 100_000_000) + ((i + 1) * 1_000_000) + k in
          let pslots = Array.init producers (fun _ -> fresh_slot ()) in
          let cslots = Array.init consumers (fun _ -> fresh_slot ()) in
          let remaining = Atomic.make producers in
          let victim_p = rnd () mod producers in
          let victim_c = rnd () mod consumers in
          let countdown () = 1 + (rnd () mod max 1 (ops / 2)) in
          let p_count = countdown () in
          let c_count = countdown () in
          let producer i () =
            let slot = pslots.(i) in
            let k = ref 0 in
            let between =
              ref
                (match crash_mode with
                | Between_ops when i = victim_p -> p_count
                | _ -> max_int)
            in
            let rec attempt armed =
              if armed > 0 then arm.(row ()) <- armed;
              let inflight = ref (-1) in
              match
                while !k < ops do
                  if Atomic.get stop then raise Aborted;
                  decr between;
                  if !between = 0 then raise (Crashed "between-ops");
                  let s = stamp i !k in
                  inflight := s;
                  match R.try_enqueue rq s with
                  | Ok () ->
                      slot.definite <- s :: slot.definite;
                      inflight := -1;
                      incr k
                  | Error _ ->
                      (* refused (full, or shed): retry the same value *)
                      inflight := -1
                done
              with
              | () -> ()
              | exception Aborted -> ()
              | exception Crashed _ ->
                  slot.s_crashes <- slot.s_crashes + 1;
                  (* a crash mid-enqueue: the value may or may not have been
                     linked — the replacement must not retry it *)
                  if !inflight >= 0 then begin
                    slot.maybe <- !inflight :: slot.maybe;
                    incr k
                  end;
                  if not (Atomic.get stop) then begin
                    slot.s_restarts <- slot.s_restarts + 1;
                    Domain.join (Domain.spawn (fun () -> attempt 0))
                  end
              | exception e ->
                  slot.err <- Some (Printexc.to_string e);
                  Atomic.set stop true
            in
            attempt
              (match crash_mode with
              | Mid_protocol when i = victim_p -> p_count
              | _ -> 0);
            Atomic.decr remaining
          in
          let consumer j () =
            let slot = cslots.(j) in
            let between =
              ref
                (match crash_mode with
                | Between_ops when j = victim_c -> c_count
                | _ -> max_int)
            in
            let rec attempt armed =
              if armed > 0 then arm.(row ()) <- armed;
              match
                let running = ref true in
                while !running do
                  if Atomic.get stop then running := false
                  else begin
                    decr between;
                    if !between = 0 then raise (Crashed "between-ops");
                    let c0 = now_ns () in
                    match R.try_dequeue rq with
                    | Ok v ->
                        Obs.Histogram.record deq_latency (now_ns () - c0);
                        slot.got <- v :: slot.got
                    | Error _ ->
                        if Atomic.get remaining = 0 && B.is_empty q then
                          running := false
                        else Domain.cpu_relax ()
                  end
                done
              with
              | () -> ()
              | exception Aborted -> ()
              | exception Crashed _ ->
                  slot.s_crashes <- slot.s_crashes + 1;
                  if not (Atomic.get stop) then begin
                    slot.s_restarts <- slot.s_restarts + 1;
                    Domain.join (Domain.spawn (fun () -> attempt 0))
                  end
              | exception e ->
                  slot.err <- Some (Printexc.to_string e);
                  Atomic.set stop true
            in
            attempt
              (match crash_mode with
              | Mid_protocol when j = victim_c -> c_count
              | _ -> 0)
          in
          let pdoms = Array.init producers (fun i -> Domain.spawn (producer i)) in
          let cdoms = Array.init consumers (fun j -> Domain.spawn (consumer j)) in
          Array.iter Domain.join pdoms;
          Array.iter Domain.join cdoms;
          Obs.Chaos.disable ();
          Array.iter
            (fun s ->
              match s.err with
              | Some e -> fail round "worker raised %s" e
              | None -> ())
            (Array.append pslots cslots);
          if not (Atomic.get expired) then begin
            (* bounded queues physically cannot exceed capacity *)
            (let l = B.length q and cap = B.capacity q in
             if l > cap then fail round "length %d exceeds capacity %d" l cap);
            let drained = ref [] in
            let rec dr () =
              match B.try_dequeue q with
              | Some v ->
                  drained := v :: !drained;
                  dr ()
              | None -> ()
            in
            dr ();
            (* ---- audits ---- *)
            let definite =
              Array.fold_left (fun acc s -> s.definite @ acc) [] pslots
            in
            let maybe = Array.fold_left (fun acc s -> s.maybe @ acc) [] pslots in
            let consumed =
              Array.fold_left (fun acc s -> s.got @ acc) [] cslots
            in
            let got = consumed @ !drained in
            let deq_crashes_round =
              Array.fold_left (fun acc s -> acc + s.s_crashes) 0 cslots
            in
            (* no duplicates *)
            (match List.sort compare got with
            | [] -> ()
            | first :: rest ->
                ignore
                  (List.fold_left
                     (fun (prev, reported) v ->
                       if v = prev && not reported then begin
                         fail round "value %d consumed twice" v;
                         (v, true)
                       end
                       else (v, reported))
                     (first, false) rest));
            (* everything consumed was produced *)
            let produced_t = Hashtbl.create (List.length definite + 8) in
            List.iter (fun s -> Hashtbl.replace produced_t s ()) definite;
            List.iter (fun s -> Hashtbl.replace produced_t s ()) maybe;
            (try
               List.iter
                 (fun s ->
                   if not (Hashtbl.mem produced_t s) then begin
                     fail round "value %d consumed but never produced" s;
                     raise Exit
                   end)
                 got
             with Exit -> ());
            (* nothing lost beyond the dequeue-crash allowance *)
            let got_t = Hashtbl.create (List.length got + 8) in
            List.iter (fun s -> Hashtbl.replace got_t s ()) got;
            let missing =
              List.length (List.filter (fun s -> not (Hashtbl.mem got_t s)) definite)
            in
            if missing > deq_crashes_round then
              fail round "%d enqueued values lost (> %d dequeue crashes)" missing
                deq_crashes_round;
            (* per-producer FIFO as observed by each consumer (and the
               drain, which is one more sequential observer) *)
            let check_fifo who lst =
              let last = Hashtbl.create 8 in
              let reported = ref false in
              List.iter
                (fun s ->
                  let p = s mod 100_000_000 / 1_000_000 in
                  let q = s mod 1_000_000 in
                  (match Hashtbl.find_opt last p with
                  | Some prev when prev >= q && not !reported ->
                      fail round "%s saw producer %d out of order (%d after %d)"
                        who p q prev;
                      reported := true
                  | _ -> ());
                  Hashtbl.replace last p q)
                lst
            in
            Array.iteri
              (fun j s ->
                check_fifo (Printf.sprintf "consumer %d" j) (List.rev s.got))
              cslots;
            check_fifo "drain" !drained;
            (* drained to empty *)
            let l = B.length q in
            if l <> 0 then fail round "length %d after a full drain" l;
            (* hazard-pointer reclamation lag stays bounded *)
            (match gauge with
            | Some g ->
                let lag = g q in
                hp_hw := max !hp_hw lag;
                if lag > hp_lag_bound then
                  fail round "hazard-pointer reclamation lag %d (> %d)" lag
                    hp_lag_bound
            | None -> ());
            agg_definite := !agg_definite + List.length definite;
            agg_maybe := !agg_maybe + List.length maybe;
            agg_got := !agg_got + List.length consumed;
            agg_drained := !agg_drained + List.length !drained;
            let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
            agg_enq_crashes := !agg_enq_crashes + sum (fun s -> s.s_crashes) pslots;
            agg_deq_crashes := !agg_deq_crashes + deq_crashes_round;
            agg_crashes :=
              !agg_crashes
              + sum (fun s -> s.s_crashes) pslots
              + sum (fun s -> s.s_crashes) cslots;
            agg_restarts :=
              !agg_restarts
              + sum (fun s -> s.s_restarts) pslots
              + sum (fun s -> s.s_restarts) cslots;
            incr rounds_done
          end
        end
      done
    in
    Fun.protect
      ~finally:(fun () ->
        Obs.Chaos.disable ();
        Atomic.set finished true;
        Domain.join watchdog;
        if not flight_was_on then Obs.Flight.disable ())
      body;
    (* a failed run is a major anomaly: dump the black box (if a dump
       path is armed) before teardown disturbs anything further *)
    (match List.rev !audit_failures with
    | first :: _ ->
        Obs.Flight.note_anomaly
          ~reason:(Printf.sprintf "soak-audit:%s: %s" B.name first)
          ()
    | [] ->
        if Atomic.get expired then
          Obs.Flight.note_anomaly ~reason:("soak-watchdog:" ^ B.name) ());
    {
      queue = B.name;
      seed;
      rounds = !rounds_done;
      producers;
      consumers;
      ops;
      enqueued = !agg_definite;
      maybe_enqueued = !agg_maybe;
      consumed = !agg_got;
      drained = !agg_drained;
      crashes = !agg_crashes;
      restarts = !agg_restarts;
      enq_crashes = !agg_enq_crashes;
      deq_crashes = !agg_deq_crashes;
      chaos_hits = Obs.Chaos.hits ();
      hp_lag_high_water = !hp_hw;
      deq_p999_ns = Option.value ~default:0 (Obs.Histogram.p999 deq_latency);
      outcomes = R.outcomes rq;
      audit_failures = List.rev !audit_failures;
      watchdog_expired = Atomic.get expired;
      elapsed_s = Unix.gettimeofday () -. t_start;
    }
end

(* Queues whose abandoned mid-protocol state no helper can repair get
   between-ops crashes: the MC queue's unlinked-tail gap blocks every
   dequeuer forever, and an SCQ slot claimed but never filled wedges the
   ring — by design, not by bug.  PLJ carries no labeled probe sites, so
   between-ops is the only countdown that can fire there. *)
let between_ops_keys = [ "mc"; "plj"; "scq" ]

(* The fabric adapter routes by domain id, and a soak restart hands the
   replacement producer a fresh domain — so its enqueues land on a
   different shard and the per-producer-FIFO audit would flag a
   reordering the fabric never promised across restarts.  Fabric
   crash/restart coverage lives in {!Open_loop} (sojourn accounting is
   restart-agnostic) and the chaos suites in test_fabric. *)
let soak_excluded_keys = [ "fabric" ]

let run_all ?keys ?rounds ?ops ?deadline_s ~seed () =
  let wanted key =
    (not (List.mem key soak_excluded_keys))
    && match keys with None -> true | Some ks -> List.mem key ks
  in
  List.filter_map
    (fun (e : Registry.native_entry) ->
      if not (wanted e.key) then None
      else if e.key = "ms-hp" then
        let module S = Make (Core.Queue_intf.Unbounded (Core.Ms_queue_hp)) in
        Some
          (S.run ~gauge:Core.Ms_queue_hp.pending_reclamation ?rounds ?ops
             ?deadline_s ~seed ())
      else
        let module S = Make ((val e.queue)) in
        let crash_mode =
          if List.mem e.key between_ops_keys then Between_ops else Mid_protocol
        in
        Some
          (S.run ?rounds ?ops ?deadline_s ~crash_mode ~seed ()))
    Registry.native

(* ------------------------------------------------------------------ *)
(* Planted-bug self-test: a queue that silently drops every 97th
   enqueue.  The conservation audit must catch it, or the soak's green
   means nothing. *)

module Broken_ms = struct
  type 'a t = { q : 'a Core.Ms_queue.t; n : int Atomic.t }

  let name = "broken-ms"
  let create () = { q = Core.Ms_queue.create (); n = Atomic.make 0 }

  let enqueue t v =
    if Atomic.fetch_and_add t.n 1 mod 97 = 96 then ()
    else Core.Ms_queue.enqueue t.q v

  let dequeue t = Core.Ms_queue.dequeue t.q
  let peek t = Core.Ms_queue.peek t.q
  let is_empty t = Core.Ms_queue.is_empty t.q
  let length t = Core.Ms_queue.length t.q
end

let self_test ~seed =
  let module S = Make (Core.Queue_intf.Unbounded (Broken_ms)) in
  let r =
    S.run ~rounds:2 ~producers:2 ~consumers:2 ~ops:400 ~deadline_s:30. ~seed ()
  in
  not (passed r)

(* ------------------------------------------------------------------ *)
(* Simulator mirror: crash + restart under the deterministic engine. *)

type sim_result = {
  algorithm : string;
  crash_after : int;
  sim_outcome : string;
  conservation_ok : bool;
  lost : int;
  phantom : int;
  points : int;
  blocked_points : int;
}

let sim_ok r =
  r.conservation_ok
  && (r.sim_outcome = "completed" || r.sim_outcome = "blocked")

let sim_result_json r =
  let open Obs.Json in
  Assoc
    [
      ("algorithm", String r.algorithm);
      ("crash_after", Int r.crash_after);
      ("outcome", String r.sim_outcome);
      ("conservation_ok", Bool r.conservation_ok);
      ("lost", Int r.lost);
      ("phantom", Int r.phantom);
      ("ok", Bool (sim_ok r));
      ("points", Int r.points);
      ("blocked_points", Int r.blocked_points);
    ]

let outcome_string = function
  | Sim.Engine.Completed -> "completed"
  | Sim.Engine.Blocked -> "blocked"
  | Sim.Engine.Step_limit -> "step-limit"

let sim_trial (module Q : Squeues.Intf.S) ~procs ~per ~seed ~fault =
  let base = Sim.Config.with_processors procs in
  let cfg = { base with Sim.Config.seed } in
  let eng = Sim.Engine.create cfg in
  let q = Q.init eng in
  let attempted = ref [] in
  let completed = ref [] in
  let consumed = ref [] in
  let alive = ref (procs - 1) in
  let produce_range ~first_stamp ~count () =
    for k = 1 to count do
      let s = first_stamp + k in
      attempted := s :: !attempted;
      Q.enqueue q s;
      completed := s :: !completed;
      Sim.Api.work 60;
      Sim.Api.progress ()
    done;
    decr alive
  in
  let consumer () =
    let running = ref true in
    while !running do
      match Q.dequeue q with
      | Some v ->
          consumed := v :: !consumed;
          Sim.Api.progress ()
      | None -> if !alive = 0 then running := false else Sim.Api.work 120
    done
  in
  let pids =
    List.init (procs - 1) (fun i ->
        Sim.Engine.spawn eng
          (produce_range ~first_stamp:((i + 1) * 1_000_000) ~count:per))
  in
  let _consumer_pid = Sim.Engine.spawn eng consumer in
  let victim = List.hd pids in
  (match fault with
  | None -> ()
  | Some after_ops ->
      (* the replacement has no memory of the crash: it enqueues a fresh
         range and takes over the victim's producers-alive token *)
      Sim.Faults.inject eng victim
        ~restart:(produce_range ~first_stamp:9_000_000 ~count:(per / 2))
        (Sim.Faults.Crash_restart { after_ops; restart_after = 50_000 }));
  let outcome = Sim.Engine.run ~watchdog:2_000_000 eng in
  (outcome, eng, victim, !attempted, !completed, !consumed)

(* One crash point's verdict: its outcome and, when it completed, the
   audit of consumed against attempted and completed enqueues. *)
type point = {
  at : int;
  outcome : Sim.Engine.outcome;
  conserved : bool;
  p_lost : int;
  p_phantom : int;
}

let crash_point q ~procs ~per ~seed at =
  let outcome, _, _, attempted, completed, consumed =
    sim_trial q ~procs ~per ~seed ~fault:(Some at)
  in
  let table lst =
    let h = Hashtbl.create (List.length lst + 8) in
    List.iter (fun s -> Hashtbl.replace h s ()) lst;
    h
  in
  let dup =
    let h = Hashtbl.create (List.length consumed + 8) in
    List.exists
      (fun s ->
        if Hashtbl.mem h s then true
        else begin
          Hashtbl.add h s ();
          false
        end)
      consumed
  in
  let attempted_t = table attempted in
  let completed_t = table completed in
  let consumed_t = table consumed in
  let unknown = List.exists (fun s -> not (Hashtbl.mem attempted_t s)) consumed in
  let p_lost =
    List.length (List.filter (fun s -> not (Hashtbl.mem consumed_t s)) completed)
  in
  let p_phantom =
    List.length (List.filter (fun s -> not (Hashtbl.mem completed_t s)) consumed)
  in
  {
    at;
    outcome;
    conserved =
      outcome <> Sim.Engine.Completed
      || ((not dup) && (not unknown) && p_lost = 0 && p_phantom <= 1);
    p_lost;
    p_phantom;
  }

(* Crash points swept per algorithm: enough that a crash lands inside a
   critical section of every lock-based queue (single-lock blocks at 2
   of 16, mc at 1, two-lock at 3). *)
let sim_crash_points = 16

let sim_one (module Q : Squeues.Intf.S) ~procs ~per ~seed =
  match sim_trial (module Q) ~procs ~per ~seed ~fault:None with
  | Sim.Engine.Completed, eng, victim, _, _, _ ->
      let total_ops = Sim.Engine.ops_executed eng victim in
      let pts =
        List.map
          (crash_point (module Q) ~procs ~per ~seed)
          (Sim.Faults.crash_points ~trials:sim_crash_points ~total_ops)
      in
      let ended o = List.filter (fun p -> p.outcome = o) pts in
      let completed = ended Sim.Engine.Completed
      and blocked = List.length (ended Sim.Engine.Blocked) in
      let faulty p = p.outcome <> Sim.Engine.Completed || not p.conserved in
      let shown = Option.value (List.find_opt faulty pts) ~default:(List.hd pts) in
      {
        algorithm = Q.name;
        crash_after = shown.at;
        sim_outcome =
          outcome_string
            (if ended Sim.Engine.Step_limit <> [] then Sim.Engine.Step_limit
             else if blocked > 0 then Sim.Engine.Blocked
             else Sim.Engine.Completed);
        conservation_ok = List.for_all (fun p -> p.conserved) pts;
        lost = List.fold_left (fun n p -> n + p.p_lost) 0 completed;
        phantom = List.fold_left (fun n p -> max n p.p_phantom) 0 completed;
        points = List.length pts;
        blocked_points = blocked;
      }
  | o, _, _, _, _, _ ->
      {
        algorithm = Q.name;
        crash_after = 0;
        sim_outcome = outcome_string o ^ " (reference)";
        conservation_ok = false;
        lost = 0;
        phantom = 0;
        points = 0;
        blocked_points = 0;
      }

let sim_battery ?(queues = Registry.all) ?(procs = 4) ?(per = 400)
    ?(seed = 0x534F414BL (* "SOAK" *)) () =
  List.map (fun { Registry.algo; _ } -> sim_one algo ~procs ~per ~seed) queues

let pp_sim_result fmt r =
  Format.fprintf fmt "%-18s crash+restart at %d points: " r.algorithm r.points;
  if r.sim_outcome = "completed" && r.conservation_ok then
    Format.fprintf fmt "completed and conserved at all"
  else begin
    if r.sim_outcome <> "completed" && r.sim_outcome <> "blocked" then
      Format.fprintf fmt "%s, " r.sim_outcome;
    Format.fprintf fmt "blocked at %d, %s; first fault after op %d"
      r.blocked_points
      (if r.conservation_ok then "conserved where completed"
       else
         Printf.sprintf "CONSERVATION VIOLATED (lost %d, phantom %d)" r.lost
           r.phantom)
      r.crash_after
  end

(* ------------------------------------------------------------------ *)
(* The soak gate: self-test, simulated battery, native soak. *)

type gate = {
  seed : int64;
  self_test : bool option;
  sim : (string * sim_result) list;
  native : report list;
  flight_dump : (string * string) option;
}

let gate ?keys ?self_test:(planted = false) ?flight_out ?rounds ?ops
    ?deadline_s ~seed () =
  let self_test = if planted then Some (self_test ~seed) else None in
  Option.iter (fun path -> Obs.Flight.arm_dump ~path) flight_out;
  let sim =
    List.filter_map
      (fun (e : Registry.entry) ->
        if Option.fold ~none:true ~some:(List.mem e.key) keys then
          Some (e.key, List.hd (sim_battery ~queues:[ e ] ~seed ()))
        else None)
      Registry.all
  in
  let native = run_all ?keys ?rounds ?ops ?deadline_s ~seed () in
  let flight_dump =
    match flight_out with
    | None -> None
    | Some _ ->
        let d = Obs.Flight.last_dump () in
        Obs.Flight.disarm_dump ();
        d
  in
  { seed; self_test; sim; native; flight_dump }

let verdicts g =
  (match g.self_test with
  | None -> []
  | Some caught ->
      [
        Verdict.v "self-test" caught
          (if caught then "conservation audit caught the planted bug"
           else "the planted element-dropping bug went undetected");
      ])
  @ List.map
      (fun (key, r) ->
        let why =
          if List.mem key Registry.nonblocking then
            if r.sim_outcome <> "completed" then
              Some "a non-blocking algorithm must complete after crash+restart"
            else None
          else if r.blocked_points = 0 then
            Some "a blocking algorithm must block at some crash point"
          else None
        in
        Verdict.v ("sim " ^ key)
          (sim_ok r && why = None)
          (Format.asprintf "%a%s" pp_sim_result r
             (match why with Some w -> " — " ^ w | None -> "")))
      g.sim
  @ List.map
      (fun r ->
        Verdict.v ("native " ^ r.queue) (passed r)
          (Format.asprintf "%a" pp_report r))
      g.native

let gate_json g =
  let open Obs.Json in
  Assoc
    ([ ("seed", String (Printf.sprintf "0x%Lx" g.seed)) ]
    @ (match g.self_test with
      | None -> []
      | Some b -> [ ("self_test", Bool b) ])
    @ [
        ("native", List (List.map report_json g.native));
        ("sim", List (List.map (fun (_, r) -> sim_result_json r) g.sim));
      ])

let first_failure g =
  List.find_opt (fun r -> not (passed r)) g.native
  |> Option.map (fun r ->
         String.concat "\n"
           (Obs.Json.to_string_pretty (report_json r)
           :: List.map (fun f -> "audit failure: " ^ f) r.audit_failures)
         ^ "\n")
