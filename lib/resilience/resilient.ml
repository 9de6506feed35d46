(* The retry engine behind [Make_bounded] and the fabric's shards.
   All breaker state is one Atomic cell per field; the
   counters/histograms are the padded per-domain Obs primitives, so
   feeding stats from every domain at once causes no coherence storms.
   The only clock is the monotonic one — deadlines survive wall-clock
   adjustments. *)

type policy = Fail_fast | Block_until of int | Shed

type config = {
  deadline_ns : int;
  max_retries : int;
  backoff_initial : int;
  backoff_limit : int;
  breaker_threshold : int;
  breaker_cooldown_ns : int;
  policy : policy;
}

let default =
  {
    deadline_ns = 1_000_000;
    max_retries = 64;
    backoff_initial = 16;
    backoff_limit = 4096;
    breaker_threshold = 16;
    breaker_cooldown_ns = 100_000;
    policy = Shed;
  }

type error = Timed_out | Shedded | Rejected

let error_to_string = function
  | Timed_out -> "timed_out"
  | Shedded -> "shedded"
  | Rejected -> "rejected"

type breaker_state = Closed | Open | Half_open

type outcomes = {
  timeouts : int;
  sheds : int;
  rejections : int;
  breaker_trips : int;
  breaker_recoveries : int;
}

let outcomes_json o =
  Obs.Json.Assoc
    [
      ("timeouts", Obs.Json.Int o.timeouts);
      ("sheds", Obs.Json.Int o.sheds);
      ("rejections", Obs.Json.Int o.rejections);
      ("breaker_trips", Obs.Json.Int o.breaker_trips);
      ("breaker_recoveries", Obs.Json.Int o.breaker_recoveries);
    ]

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Breaker states, packed into one Atomic int. *)
let st_closed = 0
let st_open = 1
let st_half = 2

type breaker = {
  state : int Atomic.t;
  opened_at : int Atomic.t;
  consecutive : int Atomic.t;
}

let fresh_breaker () =
  {
    state = Atomic.make st_closed;
    opened_at = Atomic.make 0;
    consecutive = Atomic.make 0;
  }

type rt = {
  cfg : config;
  metrics : Obs.Metrics.t;
  c_timeouts : Obs.Counter.t;
  c_sheds : Obs.Counter.t;
  c_rejections : Obs.Counter.t;
  c_trips : Obs.Counter.t;
  c_recoveries : Obs.Counter.t;
  enq_br : breaker;
  deq_br : breaker;
}

let fresh_rt cfg name =
  {
    cfg;
    metrics = Obs.Metrics.create name;
    c_timeouts = Obs.Counter.create ();
    c_sheds = Obs.Counter.create ();
    c_rejections = Obs.Counter.create ();
    c_trips = Obs.Counter.create ();
    c_recoveries = Obs.Counter.create ();
    enq_br = fresh_breaker ();
    deq_br = fresh_breaker ();
  }

let outcomes_of rt =
  {
    timeouts = Obs.Counter.value rt.c_timeouts;
    sheds = Obs.Counter.value rt.c_sheds;
    rejections = Obs.Counter.value rt.c_rejections;
    breaker_trips = Obs.Counter.value rt.c_trips;
    breaker_recoveries = Obs.Counter.value rt.c_recoveries;
  }

let breaker_state_of br =
  match Atomic.get br.state with
  | 0 -> Closed
  | 1 -> Open
  | _ -> Half_open

let rt_json rt =
  Obs.Json.Assoc
    [
      ("metrics", Obs.Metrics.to_json rt.metrics);
      ("outcomes", outcomes_json (outcomes_of rt));
    ]

type kind = Enq | Deq

(* One refusal observed: feed the direction counter and maybe trip the
   breaker.  Trips count consecutive refused *attempts* (across all
   domains); any successful attempt resets the run. *)
let note_refusal rt br kind =
  (match kind with
  | Enq -> Obs.Counter.incr rt.metrics.Obs.Metrics.full_enqueues
  | Deq -> Obs.Counter.incr rt.metrics.Obs.Metrics.empty_dequeues);
  if rt.cfg.breaker_threshold > 0 then begin
    let seen = 1 + Atomic.fetch_and_add br.consecutive 1 in
    if
      seen >= rt.cfg.breaker_threshold
      && Atomic.compare_and_set br.state st_closed st_open
    then begin
      Atomic.set br.opened_at (now_ns ());
      Obs.Counter.incr rt.c_trips;
      Locks.Probe.site "res.breaker.trip";
      (* a minor anomaly: claims the flight-recorder latch only if no
         real failure (watchdog, audit) has *)
      Obs.Flight.note_anomaly ~major:false
        ~reason:("breaker-trip:" ^ rt.metrics.Obs.Metrics.name)
        ()
    end
  end

(* A half-open probe failed (or died): swing the circuit back open and
   restart the cooldown.  Re-trips are counted as trips. *)
let reopen rt br =
  if Atomic.compare_and_set br.state st_half st_open then begin
    Atomic.set br.opened_at (now_ns ());
    Obs.Counter.incr rt.c_trips;
    Locks.Probe.site "res.breaker.trip";
    Obs.Flight.note_anomaly ~major:false
      ~reason:("breaker-retrip:" ^ rt.metrics.Obs.Metrics.name)
      ()
  end

let note_success rt br =
  Atomic.set br.consecutive 0;
  if
    Atomic.get br.state = st_half
    && Atomic.compare_and_set br.state st_half st_closed
  then begin
    Obs.Counter.incr rt.c_recoveries;
    Locks.Probe.site "res.breaker.recover"
  end

type admission = Proceed | Probe | Deny

(* Breaker gate.  While open and cooling: [Block_until] waits for the
   cooldown (bounded by its span and the deadline), everything else is
   denied outright.  Once cooled, exactly one caller wins the CAS to
   half-open and proceeds as the probe; the rest stay denied until the
   probe's outcome resolves the state. *)
let admit rt br ~t0 ~deadline =
  if rt.cfg.breaker_threshold <= 0 then Proceed
  else
    match Atomic.get br.state with
    | 0 -> Proceed
    | _ ->
        let cooled () =
          now_ns () - Atomic.get br.opened_at >= rt.cfg.breaker_cooldown_ns
        in
        let try_probe () =
          if Atomic.compare_and_set br.state st_open st_half then Probe
          else Deny
        in
        if Atomic.get br.state = st_half then Deny
        else if cooled () then try_probe ()
        else begin
          match rt.cfg.policy with
          | Block_until span ->
              let limit = min deadline (t0 + span) in
              let rec wait () =
                if Atomic.get br.state = st_closed then Proceed
                else if cooled () then try_probe ()
                else if now_ns () >= limit then Deny
                else begin
                  Domain.cpu_relax ();
                  wait ()
                end
              in
              wait ()
          | Fail_fast | Shed -> Deny
        end

let phase_label = function Enq -> "res.enq" | Deq -> "res.deq"

(* The engine: breaker gate, then attempt/backoff/retry under the
   deadline, with terminal outcomes counted and marked at probe sites.
   [attempt] returns [None] on a refusal (empty dequeue / full bounded
   enqueue) and must leave the queue unchanged in that case — exactly
   the [try_*] contract. *)
let run : type r. rt -> breaker -> kind -> (unit -> r option) -> (r, error) result
    =
 fun rt br kind attempt ->
  Locks.Probe.phase_begin (phase_label kind);
  let probing = ref false in
  let body () =
    let t0 = now_ns () in
    let deadline =
      if rt.cfg.deadline_ns <= 0 then max_int else t0 + rt.cfg.deadline_ns
    in
    let refuse err =
      if !probing then reopen rt br;
      (match err with
      | Timed_out ->
          Obs.Counter.incr rt.c_timeouts;
          Locks.Probe.site "res.timeout"
      | Shedded ->
          Obs.Counter.incr rt.c_sheds;
          Locks.Probe.site "res.shed"
      | Rejected ->
          Obs.Counter.incr rt.c_rejections;
          Locks.Probe.site "res.reject");
      Error err
    in
    match admit rt br ~t0 ~deadline with
    | Deny -> refuse Rejected
    | (Proceed | Probe) as adm ->
        probing := adm = Probe;
        let b =
          Locks.Backoff.create ~initial:rt.cfg.backoff_initial
            ~limit:rt.cfg.backoff_limit ()
        in
        let rec loop retries =
          match attempt () with
          | Some r ->
              note_success rt br;
              Obs.Histogram.record rt.metrics.Obs.Metrics.retries_per_op
                retries;
              let dt = now_ns () - t0 in
              (match kind with
              | Enq ->
                  Obs.Counter.incr rt.metrics.Obs.Metrics.enqueues;
                  Obs.Histogram.record rt.metrics.Obs.Metrics.enq_latency dt
              | Deq ->
                  Obs.Counter.incr rt.metrics.Obs.Metrics.dequeues;
                  Obs.Histogram.record rt.metrics.Obs.Metrics.deq_latency dt);
              Ok r
          | None -> (
              note_refusal rt br kind;
              match rt.cfg.policy with
              | Fail_fast -> refuse Rejected
              | _ when now_ns () >= deadline -> refuse Timed_out
              | Shed ->
                  if rt.cfg.max_retries >= 0 && retries >= rt.cfg.max_retries
                  then refuse Shedded
                  else begin
                    Locks.Backoff.once b;
                    loop (retries + 1)
                  end
              | Block_until span ->
                  if now_ns () >= min deadline (t0 + span) then
                    refuse Timed_out
                  else begin
                    Locks.Backoff.once b;
                    loop (retries + 1)
                  end)
        in
        loop 0
  in
  match body () with
  | r ->
      Locks.Probe.phase_end (phase_label kind);
      r
  | exception e ->
      (* the op died mid-protocol (e.g. an injected crash): a half-open
         probe must not wedge the circuit, and the phase bracket must
         still close *)
      if !probing then reopen rt br;
      Locks.Probe.phase_end (phase_label kind);
      raise e

(* The bare engine, for composite structures (the queue fabric) that
   hold many breakers — one per shard — over attempt closures of their
   own instead of a wrapped queue module. *)
module Engine = struct
  type t = rt

  let create ?(config = default) ~name () = fresh_rt config name
  let config t = t.cfg
  let enqueue t attempt = run t t.enq_br Enq attempt
  let dequeue t attempt = run t t.deq_br Deq attempt
  let metrics t = t.metrics
  let outcomes t = outcomes_of t

  let breaker_state t = function
    | `Enq -> breaker_state_of t.enq_br
    | `Deq -> breaker_state_of t.deq_br

  let to_json t = rt_json t
end

module type BOUNDED = sig
  type 'a raw
  type 'a t

  val name : string
  val create : ?config:config -> ?capacity:int -> unit -> 'a t
  val wrap : ?config:config -> 'a raw -> 'a t
  val queue : 'a t -> 'a raw
  val capacity : 'a t -> int
  val try_enqueue : 'a t -> 'a -> (unit, error) result
  val try_dequeue : 'a t -> ('a, error) result
  val metrics : 'a t -> Obs.Metrics.t
  val outcomes : 'a t -> outcomes
  val breaker_state : 'a t -> [ `Enq | `Deq ] -> breaker_state
  val to_json : 'a t -> Obs.Json.t
end

module Make_bounded (Q : Core.Queue_intf.BOUNDED) :
  BOUNDED with type 'a raw = 'a Q.t = struct
  type 'a raw = 'a Q.t
  type 'a t = { q : 'a Q.t; rt : rt }

  let name = Q.name ^ "+resilient"
  let wrap ?(config = default) q = { q; rt = fresh_rt config name }
  let create ?config ?capacity () = wrap ?config (Q.create ?capacity ())
  let queue t = t.q
  let capacity t = Q.capacity t.q

  let try_enqueue t v =
    run t.rt t.rt.enq_br Enq (fun () ->
        if Q.try_enqueue t.q v then Some () else None)

  let try_dequeue t = run t.rt t.rt.deq_br Deq (fun () -> Q.try_dequeue t.q)
  let metrics t = t.rt.metrics
  let outcomes t = outcomes_of t.rt

  let breaker_state t = function
    | `Enq -> breaker_state_of t.rt.enq_br
    | `Deq -> breaker_state_of t.rt.deq_br

  let to_json t = rt_json t.rt
end
