(* The retry engine behind [Make_bounded] and the fabric's shards.
   All breaker state is one Atomic cell per field; the
   counters/histograms are the padded per-domain Obs primitives, so
   feeding stats from every domain at once causes no coherence storms.
   The only clock is the monotonic one — deadlines survive wall-clock
   adjustments — and a first-try success reads it only while
   [Obs.Control] is on. *)

(* Probe labels, interned once. *)
let l_breaker_trip = Locks.Probe.label "res.breaker.trip"
let l_breaker_recover = Locks.Probe.label "res.breaker.recover"
let l_timeout = Locks.Probe.label "res.timeout"
let l_shed = Locks.Probe.label "res.shed"
let l_reject = Locks.Probe.label "res.reject"
let l_enq = Locks.Probe.label "res.enq"
let l_deq = Locks.Probe.label "res.deq"

type policy = Fail_fast | Shed

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
  deq_hint : (unit -> bool) option;
      (* ends a dequeue retry's backoff spin early; stored as an
         option so passing it on allocates nothing *)
  metrics : Obs.Metrics.t;
  c_timeouts : Obs.Counter.t;
  c_sheds : Obs.Counter.t;
  c_rejections : Obs.Counter.t;
  c_trips : Obs.Counter.t;
  c_recoveries : Obs.Counter.t;
  enq_br : breaker;
  deq_br : breaker;
}

let fresh_rt ?deq_hint cfg name =
  {
    cfg;
    deq_hint;
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

(* One refusal observed: count it (while metrics are on) and maybe trip
   the breaker.  Trips count consecutive refused *attempts* (across all
   domains); any successful attempt resets the run. *)
let note_refusal rt br kind ~timed =
  if timed then begin
    match kind with
    | Enq -> Obs.Counter.incr rt.metrics.Obs.Metrics.full_enqueues
    | Deq -> Obs.Counter.incr rt.metrics.Obs.Metrics.empty_dequeues
  end;
  if rt.cfg.breaker_threshold > 0 then begin
    let seen = 1 + Atomic.fetch_and_add br.consecutive 1 in
    if
      seen >= rt.cfg.breaker_threshold
      && Atomic.compare_and_set br.state st_closed st_open
    then begin
      Atomic.set br.opened_at (Obs.Clock.now_ns ());
      Obs.Counter.incr rt.c_trips;
      Locks.Probe.site l_breaker_trip;
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
    Atomic.set br.opened_at (Obs.Clock.now_ns ());
    Obs.Counter.incr rt.c_trips;
    Locks.Probe.site l_breaker_trip;
    Obs.Flight.note_anomaly ~major:false
      ~reason:("breaker-retrip:" ^ rt.metrics.Obs.Metrics.name)
      ()
  end

(* A success on a slow path closes a half-open circuit.  The fast path
   does not look: it saw the breaker closed, and a circuit that went
   half-open during its single attempt is left to the probe. *)
let recover rt br =
  if
    Atomic.get br.state = st_half
    && Atomic.compare_and_set br.state st_half st_closed
  then begin
    Obs.Counter.incr rt.c_recoveries;
    Locks.Probe.site l_breaker_recover
  end

(* Every success ends the run of refusals.  The shared cell is written
   only when there is a run to end, so a first-try success on a healthy
   queue reads it and stores nothing.  The metrics are fed only when
   the operation started with [Obs.Control] on ([timed]), and only then
   was [t0] read. *)
let succeed rt br kind ~timed ~t0 ~retries r =
  if Atomic.get br.consecutive <> 0 then Atomic.set br.consecutive 0;
  if timed then begin
    Obs.Histogram.record rt.metrics.Obs.Metrics.retries_per_op retries;
    let dt = Obs.Clock.now_ns () - t0 in
    match kind with
    | Enq ->
        Obs.Counter.incr rt.metrics.Obs.Metrics.enqueues;
        Obs.Histogram.record rt.metrics.Obs.Metrics.enq_latency dt
    | Deq ->
        Obs.Counter.incr rt.metrics.Obs.Metrics.dequeues;
        Obs.Histogram.record rt.metrics.Obs.Metrics.deq_latency dt
  end;
  Ok r

(* A terminal verdict: counted, marked at its probe site, and a failed
   half-open probe re-opens the circuit. *)
let refuse rt br ~probing err =
  if probing then reopen rt br;
  (match err with
  | Timed_out ->
      Obs.Counter.incr rt.c_timeouts;
      Locks.Probe.site l_timeout
  | Shedded ->
      Obs.Counter.incr rt.c_sheds;
      Locks.Probe.site l_shed
  | Rejected ->
      Obs.Counter.incr rt.c_rejections;
      Locks.Probe.site l_reject);
  Error err

(* [start + deadline_ns], saturating at [max_int]: a budget near
   [max_int] must mean "no limit", not wrap to a time already past. *)
let deadline_of rt start =
  let budget = rt.cfg.deadline_ns in
  if budget <= 0 || budget > max_int - start then max_int else start + budget

type admission = Proceed | Probe | Deny

(* Breaker gate, entered only when the breaker was not closed.  While
   open and cooling every caller is denied.  Once cooled, exactly one
   caller wins the CAS to half-open and proceeds as the probe; the rest
   stay denied until the probe's outcome resolves the state. *)
let admit rt br ~now =
  let state = Atomic.get br.state in
  if state = st_closed then Proceed
  else if
    state = st_open
    && now - Atomic.get br.opened_at >= rt.cfg.breaker_cooldown_ns
    && Atomic.compare_and_set br.state st_open st_half
  then Probe
  else Deny

(* Slow path one: the attempt at hand has just refused.  Back off and
   retry until a success or a verdict, under a deadline running from
   [start] — the operation's first refusal, or its arrival at a breaker
   that was not closed.  A dequeue's spin ends early once the engine's
   hint holds; the limits are the blind spin's, but a wake that refuses
   again spends a retry sooner (see [Engine.create]). *)
let retry rt br kind attempt ~timed ~t0 ~start ~probing =
  let deadline = deadline_of rt start in
  let until = match kind with Deq -> rt.deq_hint | Enq -> None in
  let b =
    Locks.Backoff.create ~initial:rt.cfg.backoff_initial
      ~limit:rt.cfg.backoff_limit ()
  in
  let rec refused retries =
    note_refusal rt br kind ~timed;
    match rt.cfg.policy with
    | Fail_fast -> refuse rt br ~probing Rejected
    | _ when Obs.Clock.now_ns () >= deadline -> refuse rt br ~probing Timed_out
    | Shed when rt.cfg.max_retries >= 0 && retries >= rt.cfg.max_retries ->
        refuse rt br ~probing Shedded
    | Shed -> (
        Locks.Backoff.once ?until b;
        match attempt () with
        | Some r ->
            recover rt br;
            succeed rt br kind ~timed ~t0 ~retries:(retries + 1) r
        | None -> refused (retries + 1))
  in
  refused 0

(* Slow path two: the breaker was not closed when the operation
   arrived.  The clock is read once, here.  Only a half-open probe
   guards against dying mid-attempt (an injected crash): it must not
   wedge the circuit half-open. *)
let gated rt br kind attempt ~timed ~t0 =
  let start = Obs.Clock.now_ns () in
  let first ~probing =
    match attempt () with
    | Some r ->
        recover rt br;
        succeed rt br kind ~timed ~t0 ~retries:0 r
    | None -> retry rt br kind attempt ~timed ~t0 ~start ~probing
  in
  match admit rt br ~now:start with
  | Deny -> refuse rt br ~probing:false Rejected
  | Proceed -> first ~probing:false
  | Probe -> (
      match first ~probing:true with
      | r -> r
      | exception e ->
          reopen rt br;
          raise e)

let phase_label = function Enq -> l_enq | Deq -> l_deq

(* The engine.  [attempt] returns [None] on a refusal (empty dequeue /
   full bounded enqueue) and must leave the queue unchanged in that
   case — exactly the [try_*] contract.  The common case, a first
   attempt that succeeds through a closed breaker, reads no clock while
   metrics are off, allocates nothing but the [Ok] and writes no shared
   cell; a refusal
   or a breaker that is not closed takes a slow path above.  Whole
   operations are bracketed in a phase that closes even when an
   attempt raises. *)
let run : type r. rt -> breaker -> kind -> (unit -> r option) -> (r, error) result
    =
 fun rt br kind attempt ->
  let label = phase_label kind in
  Locks.Probe.phase_begin label;
  let timed = Obs.Control.enabled () in
  let t0 = if timed then Obs.Clock.now_ns () else 0 in
  match
    if Atomic.get br.state <> st_closed then gated rt br kind attempt ~timed ~t0
    else
      match attempt () with
      | Some r -> succeed rt br kind ~timed ~t0 ~retries:0 r
      | None ->
          retry rt br kind attempt ~timed ~t0 ~start:(Obs.Clock.now_ns ()) ~probing:false
  with
  | r ->
      Locks.Probe.phase_end label;
      r
  | exception e ->
      Locks.Probe.phase_end label;
      raise e

(* The bare engine, for composite structures (the queue fabric) that
   hold many breakers — one per shard — over attempt closures of their
   own instead of a wrapped queue module. *)
module Engine = struct
  type t = rt

  let create ?(config = default) ?deq_hint ~name () =
    fresh_rt ?deq_hint config name

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
