(** Resilience wrappers: bounded-time queue operations.

    The paper's progress claims are about {e steps}; a serving system
    needs bounds in {e time}.  [Resilient.Make_bounded] wraps any queue
    from the registry — an unbounded one through
    {!Core.Queue_intf.Unbounded} — with the standard availability kit:

    - {b per-op deadlines} — every retrying operation carries a
      monotonic-clock budget ([deadline_ns]) and returns
      [Error Timed_out] instead of spinning past it.  The budget runs
      from the operation's first refusal, or its arrival at a breaker
      that is not closed — as a timed [poll]/[offer] in
      [java.util.concurrent] starts its timeout only when it must
      wait — so an attempt that succeeds at once never starts it;
    - {b bounded retries with randomized exponential backoff} — each
      refusal (empty dequeue / full bounded enqueue) backs off through
      {!Locks.Backoff}, whose jitter comes from per-domain SplitMix64
      streams, up to [max_retries] attempts;
    - {b shed policies} — what to do when refusal persists:
      [Fail_fast] returns on the first refusal, [Shed] drops the work
      after the retry budget (with [max_retries < 0] it keeps retrying
      up to the deadline);
    - {b a circuit breaker} — [breaker_threshold] consecutive refusals
      trip the op direction's breaker open; while open (and not yet
      cooled for [breaker_cooldown_ns]) operations are rejected without
      touching the queue; after the cooldown one probe operation is
      admitted (half-open) and its outcome closes or re-opens the
      circuit.  Enqueue and dequeue directions trip independently — a
      drained queue must not reject the enqueues that would refill it.

    Every outcome is attributed, always: the timeout/shed/rejection
    and breaker totals are exposed as {!outcomes}, whole operations
    are bracketed in ["res.enq"]/["res.deq"] phases and terminal
    outcomes marked at ["res.timeout"|"res.shed"|"res.breaker.*"]
    probe sites (visible to {!Obs.Profile} and perturbed by
    {!Obs.Chaos} like any other site), and breaker trips are noted to
    the flight recorder.  The per-operation statistics — op counts,
    full/empty refusals, latencies, retries — feed an {!Obs.Metrics.t}
    only while {!Obs.Control} is enabled, as {!Obs.Instrumented}'s do;
    an operation records them only if it started with the switch on.
    With the switch off, a first attempt that succeeds through a
    closed breaker therefore costs one switch load, one breaker-state
    load, the attempt, one read of the breaker's refusal run and the
    [Ok]: no clock read, no other allocation, no shared store. *)

type policy =
  | Fail_fast  (** return [Error Rejected] on the first refusal *)
  | Shed
      (** retry within [max_retries]/deadline, then drop the work with
          [Error Shedded] *)

type config = {
  deadline_ns : int;
      (** per-operation monotonic budget, running from the first
          refusal (or the arrival at a breaker that is not closed);
          [<= 0] means no deadline, and so does a budget that would
          end past [max_int] ns *)
  max_retries : int;
      (** attempts after the first before a [Shed] verdict; [< 0] means
          unbounded (the deadline still applies) *)
  backoff_initial : int;  (** {!Locks.Backoff.create}'s [initial] *)
  backoff_limit : int;  (** {!Locks.Backoff.create}'s [limit] *)
  breaker_threshold : int;
      (** consecutive refusals (per direction) that trip the breaker;
          [<= 0] disables the breaker *)
  breaker_cooldown_ns : int;
      (** how long a tripped breaker stays open before admitting a
          half-open probe *)
  policy : policy;
}

val default : config
(** 1 ms deadline, 64 retries, backoff 16..4096, breaker at 16
    consecutive refusals with a 100 µs cooldown, [Shed]. *)

type error =
  | Timed_out  (** the deadline expired *)
  | Shedded  (** [Shed] policy dropped the work after the retry budget *)
  | Rejected  (** [Fail_fast] refusal, or the breaker was open *)

val error_to_string : error -> string

type breaker_state = Closed | Open | Half_open

type outcomes = {
  timeouts : int;
  sheds : int;
  rejections : int;
  breaker_trips : int;  (** open transitions, including re-trips *)
  breaker_recoveries : int;  (** half-open probes that closed the circuit *)
}

val outcomes_json : outcomes -> Obs.Json.t

(** The bare deadline/retry/breaker engine behind [Make_bounded],
    for composite structures that hold several independently-breaking
    policy stacks over attempt closures — notably one per shard in
    [Fabric.Queue_fabric].  [enqueue]/[dequeue] run one operation of
    that direction: the attempt returns [None] on a refusal (full/empty)
    and must leave the structure unchanged in that case, exactly the
    [try_*] contract.  Outcomes are always counted; op counts,
    latencies and retries feed the engine's own {!Obs.Metrics.t} under
    [name] only while {!Obs.Control} is enabled. *)
module Engine : sig
  type t

  val create :
    ?config:config -> ?deq_hint:(unit -> bool) -> name:string -> unit -> t
  (** [deq_hint], when given, is a racy "may be non-empty" test of the
      structure the dequeue attempts read, which {!dequeue}'s retries
      pass to {!Locks.Backoff.once} as [until]: a backoff spin stops as
      soon as the hint holds, and the next attempt runs at once.  It
      must be cheap, read-only and allocation-free.  It should read
      [true] whenever an attempt could succeed (a miss only leaves the
      spin blind) and seldom otherwise.  The hint changes no limit:
      [max_retries], the deadline, breaker thresholds and the enqueue
      direction are those of an engine without it.  It does change which limit an operation meets
      first: a wake whose attempt still refuses spends a retry with
      less time spun, so under a deadline a hint that reads [true]
      while attempts refuse spends [max_retries] sooner, and a
      [Shedded] can come where the blind spin would have reached
      [Timed_out] (and the breaker's consecutive refusals accrue
      sooner).  A hint stuck at [true] turns the backoff into a busy
      retry.  Without a deadline, verdicts and counts are the blind
      spin's.  Without a hint (the default, and always for
      {!Make_bounded}) the spin is blind. *)

  val enqueue : t -> (unit -> 'r option) -> ('r, error) result
  val dequeue : t -> (unit -> 'r option) -> ('r, error) result
  val metrics : t -> Obs.Metrics.t
  val outcomes : t -> outcomes
  val breaker_state : t -> [ `Enq | `Deq ] -> breaker_state
  val to_json : t -> Obs.Json.t
end

(** What [Make_bounded] yields: both directions can refuse, so both
    carry deadlines, retry budgets, shedding and a breaker.  An
    unbounded queue wraps as [Make_bounded (Core.Queue_intf.Unbounded
    (Q))]: its enqueues take the same engine path and are never
    refused. *)
module type BOUNDED = sig
  type 'a raw
  type 'a t

  val name : string
  val create : ?config:config -> ?capacity:int -> unit -> 'a t

  val wrap : ?config:config -> 'a raw -> 'a t
  (** Wrap an existing queue (shared state, fresh stats/breaker). *)

  val queue : 'a t -> 'a raw
  (** The underlying queue — for draining/audits outside the breaker. *)

  val capacity : 'a t -> int
  val try_enqueue : 'a t -> 'a -> (unit, error) result
  val try_dequeue : 'a t -> ('a, error) result
  val metrics : 'a t -> Obs.Metrics.t
  val outcomes : 'a t -> outcomes
  val breaker_state : 'a t -> [ `Enq | `Deq ] -> breaker_state
  val to_json : 'a t -> Obs.Json.t
end

module Make_bounded (Q : Core.Queue_intf.BOUNDED) : BOUNDED with type 'a raw = 'a Q.t
