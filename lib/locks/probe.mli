(** Per-domain event probes for the native queues and locks.

    The hot paths of the native algorithms report two kinds of event
    here, both through calls that are a single [bool ref] test while
    nothing listens, so the instrumented paths cost nothing measurable
    by default:

    - contention counts — a failed CAS retried, a backoff spin, a
      help-along (the paper's E12/D9 lagging-tail fix-ups) — which
      {!Obs} attributes to individual operations by differencing a
      domain's row ([Obs.Instrumented]);
    - labeled marks — sites and phase spans — delivered as one event
      stream to the observers subscribed below.

    Counters live in cache-line-padded per-domain slots (plain stores,
    single writer per slot), so enabling them adds no coherence traffic
    between domains.  Domains whose id collide modulo the slot count
    share a row; totals remain monotonic, merely coarser. *)

val enabled : bool ref
(** Counting switch; exposed for tests. Prefer {!enable}/{!disable}. *)

val enable : unit -> unit
val disable : unit -> unit

(** {1 Counting (hot paths)} *)

val cas_retry : unit -> unit
(** A CAS failed and the operation is about to retry its loop. *)

val backoff : unit -> unit
(** One bounded-exponential-backoff spin ({!Backoff.once}). *)

val help : unit -> unit
(** A lagging-tail help-along: the paper's E12 or D9 line. *)

(** {1 Labels}

    A mark names its point with a label interned once, at file top
    level: [let l_link = Locks.Probe.label "msq.enq.link"].  Labels are
    stable identifiers like ["msq.enq.link"]; the one table here is the
    only place their strings live, so every observer keys on the same
    small int. *)

type label = private int
(** Interned labels are [0 .. count () - 1], in interning order. *)

val label : string -> label
(** The label of a string, interned on first use.  Idempotent and
    domain-safe (a mutex guards the rare first use): two domains
    interning the same string get the same label. *)

val name : label -> string
(** The interned string; a load, no lock. *)

val count : unit -> int
(** Labels interned so far. *)

val of_int : int -> label
(** The label whose id is [n].  Raises [Invalid_argument] unless
    [0 <= n < count ()]. *)

(** {1 Marks}

    The native queues mark timing-sensitive points — just before and
    after a linearizing CAS/FAA, inside lock-held critical sections —
    with {!site}, and bracket the phases of an operation —
    snapshot-read, CAS-attempt, backoff, help-along, in-critical-section
    — with {!phase_begin}/{!phase_end}.  Spans on one domain nest
    properly (every [phase_end l] closes the most recent open
    [phase_begin l]).  With no subscriber a mark is exactly one
    [bool ref] load and a branch — the disabled-path cost contract
    tested in [test_locks.ml]. *)

type event = Site | Begin | End

val site : label -> unit
(** Mark a point event ([Site]) on the current code path. *)

val phase_begin : label -> unit
(** Open a span ([Begin]). *)

val phase_end : label -> unit
(** Close the innermost span ([End]). *)

(** {1 Subscribers}

    One table of three positions, each holding at most one handler.
    Every mark runs the installed handlers in position order: the
    flight recorder ([Obs.Flight]) first, so a chaos handler that raises
    — the soak's crash countdowns — still leaves the event in the black
    box; then the chaos layer ([Obs.Chaos], or a harness standing in
    for it); then the profiler ([Obs.Profile]).  A handler that raises
    ends the dispatch of that mark: later positions do not see it. *)

type position = Flight | Chaos | Profile

val subscribe : position -> (event -> label -> unit) -> unit
(** Install the handler at [position], replacing any there, and switch
    marks on.  The handler runs on the hot path of every marked
    algorithm, concurrently from any domain: it must be domain-safe and
    must not call back into the queues. *)

val unsubscribe : position -> unit
(** Empty [position]; marks switch off when every position is empty. *)

(** {1 Reading counts} *)

type counts = { cas_retries : int; backoffs : int; helps : int }

val local : unit -> counts
(** The calling domain's counts — cheap; used to attribute a single
    operation's events by differencing around the call. *)

val totals : unit -> counts
(** Sum over every domain's slot. *)

val diff : counts -> counts -> counts
(** [diff after before] — pointwise subtraction. *)

val reset : unit -> unit
(** Zero every slot.  Callers must ensure no concurrent emission. *)
