(** Per-site contention profiles and per-phase operation spans.

    The native queues already mark their timing-sensitive points with
    {!Locks.Probe.site} (stable labels like ["msq.enq.link"]) and
    bracket operation phases with {!Locks.Probe.phase_begin}/
    [phase_end].  Enabling the profiler subscribes it at the last
    position of Probe's mark stream, so every mark is accounted to its
    {!Locks.Probe.label}: each label gets one {!Counter} of marks and
    one log2-bucketed latency {!Histogram} whose exact sum is the
    label's cycles, per kind (site or phase), created by the label's
    first mark.  Both write per-domain rows (single writer each, no
    coherence traffic between domains).

    A {e site} is a point event; the cycles attributed to it are the
    span since the calling domain's previous probe mark — the cost of
    the code region that {e ends} at the site.  A {e phase} is a
    properly nested begin/end span; its recorded latency is the span
    itself.  [Obs.Instrumented] brackets each whole operation in a
    ["<queue>.enq"]/["<queue>.deq"] phase, so per-operation spans and
    the finer in-operation phases (backoff, critical sections) land in
    the same table.

    Aggregation is snapshot-time only and accurate once writers are
    quiescent — the same contract as {!Locks.Probe} and {!Histogram}.
    With the profiler disabled the marks in the queues cost a single
    [bool ref] load each.

    Memory: a domain's clock anchor and open-span stack (34 words) are
    an {!Rows} row, allocated by the domain's first mark; before any
    mark the profiler is its 64-slot row table and two empty label
    tables, and {!reset} allocates no more than that. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Subscribe at [Locks.Probe]'s [Profile] position and start
    accounting.  Idempotent.  Runs after the flight recorder and the
    chaos layer, which may be subscribed at the same time; a mark whose
    chaos handler raises is not counted. *)

val disable : unit -> unit
(** Unsubscribe.  Accumulated state survives until {!reset}. *)

val reset : unit -> unit
(** Drop all accumulated state.  Callers must ensure no concurrent
    emission (quiesce worker domains first). *)

(** {1 Snapshots} *)

type entry = {
  label : string;
  events : int;  (** marks seen with this label *)
  cycles : int;  (** exact sum of attributed nanoseconds *)
  hist : Histogram.t;  (** latency distribution of the attributed spans *)
}

type snapshot = {
  sites : entry list;  (** hottest (most cycles) first *)
  phases : entry list;  (** hottest first *)
}

val snapshot : unit -> snapshot
(** Aggregate every domain's slot.  Cheap enough to call between
    benchmark phases; not meant for hot paths. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff after before]: per-label subtraction of [events] and
    [cycles]; labels whose event delta is zero are dropped.  Histograms
    (and hence percentiles) are taken from [after] — bucket counts are
    not subtracted. *)

val top : ?n:int -> entry list -> entry list
(** First [n] (default 10) of an already-sorted entry list. *)

val p50 : entry -> int option
val p99 : entry -> int option

val p999 : entry -> int option
(** Bucketed percentiles of the entry's span latencies, in ns. *)

val to_json : snapshot -> Json.t
(** [{"sites": [{"label", "events", "cycles", "p50", "p99", "p999",
    "latency": <histogram>}...], "phases": [...]}] *)

val pp : Format.formatter -> snapshot -> unit
