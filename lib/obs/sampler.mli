(** The time-series sampler: periodic snapshots of live sources into
    {!Timeseries} rings, exported as a dashboard-ready timeline.

    A global registry maps named sources — gauges (read a float),
    counters (windowed rate from a monotone int), histograms (windowed
    p50/p99/p999 and per-window count via {!Histogram.counts} deltas) —
    to fixed-capacity series.  {!start} spawns one background domain
    that {!tick}s every [period_ns]; tests call {!tick} directly for
    determinism.  All sampled reads are the racy-read snapshots the
    metrics primitives already permit: the sampler never touches the
    queues' hot paths.

    Exports: {!timeline_json} is the [timeline] section of
    [BENCH_queues.json] (schema 8); {!to_openmetrics} is OpenMetrics
    text exposition (["# EOF"]-terminated) of every series' last value.

    Registration is domain-safe; {!start}/{!stop}/{!clear} belong to
    the harness's controlling domain. *)

val register_gauge :
  ?labels:(string * string) list ->
  ?unit_:string ->
  string ->
  (unit -> float) ->
  unit
(** [register_gauge name read] — [read] runs on the sampling domain at
    every tick; it must be domain-safe and may not block.  A [read]
    that raises stops producing points, nothing more. *)

val register_counter :
  ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** Windowed rate of a monotone counter, in events/second (unit
    ["per_s"]); the first window opens at registration. *)

val register_histogram :
  ?labels:(string * string) list -> ?unit_:string -> string -> Histogram.t -> unit
(** Windowed quantiles: each tick diffs {!Histogram.counts} against the
    previous tick and derives p50/p99/p999 of just that window (series
    [name] with [quantile] labels) plus the per-window event count
    (series [name_count]).  Empty windows produce only a count point.
    [unit_] defaults to ["ns"]. *)

val register_metrics : ?prefix:string -> Metrics.t -> unit
(** Register a queue's whole {!Metrics.t}: the operation and contention
    counters as rates, both latency histograms as windowed quantiles,
    all under [prefix] (default: the metrics' name) — removable in one
    {!remove} call.  The series move only while {!Control} is enabled:
    that is when {!Instrumented} wrappers and the resilience engine
    feed a [Metrics.t]. *)

val remove : prefix:string -> unit
(** Stop sampling every source whose registered name starts with
    [prefix] — how a harness cleans up the sources it auto-registered.
    The series already produced stay in the exports; only {!clear}
    discards history. *)

val clear : unit -> unit
(** Drop all sources and reset the epoch.  Stop the sampler first. *)

(** {1 Driving} *)

val tick : unit -> unit
(** Sample every source once, now — the deterministic path for tests
    and for harnesses that sample at their own cadence. *)

val start : ?period_ns:int -> unit -> unit
(** Spawn the sampling domain (default period 5 ms); idempotent while
    running. *)

val stop : unit -> unit
(** Stop and join the sampling domain; idempotent.  Series retain their
    points for export. *)

val active : unit -> bool
(** Whether the sampling domain is running — harnesses use this to
    decide whether to auto-register their sources. *)

(** {1 Export} *)

val timeline_json : unit -> Json.t
(** [{t0_ns; period_ns; series}] — every series via
    {!Timeseries.to_json}, timestamps rebased to the epoch. *)

val to_openmetrics : unit -> string
(** OpenMetrics text: one gauge family per sanitized series name, the
    last value of each series, terminated by ["# EOF"]. *)
