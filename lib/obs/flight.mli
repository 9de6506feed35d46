(** The flight recorder: an always-on black box for the native queues.

    While enabled, every {!Locks.Probe.site} and phase mark is logged as
    a fixed-size binary record — the mark's {!Locks.Probe.label} id,
    monotonic-ns timestamp, event tag, domain id — into a per-domain
    overwrite-oldest ring.  When a run dies (soak watchdog expiry, audit
    failure, liveness timeout, breaker trip) the rings hold the last
    moments of every domain, dumped as Chrome-trace (catapult) JSON
    loadable in Perfetto or chrome://tracing, with each label's name
    read back from {!Locks.Probe.name}.

    Cost contract: with the recorder disabled the queues pay only
    [Locks.Probe]'s single-load-and-branch path (asserted in
    [test_locks.ml]); enabled, each event costs one clock read and four
    plain array stores into a ring row written by one domain — the
    recorder keeps no label state of its own.  Domains colliding modulo
    {!n_rings} share a row; records may shear, the dump still loads.

    Memory: a ring row is allocated by the first event a domain records
    ({!Rows}) — [capacity () * 4] words, 32 KB at the default capacity —
    so the recorder costs its 64-slot table plus one ring per recording
    domain, and {!enable} allocates nothing.  After a domain's first
    event, recording allocates nothing. *)

val n_rings : int
(** Ring rows (64); Chrome-trace [tid] = domain id modulo this. *)

val enable : unit -> unit
(** Subscribe at [Locks.Probe]'s [Flight] position, ahead of chaos and
    the profiler; idempotent.  Rings are allocated by each domain's
    first event, not here. *)

val disable : unit -> unit
(** Unsubscribe; retained records survive for a later dump. *)

val enabled : unit -> bool

val configure : capacity:int -> unit
(** Set records retained per ring (default 1024, rounded up to a power
    of two) and drop existing records and rings.  Raises
    [Invalid_argument] while the recorder is enabled or on a
    non-positive capacity. *)

val capacity : unit -> int

val recorded : unit -> int
(** Total events ever recorded (including overwritten ones). *)

val reset : unit -> unit
(** Drop all records and free the rings; the capacity stays.  Callers
    must ensure no concurrent emission. *)

(** {1 Dumping} *)

val dump_json : reason:string -> unit -> Json.t
(** Render the rings as a Chrome-trace document: site marks as ["i"]
    instant events, phase spans as ["B"]/["E"] pairs, one [tid] per
    ring row, timestamps in µs from the earliest retained record.
    Spans sheared by overwrite are re-balanced so the file always
    loads.  [reason] lands in [otherData.reason]. *)

val dump_to_file : reason:string -> string -> unit
(** {!dump_json} pretty-printed to a file ({!Json.write_file}). *)

(** {1 The anomaly latch}

    A harness arms the latch with a destination path before a risky
    run; failure detectors then call {!note_anomaly} and the black box
    writes itself out at the moment of failure, not after teardown has
    disturbed it.  Major anomalies (the default: watchdog expiry, audit
    failure, liveness timeout) beat minor ones (an expected breaker
    trip): the first major dump wins the latch outright, a minor dump
    happens only if nothing has dumped yet and is overwritten by a
    later major one. *)

val arm_dump : path:string -> unit
(** Arm (or re-arm, clearing any previous dump claim). *)

val disarm_dump : unit -> unit

val note_anomaly : ?major:bool -> reason:string -> unit -> unit
(** Report a failure; dumps to the armed path per the priority rules
    above ([major] defaults to [true]).  No-op when unarmed. *)

val last_dump : unit -> (string * string) option
(** [(path, reason)] of the dump currently holding the latch. *)
