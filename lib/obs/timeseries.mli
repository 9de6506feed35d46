(** A fixed-capacity, overwrite-oldest ring of (timestamp, value)
    samples — the storage behind every {!Sampler} series.

    One writer (the sampling domain) pushes; readers snapshot once the
    writer is quiescent (the sampler stops its domain before export) —
    the same relaxed single-writer contract as {!Histogram}.  Capacity
    is rounded up to a power of two. *)

type t

val create :
  ?labels:(string * string) list -> ?unit_:string -> capacity:int -> string -> t
(** [create ~capacity name] — [labels] are exported as-is in JSON and
    OpenMetrics; [unit_] is a free-form unit hint (["ops/s"], ["ns"]).
    Raises [Invalid_argument] on non-positive capacity. *)

val name : t -> string
val labels : t -> (string * string) list

val capacity : t -> int
(** Power-of-two rounded-up capacity. *)

val length : t -> int
(** Samples currently retained (≤ capacity). *)

val dropped : t -> int
(** Samples overwritten so far — how much history the ring has shed. *)

val push : t -> t_ns:int -> float -> unit
(** Append a sample, overwriting the oldest once full. *)

val to_list : t -> (int * float) list
(** Retained samples, oldest first, as [(t_ns, value)]. *)

val last : t -> (int * float) option
val reset : t -> unit

val to_json : ?t0:int -> t -> Json.t
(** [{name; labels; unit; dropped; points}] where points carry [t_ms]
    rebased against [t0] (default 0) — the sampler passes its start
    instant so timelines read in milliseconds from the run start. *)
