(** Power-of-two (log2-bucketed) histograms for latencies and counts.

    Bucket [i] collects samples whose value has [i] significant bits:
    bucket 0 holds [v <= 0], bucket 1 holds [v = 1], and bucket [i >= 1]
    holds [2^(i-1) <= v < 2^i] — constant-time recording with ~2x
    resolution, the standard shape for latency distributions whose tails
    span orders of magnitude.

    Recording goes to a per-domain row (disjoint memory per domain, no
    atomics on the hot path); reads aggregate the rows and are accurate
    once writers are quiescent.

    Memory: a domain slot's 64-word row is allocated by the first
    {!record} from a domain mapping to it ({!Rows}), so a fresh
    histogram is its 64-slot table alone (about 0.5 KB) and each
    recording domain adds one row.  After a domain's first record,
    recording allocates nothing.  Domains colliding modulo the slot
    count share a row and may lose updates, as in {!Counter}. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Constant time; safe from any domain. *)

val bucket_of : int -> int
(** The bucket index a value lands in (exposed for tests). *)

val lower_bound : int -> int
(** Smallest value of a bucket: [0] for bucket 0, else [2^(i-1)]. *)

val upper_bound : int -> int
(** Largest value of a bucket: [0] for bucket 0, else [2^i - 1]. *)

val count : t -> int
(** Total samples recorded. *)

val sum : t -> int
(** Exact sum of all recorded values (tracked alongside the buckets, so
    it is not subject to bucket quantization). *)

val mean : t -> float option
(** [sum / count]; [None] when empty. *)

val bucket_count : t -> int -> int

val buckets : t -> (int * int) list
(** Non-empty buckets, ascending: (lower bound, sample count). *)

val merge : t -> t -> t
(** A fresh histogram holding both inputs' samples. *)

val quantile : t -> float -> int option
(** [quantile t q] with [q] in [0, 1]: upper bound of the bucket
    containing the sample at rank [ceil (q * count)]; [None] when empty.
    Bucket granularity makes this exact to within a factor of two —
    enough to compare algorithms. *)

val percentile : t -> float -> int option
(** [percentile t p = quantile t (p /. 100.)] with [p] in [0, 100]. *)

val p999 : t -> int option
(** The 99.9th percentile — the tail the soak/SLO reports gate on. *)

val n_buckets : int
(** Number of log2 buckets (fixed; exposed for snapshot consumers). *)

val counts : t -> int array
(** Aggregated per-bucket counts, [n_buckets] long — a snapshot two of
    which can be subtracted to quantile a {e window} of samples (the
    [Sampler]'s per-window p50/p99/p999). *)

val quantile_of_counts : int array -> float -> int option
(** [quantile_of_counts cs q]: the {!quantile} walk over a plain bucket
    array (as produced by {!counts}, or the difference of two) — [None]
    when the counts sum to zero. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** [{"count": n, "sum": s, "mean": m,
     "buckets": [{"ge": lower_bound, "count": c}, ...]}];
    ["mean"] is [null] when empty. *)
