(** The one clock every layer reads: the monotonic clock in
    nanoseconds from an arbitrary origin, unaffected by wall-clock
    adjustments.  Deadlines, latencies, flight-recorder stamps and
    sampler windows all take their time from here, so stamps from
    different layers compare directly. *)

val now_ns : unit -> int
