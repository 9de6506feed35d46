(** Cache-line-padded per-domain counters.

    Each domain increments its own padded slot with a plain store, so
    bumping from many domains at once causes no cache-line ping-pong —
    the property a single shared [Atomic.t] cell lacks.  Reads sum the
    slots and may lag in-flight increments by a store buffer's worth;
    totals are exact once the writing domains are quiescent.

    Memory: a slot's 128-byte row is allocated by the first increment
    from a domain mapping to it ({!Rows}), so a fresh counter is its
    slot table alone (about 1 KB) and each writing domain adds one row.
    After a domain's first increment, incrementing allocates nothing.

    Domains whose ids collide modulo the slot count share a row, and two
    simultaneous writers to one row can lose updates — acceptable for
    metrics (the default slot count, 128, exceeds any realistic domain
    count on this repo's targets). *)

type t

val create : unit -> t
val incr : t -> unit
val add : t -> int -> unit

val value : t -> int
(** Sum over every domain's slot. *)

val reset : t -> unit
