(** Bounded exponential backoff for native (multi-domain) spinning, and
    the SplitMix64 generator every library above the simulator draws
    from.

    The paper's locks are test-and-test&set with bounded exponential
    backoff [12, 1]; its non-blocking algorithms back off after failed
    CASes "where appropriate" (§4).  Each waiting step spins on
    [Domain.cpu_relax] for a pseudo-random number of iterations drawn
    below a bound that doubles up to a limit.  State is cheap to create
    per operation; reuse within an operation, not across domains.

    Jitter comes from a bank of per-domain SplitMix64 streams (the same
    kind of bank [Obs.Chaos] keeps): each domain draws from its own
    stream seeded by (seed, domain id), so two domains that fail the
    same CAS never back off in lockstep, and the whole sequence is
    reproducible per seed via {!reseed}. *)

type t

val create : ?initial:int -> ?limit:int -> unit -> t
(** [initial] defaults to 16 iterations, [limit] to 4096. *)

val reseed : int64 -> unit
(** Re-derive every per-domain jitter stream from the given seed —
    global, like [Obs.Chaos.configure]; call it from harnesses that
    want the backoff jitter to be a pure function of the run seed. *)

val once : ?until:(unit -> bool) -> t -> unit
(** Spin once and double the bound (saturating).  With [until], the
    spin tests the predicate before each relax and stops as soon as it
    holds: the paper's test-and-test&set discipline, where a waiter
    spins on a read until the state looks changed and only then
    attempts.  The bound doubles either way, so the bound sequence is
    the blind spin's and only the time spun differs: a caller that
    limits its attempts by time makes more of them when the predicate
    holds early.  Pass a stored option ([?until:hint]), not
    [~until:f]: [~until:f] builds a [Some] at every call, and [once]
    itself allocates nothing. *)

val reset : t -> unit

(** {1 SplitMix64} *)

val mix64 : int64 -> int64
(** SplitMix64's output function. *)

val next : int64 ref -> int64
(** Advance a single stream by the golden gamma and return its output. *)

type streams
(** A bank of streams, one 64-byte row per domain (domain id modulo
    128), so a draw is allocation-free and rows share no cache line. *)

val streams : int64 -> streams
(** [streams seed]: row [r] starts at [mix64 (seed + r + 1)]. *)

val reseed_streams : streams -> int64 -> unit

val draw : streams -> int
(** The calling domain's next draw: the top 62 bits of its stream's
    output, a non-negative [int]. *)
