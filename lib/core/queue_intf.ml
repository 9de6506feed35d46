(** Signature shared by every native concurrent queue in this
    repository (the paper's two algorithms in {!Core} and the baselines
    in {!Baselines}).

    All operations are safe to call from any number of domains
    concurrently.  The non-blocking implementations guarantee
    system-wide progress (some operation completes in a bounded number
    of steps whenever processes are running); the lock-based ones
    guarantee only livelock-freedom. *)

module type S = sig
  type 'a t

  val name : string
  (** Identifier used by the benchmark harness and reports. *)

  val create : unit -> 'a t
  (** A fresh, empty queue. *)

  val enqueue : 'a t -> 'a -> unit
  (** Add at the tail.  Linearizes at the moment the new node is linked
      (or the tail lock's critical section, for blocking queues). *)

  val dequeue : 'a t -> 'a option
  (** Remove from the head; [None] iff the queue was (linearizably)
      observed empty. *)

  val peek : 'a t -> 'a option
  (** The head item without removing it; [None] when empty. *)

  val is_empty : 'a t -> bool
  (** [is_empty q] is [peek q = None] but cheaper where possible. *)

  val length : 'a t -> int
  (** Number of items.  O(n) for the linked-list queues (a walk from the
      dummy), and only a {e racy snapshot} under concurrent updates:
      while other domains enqueue and dequeue, the walk can observe a
      mix of states, so the only guarantees are [0 <= length q] and
      [length q <=] the total number of enqueues ever started.  The
      result is NOT the size at any single linearization point — two
      back-to-back calls may disagree in either direction.  Intended for
      tests, monitoring and reporting, never for synchronization
      (e.g. do not use [length q = 0] to decide that a concurrent
      consumer may stop; use {!dequeue} returning [None]).  The
      concurrent bounds are exercised by the [length bounds under
      concurrency] stress test in [test/test_qcheck_queues.ml]. *)
end

(** Optional extension: queues that can claim a whole index range with
    one atomic operation amortize per-element synchronization across a
    batch.  [enqueue_batch]/[dequeue_batch] are NOT atomic as a group —
    elements from concurrent batches may interleave — but each batch
    claims contiguous slots with a single fetch-and-add, so on the
    (common) uncontended path the elements are adjacent in FIFO order
    and the per-element cost drops to one array store or load. *)
module type BATCH = sig
  include S

  val enqueue_batch : 'a t -> 'a list -> unit
  (** Add every element, first element first.  One index-range claim
      covers the whole list when it fits in the current segment;
      elements that lose a slot race (or overflow the segment) are
      re-claimed in list order, so the batch's elements always dequeue
      in list order relative to each other. *)

  val dequeue_batch : 'a t -> max:int -> 'a list
  (** Remove and return at most [max] items, in FIFO order.  Claims up
      to [max] slots with one fetch-and-add; returns fewer than [max]
      (possibly [[]]) when the queue holds fewer items, when the claim
      reaches the end of the current segment (a claim never spans a
      segment boundary — call again for the rest), or when claimed
      slots were still being filled by in-flight enqueuers.  [[]] does
      not linearizably prove emptiness — use {!S.dequeue} for that. *)
end

(** Bounded queues trade unbounded growth for a fixed memory footprint:
    the backing store is allocated once at {!BOUNDED.create} and never
    grows, so a full queue must be able to {e refuse} an enqueue instead
    of blocking or allocating.  The signature therefore replaces
    [enqueue]/[dequeue] with [try_enqueue]/[try_dequeue] whose
    full/empty verdicts are linearization points (checkable against a
    bounded sequential specification — see [Lincheck.Checker.check]'s
    [?capacity]).

    There is deliberately no [peek]: ring-based implementations (SCQ)
    have no stable head slot to read without claiming it, and a peek
    that may spuriously fail is worse than no peek. *)
module type BOUNDED = sig
  type 'a t

  val name : string
  (** Identifier used by the benchmark harness and reports. *)

  val create : ?capacity:int -> unit -> 'a t
  (** A fresh, empty queue holding at most [capacity] items (default
      1024).  Implementations may round the capacity up (e.g. to a
      power of two); {!capacity} reports the rounded value actually
      enforced. *)

  val capacity : 'a t -> int
  (** The maximum number of items the queue can hold — fixed for the
      queue's lifetime. *)

  val try_enqueue : 'a t -> 'a -> bool
  (** Add at the tail; [false] when the queue was observed full.  A
      [false] result leaves the queue unchanged.

      The full verdict has {e pending-reservation} strength: it proves
      [capacity] slots were held at some point during the call, where
      an enqueue holds its slot from invocation and a dequeue releases
      its slot only at its response.  In particular, a [false] can race
      with in-flight operations on a queue that is logically below
      capacity — but never occurs without such concurrent cover.  (In
      a reserve-then-publish ring an in-flight enqueue is visible to
      the full verdict before it is visible to dequeuers, so the
      strict verdict is unattainable; see [Lincheck.Checker.check]'s
      [?capacity], which checks exactly this contract.)  The empty
      verdict of {!try_dequeue} is strict, as in {!S.dequeue}. *)

  val try_dequeue : 'a t -> 'a option
  (** Remove from the head; [None] iff the queue was (linearizably)
      observed empty. *)

  val is_empty : 'a t -> bool
  (** [is_empty q] is [length q = 0]; same racy-snapshot caveats as
      {!length}. *)

  val length : 'a t -> int
  (** Number of items.  Exact at quiescence; under concurrent updates a
      racy snapshot with the bounds [0 <= length q <= capacity q] —
      stronger than {!S.length}'s contract because a bounded queue's
      backing store physically cannot hold more than [capacity]
      items. *)
end

(** [Unbounded (Q)] views an unbounded queue as a {!BOUNDED} one: its
    {!BOUNDED.capacity} is [max_int], its [try_enqueue] always enqueues
    and returns [true], and its [create] ignores [?capacity].  With it
    the bounded queue is the general object (as in Aksenov et al.,
    arXiv 2104.15003): one registry entry type and one wrapper body per
    concern, written over {!BOUNDED}, serve both kinds of queue.  A
    consumer that needs a finite bound tests
    [capacity q < max_int]. *)
module Unbounded (Q : S) : BOUNDED with type 'a t = 'a Q.t = struct
  type 'a t = 'a Q.t

  let name = Q.name
  let create ?capacity:_ () = Q.create ()
  let capacity _ = max_int

  let try_enqueue q v =
    Q.enqueue q v;
    true

  let try_dequeue = Q.dequeue
  let is_empty = Q.is_empty
  let length = Q.length
end
