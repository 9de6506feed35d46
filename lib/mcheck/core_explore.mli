(** Exhaustive small-scope model checking of the {e native} queue
    implementations — the payoff of [lib/core]'s functorization over
    {!Core.Atomic_intf.ATOMIC}.

    Each registered queue functor is instantiated with
    {!Traced_atomic}, so the exact shipping algorithm text (including
    the hazard-pointer protect/retire windows and the two-lock queue's
    lock words) runs under {!Explore.Make}[(]{!Native_machine}[)]:
    every interleaving of atomic operations within the preemption
    budget is executed, and each complete run is judged against the
    sequential FIFO specification by a two-layer oracle —

    - {e conservation}: after the processes finish, a driver drains the
      queue; the dequeued multiset (run + drain) must equal the
      enqueued multiset, catching lost and duplicated values;
    - {e linearizability}: {!Lincheck.Checker} verifies the recorded
      history (drain included) is linearizable against a sequential
      FIFO queue, catching reorderings that conserve values.

    Used by [test/test_mcheck_native.ml] and the [msq_check
    mcheck-native] subcommand. *)

module N : Explore.EXPLORER with type env = unit
(** The explorer over {!Native_machine}, exposed for custom specs and
    for replaying failure schedules. *)

(** The queue surface the scenarios drive (any {!Core.Queue_intf.S}
    satisfies it). *)
module type QUEUE = sig
  type 'a t

  val name : string
  val create : unit -> 'a t
  val enqueue : 'a t -> 'a -> unit
  val dequeue : 'a t -> 'a option
end

type op = Enq of int | Deq

type scenario = { sname : string; procs : op list array }
(** One operation script per process. *)

val pairs : procs:int -> ops:int -> scenario
(** [procs] processes each running [ops] enqueue/dequeue pairs. *)

val scenarios : scenario list
(** The default small-scope battery: enqueue/enqueue races,
    dequeue-empty vs. enqueue, the mid-enqueue (link-CAS before
    tail-swing) window, and 2–3 process pair workloads. *)

val find_scenario : string -> scenario option

val queues : (string * (module QUEUE)) list
(** Traced instantiations of the native queues: ms, ms-counted, ms-hp,
    two-lock, segmented, and the bounded scq behind an unbounded
    adapter (capacity 4, above any scenario's live-item count, so
    [try_enqueue] cannot refuse and the FIFO spec applies) whose
    dequeue is the fabric's bounded-shard poll: [maybe_nonempty], then
    [try_dequeue] only if it reads [true]. *)

val find_queue : string -> (module QUEUE) option

val check :
  ?max_preemptions:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?max_failures:int ->
  (module QUEUE) ->
  scenario ->
  Explore.outcome
(** Exhaustive exploration of one queue under one scenario.  Defaults:
    2 preemptions, 10_000 steps per run (the depth limit), 1_000_000
    runs, stop after 5 failures. *)

val check_random :
  ?max_preemptions:int ->
  ?max_steps:int ->
  ?runs:int ->
  ?max_failures:int ->
  seed:int64 ->
  (module QUEUE) ->
  scenario ->
  Explore.outcome
(** Randomized companion for scopes beyond the exhaustive budget. *)

val replay :
  ?max_steps:int ->
  (module QUEUE) ->
  scenario ->
  Explore.schedule ->
  [ `Completed | `Diverged | `Failed of Explore.failure ]
(** Re-execute one schedule (e.g. a reported counterexample) and
    return its verdict — deterministic, so a failure's schedule
    reproduces its trace exactly. *)

(** {2 Bounded battery}

    The same explorer over [try_enqueue]/[try_dequeue] scripts at tiny
    capacities, judged by conservation (refused enqueues count for
    neither side) plus {!Lincheck.Checker.check} with [~capacity] — so
    a spurious full verdict, or one that loses the element, fails
    exactly like a spurious empty.  A [Length] step samples
    [length], which must lie in [[0, capacity]]. *)

module type BQUEUE = Core.Queue_intf.BOUNDED

type bop = Try_enq of int | Try_deq | Length

type bounded_scenario = {
  bname : string;
  capacity : int;
  bprocs : bop list array;
}

val bounded_scenarios : bounded_scenario list
(** Full-verdict race at capacity 1, dequeuer-overrun vs. in-flight
    enqueue (the planted-bug scenario), a capacity-1 double wrap, and a
    [length] sample racing a dequeue and re-enqueue at capacity 1. *)

val find_bounded_scenario : string -> bounded_scenario option

val bqueues : (string * (module BQUEUE)) list
(** Traced bounded queues: scq. *)

val find_bqueue : string -> (module BQUEUE) option

val check_bounded :
  ?max_preemptions:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?max_failures:int ->
  (module BQUEUE) ->
  bounded_scenario ->
  Explore.outcome

val replay_bounded :
  ?max_steps:int ->
  (module BQUEUE) ->
  bounded_scenario ->
  Explore.schedule ->
  [ `Completed | `Diverged | `Failed of Explore.failure ]

(** {2 Mutants}

    The checker checking itself, as the paper's §1 found Stone's races
    by hand: each battery queue's shipping functor with one planted
    bug, which its scenario must catch.  A mutant is not a copy: the
    mutant table in [lib/mcheck/dune] names a [lib/core] source, an
    exact text and its replacement, and a build rule
    ([tools/specialize/mutate.exe]) compiles that source's lines above
    its default instance with the text replaced.  A text that no
    longer occurs exactly once there stops the build, naming the entry
    and the file. *)

type subject =
  | Unbounded of (module QUEUE) * scenario
  | Bounded of (module BQUEUE) * bounded_scenario

type mutant = {
  mname : string;  (** the table entry *)
  mqueue : string;  (** the key it mutates in {!queues} or {!bqueues} *)
  subject : subject;  (** its {!Traced_atomic} instance and scenario *)
}

val mutants : mutant list
(** One entry per table entry, at least one per battery queue: D12's
    Head CAS as a store in ms, ms-counted and ms-hp, the two-lock spin
    lock's test-and-set as a store, segmented's poison CAS as a store
    (each under ["pairs-2x1"]), SCQ's cycle guard dropped from the
    ring-enqueue slot claim (under ["b-empty-race"]), and SCQ's
    two-load empty test reading [tail] before [head] (under
    ["pairs-2x1"], through the capacity-4 unbounded adapter, whose
    dequeue polls through that test; the bounded battery calls
    [try_dequeue] directly and never reaches it). *)

val broken : (module QUEUE)
(** The ms mutant: two racing dequeuers both take the same node. *)

val broken_bounded : (module BQUEUE)
(** The scq mutant: an enqueuer overrun by a dequeuer deposits into a
    slot whose dequeue ticket already passed, stranding the value. *)

(** {2 The battery} *)

type run = { queue : string; scenario : string; outcome : Explore.outcome }

val battery :
  ?max_preemptions:int ->
  ?max_steps:int ->
  ?queue:string ->
  ?scenario:string ->
  unit ->
  (run list, string) result
(** Every queue of {!queues} under every scenario of {!scenarios}, then
    every queue of {!bqueues} under every {!bounded_scenarios} entry —
    or the entries a [?queue] / [?scenario] name resolves to in each
    table ("scq" is in both).  [Error] names an unknown queue or
    scenario and lists the known ones. *)

val self_test : ?max_preemptions:int -> ?max_steps:int -> unit -> run list
(** Every mutant under its scenario, one run each, its [queue] the
    mutant's name.  Each outcome must carry a failure, or the checker
    proves nothing. *)
