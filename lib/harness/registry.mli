(** The single registry of queue algorithms: simulated (the paper's
    evaluation) and native (the OCaml 5 implementations).

    Everything that iterates "all algorithms" — the benchmark suite, the
    figure CLIs, the verification CLI, the JSON reports — goes through
    this module, so adding a queue is one registration here rather than
    an edit per tool. *)

type entry = { key : string; algo : (module Squeues.Intf.S) }

val all : entry list
(** The six algorithms of the paper's Figures 3–5, in the legend order:
    single lock, MC lock-free, Valois non-blocking, new two-lock, PLJ
    non-blocking, new non-blocking. *)

val extras : entry list
(** Simulated algorithms outside the figures — Stone's flawed queues,
    Herlihy–Wing, the bounded SCQ ring, and the process-keyed sharded
    fabric ("stone", "stone-ring", "hb", "scq", "fabric") — used by
    the verification and profiling tools.  Note "fabric" is not FIFO
    across producers (per-shard order only), so the FIFO-spec checkers
    do not apply to it. *)

val find : string -> (module Squeues.Intf.S)
(** Look up over {!all} and {!extras}; raises [Invalid_argument] with
    the available keys listed. *)

val keys : string list
(** Keys of {!all}, in figure order. *)

val nonblocking : string list
(** The keys of {!all} the paper proves non-blocking; the other three
    block when a process dies holding a lock or a half-linked cell. *)

(** {1 Native queues}

    The OCaml 5 implementations in {!Core}, {!Baselines} and {!Fabric},
    one table for every capability.  Each entry's [queue] is its
    {!Core.Queue_intf.BOUNDED} view — an unbounded queue enters through
    {!Core.Queue_intf.Unbounded}, so its capacity is [max_int] and its
    [try_enqueue] never refuses — and the optional capabilities ride
    alongside: [unbounded] (the {!Core.Queue_intf.S} operations, [peek]
    and a non-refusing [enqueue]) and [batch]
    ({!Core.Queue_intf.BATCH}).  Iterate the table and pick the view a
    consumer needs; a bounded ring ("scq", last) has only [queue].

    The "fabric" entry is [Fabric.Queue_fabric.As_queue] — segmented
    shards, domain-keyed routing — so every generic suite and wrapper
    (qcheck, {!Obs.Chaos}, {!Obs.Instrumented}, bench) covers the
    fabric like any single queue.  It guarantees per-producer FIFO,
    not cross-producer FIFO; single-queue FIFO checkers must use
    [Fabric.Queue_fabric.Single_key] instead (as [msq_check
    native-lin] does). *)

type native_entry = {
  key : string;
  queue : (module Core.Queue_intf.BOUNDED);
  unbounded : (module Core.Queue_intf.S) option;
  batch : (module Core.Queue_intf.BATCH) option;
}

val native : native_entry list

val find_native : string -> native_entry
(** Raises [Invalid_argument] with the available keys listed. *)

val native_keys : string list
