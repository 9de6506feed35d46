(** Concurrent histories of queue operations.

    A history is the set of completed operations, each with an
    invocation/response interval on a single global timeline.  The
    recorder produces valid intervals for both execution substrates:

    - native domains: stamps come from one [Atomic] counter, so stamp
      order is a real-time order;
    - simulated processes: wrapper code runs host-side between effect
      resumptions, and the engine resumes processes in global simulated
      time order, so the same counter yields intervals consistent with
      the simulation's linearization order.

    Linearizability of a history is then checked by {!Checker} against
    the sequential FIFO specification. *)

type op =
  | Enq of int
  | Deq of int option  (** the result observed *)
  | Try_enq of int * bool
      (** a bounded queue's {!Core.Queue_intf.BOUNDED.try_enqueue}: the
          value offered and whether it was accepted ([false] = the
          queue was observed full).  A bounded [try_dequeue] records as
          [Deq] — its [None] is the same empty verdict.  Checkable only
          with {!Checker.check}'s [?capacity]. *)

type entry = { proc : int; op : op; start : int; finish : int }

type t = entry list
(** Any order is a valid history; {!Checker.check} tries operations in
    list order, so oldest-first histories check fastest. *)

type recorder

val create_recorder : unit -> recorder

val record : recorder -> proc:int -> (unit -> op) -> unit
(** [record r ~proc f] runs [f] (which performs one queue operation and
    returns its descriptor) between two stamps and logs the entry.
    Thread-safe across domains; [proc] must be unique per thread of
    control. *)

val record_many : recorder -> proc:int -> (unit -> op list) -> unit
(** [record_many r ~proc f] runs [f] (which performs one compound queue
    operation — e.g. a {!Core.Queue_intf.BATCH} batch — and returns one
    descriptor per element) between two stamps and logs every element
    as an entry over that single shared interval.  The checker then
    treats the elements as concurrent within the window, which
    over-approximates the orders a batch can take; a [Not_linearizable]
    verdict is therefore still a real violation, while per-batch
    element order is checked separately (values within one batch must
    dequeue in batch order — see [test/test_lincheck.ml]). *)

val history : recorder -> t
(** Collect all recorded entries, oldest first (by start stamp), each
    {!record_many} batch's elements in batch order.  Call only after
    the recorded processes have finished. *)

val pp_op : Format.formatter -> op -> unit
val pp_entry : Format.formatter -> entry -> unit
