(** The outcome of one acceptance check — the one result type every
    gate returns ({!Gate}, {!Crash_experiment.dichotomy},
    {!Soak.verdicts}), so [msq_check], the benchmark and the tests read
    and print verdicts one way.  It sits below every gate module, so
    single-subject gates can live next to their subject. *)

type t = { name : string; ok : bool; detail : string }

val v : string -> bool -> string -> t
(** [v name ok detail]. *)

val pp : Format.formatter -> t -> unit
(** ["  PASS name: detail"] or ["  FAIL name: detail"]. *)

val report : ?fmt:Format.formatter -> string -> t list -> int
(** [report gate vs] prints every verdict to [fmt] (default stdout),
    then one summary line (["gate: every verdict held"] or the failing
    names), and returns the exit code: 0 when every verdict holds, 1
    otherwise. *)
