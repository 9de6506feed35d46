(** A minimal JSON tree: emitter and parser.

    The reporting layer emits machine-readable results
    ([BENCH_queues.json], the figure JSON of [Harness.Report]) without an
    external dependency; the parser exists so tests can round-trip what
    the emitters write (and validate the Chrome-trace exporter's
    output).  It accepts standard JSON with two documented shortcuts:
    numbers are OCaml [int]/[float] (no bignums) and [\u] escapes are
    decoded for ASCII only. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val pp : Format.formatter -> t -> unit
(** Valid JSON; [Float] nan/infinities degrade to [null]. *)

val to_string : t -> string

val to_string_pretty : t -> string
(** Indented (2-space) multi-line form, no trailing newline: every
    non-empty array/object breaks onto its own lines — the shape the
    [*-out] artifact writers use so timelines and flight dumps are
    reviewable. *)

val write_file : string -> t -> unit
(** Write the pretty form plus a trailing newline to a file — the one
    call every [*-out] writer goes through. *)

exception Parse_error of string

val of_string : string -> t
(** Raises {!Parse_error} with an offset on malformed input. *)

val of_string_opt : string -> t option

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Assoc ...)] — [None] on missing key or non-object. *)

val to_list_opt : t -> t list option
val to_int_opt : t -> int option
val to_string_opt : t -> string option

val to_float_opt : t -> float option
(** [Int]s widen; everything else is [None]. *)

val to_bool_opt : t -> bool option
