(** The default instance of an ATOMIC functor, compiled from the
    functor's own lines (the preprocessor behind [lib/core] and
    [lib/fabric]; see HACKING, "Adding an algorithm").

    A file's marker is its column-0 [include Make (P)] line, [P] a path
    ending in [Stdlib_atomic].  Its functor is the nearest one-line
    [module Make (A : ...ATOMIC) = struct] (or [... : S = struct])
    above it, whose body ends at the first column-0 [end].  The marker
    becomes [include struct module A = P], the body with every
    [X.Make (A)] rewritten to [X], and [end] ([include (struct ...
    end : S)] for a constrained functor), with [# n "file"] directives
    that map each emitted line back to its source line. *)

type site = {
  header : int;  (** 0-based line of the functor's header *)
  stop : int;  (** 0-based line of its closing [end] *)
  marker : int;  (** 0-based line of [include Make (P)] *)
  param : string;  (** the functor's parameter, [A] *)
  signature : string option;  (** [S] in [module Make (A : ...) : S = struct] *)
  atomic : string;  (** [P] *)
}

val text : file:string -> string -> (string, string) result
(** [text ~file src]: [src] (the contents of [file]) with its default
    instance specialized, or [src] itself when it has no marker.
    [Error] when the marker is there but its functor's one-line header
    or closing [end] is not, or when there are two markers; the
    message starts with [file]. *)

val mutant :
  name:string -> file:string -> text:string -> by:string -> string -> (string, string) result
(** [mutant ~name ~file ~text ~by src]: a planted bug (the generator
    behind [lib/mcheck]'s mutant table).  [src]'s lines above its
    marker, with the one occurrence of [text] there replaced by [by],
    as [module Name = struct open Core ... end], where [Name] is [name]
    capitalized with ['-'] as ['_'] and a [# 1 "file"] directive keeps
    every line at its source line.  [Error], naming [name] and [file],
    when [src] has no marker (or {!find} refuses it) or [text] occurs
    there other than exactly once. *)

val find : file:string -> string array -> (site option, string) result
(** The marker and its functor in a file's lines, as {!text} finds them. *)

val closing : site -> string
(** The line that closes the emitted body: [end], or [end : S)]. *)

val rewrite : param:string -> string -> string * string list
(** [rewrite ~param line]: [line] with every [X.Make (param)] replaced
    by [X], and the [X]s in order.  Sound only when [X.Make] keeps no
    state per application, so that [X] can stand for a fresh
    [X.Make (A)]. *)

val marker : string -> string option
(** [Some P] when the line is a marker. *)

(** {1 Helpers shared with the coverage check} *)

val lines_of : string -> string array
val read_file : string -> string
val contains : string -> string -> bool
val ident_char : char -> bool
val ends_with_component : name:string -> string -> bool
