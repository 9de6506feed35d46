(** Per-domain rows, each allocated by the first write from its slot.

    The storage behind {!Counter}, {!Histogram} and {!Flight}: a table
    of [slots] rows of [width] ints, where a domain writes the row of
    slot [domain id mod slots] with plain stores.  A slot no domain has
    written holds no row and costs one pointer, so a structure that is
    created but never written (an observer left off, a recorder never
    enabled) costs its slot table, not its rows.

    {!row} is the one place a row is installed.  Domains whose ids
    collide modulo [slots] share a row, and two such domains writing
    at once can lose updates — the install itself included: if both
    install the same slot at once, one row replaces the other and the
    loser's first updates are lost.  Readers ({!iter}, {!iteri},
    {!fold}) skip missing rows; their totals are exact once the writers
    are quiescent. *)

type t

val create : slots:int -> t
(** No rows yet.  Raises [Invalid_argument] unless [slots] is a power
    of two. *)

val row : t -> width:int -> int -> int array
(** [row t ~width d]: the row of slot [d mod slots] ([d] a domain id),
    installed as [width] zeros by the first call for that slot; later
    calls are a load and a length test, and allocate nothing.  Every
    call on one table passes the same [width >= 1]. *)

val mine : t -> width:int -> int array
(** [row t ~width (Domain.self ())]. *)

val iter : (int array -> unit) -> t -> unit
(** Installed rows, in slot order. *)

val iteri : (int -> int array -> unit) -> t -> unit
(** Installed rows with their slot index, in slot order. *)

val fold : ('a -> int array -> 'a) -> 'a -> t -> 'a
(** Over installed rows, in slot order. *)

val installed : t -> int
(** Rows allocated so far. *)
