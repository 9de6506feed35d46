(* One padded row per domain slot, allocated by the slot's first write
   ([Rows]).  The row is written only by domains mapping to it (plain
   stores: no coherence traffic beyond the line's natural owner), and
   [value] sums the rows.  Word-sized loads and stores do not tear in
   OCaml, so a racy [value] reads a valid — at worst slightly stale —
   total. *)

let n_rows = 128
let row_words = 16 (* 128 bytes: two cache lines on common hardware *)

(* Mid-row, so the counted word's cache line lies wholly inside the
   row whatever the row's alignment: no other block shares it. *)
let cell = row_words / 2

type t = Rows.t

let create () = Rows.create ~slots:n_rows

let add t n =
  let r = Rows.mine t ~width:row_words in
  r.(cell) <- r.(cell) + n

let incr t = add t 1
let value t = Rows.fold (fun total r -> total + r.(cell)) 0 t
let reset t = Rows.iter (fun r -> r.(cell) <- 0) t
