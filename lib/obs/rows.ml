(* A slot holds the empty array until a domain mapping to it first
   writes; the row is then installed with one plain store.  The empty
   array is a shared atom, so an untouched slot is one pointer and
   [create] allocates nothing but the slot table.  The table is the
   bare array, so finding a row is one load from it. *)

type t = int array array

let create ~slots =
  if slots <= 0 || slots land (slots - 1) <> 0 then invalid_arg "Rows.create";
  Array.make slots [||]

let install t ~width s =
  let r = Array.make width 0 in
  t.(s) <- r;
  r

let row t ~width d =
  let s = d land (Array.length t - 1) in
  let r = t.(s) in
  if Array.length r <> 0 then r else install t ~width s

let mine t ~width = row t ~width (Domain.self () :> int)

let iteri f t = Array.iteri (fun s r -> if Array.length r <> 0 then f s r) t
let iter f t = iteri (fun _ r -> f r) t

let fold f acc t =
  Array.fold_left
    (fun acc r -> if Array.length r <> 0 then f acc r else acc)
    acc t

let installed t = fold (fun n _ -> n + 1) 0 t
