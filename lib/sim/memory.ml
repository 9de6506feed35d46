type t = {
  mutable cells : Word.t array;
  mutable used : int;  (* number of cells in use; addresses are 1-based *)
  reservations : int array;  (* per processor: reserved address or 0 *)
}

let create ~n_processors =
  if n_processors <= 0 then invalid_arg "Memory.create";
  {
    cells = Array.make 1024 Word.zero;
    used = 0;
    reservations = Array.make n_processors 0;
  }

let size t = t.used

let grow t n =
  if n <= 0 then invalid_arg "Memory.grow";
  let base = t.used + 1 in
  let needed = t.used + n in
  if needed > Array.length t.cells then begin
    let cap = ref (Array.length t.cells) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let cells = Array.make !cap Word.zero in
    Array.blit t.cells 0 cells 0 t.used;
    t.cells <- cells
  end;
  t.used <- needed;
  base

let check t addr =
  if addr < 1 || addr > t.used then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds (1..%d)" addr t.used)

(* Any store to [addr] invalidates every processor's reservation on it,
   including the storing processor's own (an SC after an intervening store
   by the same processor still fails on real LL/SC only for remote stores;
   we clear remote reservations and keep the writer's, matching R4000
   behaviour where a processor's own store between LL and SC is erroneous
   and treated as reservation loss by most implementations — we clear all
   but the writer to stay conservative for *other* processors). *)
let invalidate_reservations t ~proc addr =
  let r = t.reservations in
  for p = 0 to Array.length r - 1 do
    if p <> proc && r.(p) = addr then r.(p) <- 0
  done

let read t ~proc:_ addr =
  check t addr;
  t.cells.(addr - 1)

let write t ~proc addr v =
  check t addr;
  invalidate_reservations t ~proc addr;
  t.cells.(addr - 1) <- v

let cas t ~proc addr ~expected ~desired =
  check t addr;
  if Word.equal t.cells.(addr - 1) expected then begin
    invalidate_reservations t ~proc addr;
    t.cells.(addr - 1) <- desired;
    true
  end
  else false

let fetch_and_add t ~proc addr delta =
  check t addr;
  let old = t.cells.(addr - 1) in
  let n = Word.to_int old in
  invalidate_reservations t ~proc addr;
  t.cells.(addr - 1) <- Word.Int (n + delta);
  old

let swap t ~proc addr v =
  check t addr;
  let old = t.cells.(addr - 1) in
  invalidate_reservations t ~proc addr;
  t.cells.(addr - 1) <- v;
  old

let test_and_set t ~proc addr =
  check t addr;
  let old = t.cells.(addr - 1) in
  invalidate_reservations t ~proc addr;
  t.cells.(addr - 1) <- Word.Int 1;
  Word.equal old Word.zero

let load_linked t ~proc addr =
  check t addr;
  t.reservations.(proc) <- addr;
  t.cells.(addr - 1)

let store_conditional t ~proc addr v =
  check t addr;
  if t.reservations.(proc) = addr then begin
    t.reservations.(proc) <- 0;
    invalidate_reservations t ~proc addr;
    t.cells.(addr - 1) <- v;
    true
  end
  else false

let clear_reservation t ~proc = t.reservations.(proc) <- 0

let peek t addr =
  check t addr;
  t.cells.(addr - 1)

let poke t addr v =
  check t addr;
  t.cells.(addr - 1) <- v
