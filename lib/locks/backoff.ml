(* Per-domain jitter streams: SplitMix64, the same generator as
   [Obs.Chaos] / [Sim.Rng], re-implemented here because [Locks] sits
   below both.  One stream per domain row, each seeded from the global
   seed plus the row index, so the jitter any domain draws is a pure
   function of (seed, domain id) — and, crucially, two domains backing
   off from the same failed CAS draw from different streams instead of
   re-colliding in lockstep. *)

let n_rows = 128
let golden = 0x9E3779B97F4A7C15L

(* Inlined, so the 64-bit arithmetic stays unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let default_seed = 0x6A697474L (* "jitt" *)

(* Stream state, unboxed: row [r]'s state is cell [r * row_cells], so
   every row has a 64-byte cache line to itself and a draw is a plain
   load and store — no boxed [int64], no write barrier. *)
let row_cells = 8

let states =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n_rows * row_cells)

let reseed seed =
  for r = 0 to n_rows - 1 do
    states.{r * row_cells} <- mix64 (Int64.add seed (Int64.of_int (r + 1)))
  done

let () = reseed default_seed

let next_bits () =
  let i = ((Domain.self () :> int) land (n_rows - 1)) * row_cells in
  let s = Int64.add states.{i} golden in
  states.{i} <- s;
  Int64.to_int (Int64.shift_right_logical (mix64 s) 2)

type t = { initial : int; limit : int; mutable bound : int }

let create ?(initial = 16) ?(limit = 4096) () =
  if initial <= 0 || limit < initial then invalid_arg "Backoff.create";
  { initial; limit; bound = initial }

let once t =
  Probe.backoff ();
  let iterations = 1 + (next_bits () mod t.bound) in
  for _ = 1 to iterations do
    Domain.cpu_relax ()
  done;
  t.bound <- min t.limit (t.bound * 2)

let reset t = t.bound <- t.initial
