(* SplitMix64, the one copy for every library above the simulator
   ([Sim.Rng] keeps its own: [Sim] has no dependencies).  [Locks] sits
   below [Obs] and [Harness], so the chaos streams, the soak's decisions
   and the open-loop schedule all draw from here.  A stream bank keeps
   one stream per domain row, each seeded from the bank's seed plus the
   row index, so a domain's draws are a pure function of (seed, domain
   id) — and two domains backing off from the same failed CAS draw from
   different streams instead of re-colliding in lockstep. *)

let n_rows = 128
let golden = 0x9E3779B97F4A7C15L

(* Inlined, so the 64-bit arithmetic stays unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next st =
  st := Int64.add !st golden;
  mix64 !st

(* Stream state, unboxed: row [r]'s state is cell [r * row_cells], so
   every row has a 64-byte cache line to itself and a draw is a plain
   load and store — no boxed [int64], no write barrier. *)
let row_cells = 8

type streams = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let reseed_streams (states : streams) seed =
  for r = 0 to n_rows - 1 do
    states.{r * row_cells} <- mix64 (Int64.add seed (Int64.of_int (r + 1)))
  done

let streams seed =
  let states =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n_rows * row_cells)
  in
  reseed_streams states seed;
  states

let draw (states : streams) =
  let i = ((Domain.self () :> int) land (n_rows - 1)) * row_cells in
  let s = Int64.add states.{i} golden in
  states.{i} <- s;
  Int64.to_int (Int64.shift_right_logical (mix64 s) 2)

let jitter = streams 0x6A697474L (* "jitt" *)
let reseed seed = reseed_streams jitter seed

type t = { initial : int; limit : int; mutable bound : int }

let create ?(initial = 16) ?(limit = 4096) () =
  if initial <= 0 || limit < initial then invalid_arg "Backoff.create";
  { initial; limit; bound = initial }

let once t =
  Probe.backoff ();
  let iterations = 1 + (draw jitter mod t.bound) in
  for _ = 1 to iterations do
    Domain.cpu_relax ()
  done;
  t.bound <- min t.limit (t.bound * 2)

let reset t = t.bound <- t.initial
