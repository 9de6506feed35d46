(* Exact order statistics over raw samples.

   Every percentile the benchmark reports is one of the samples, picked
   by nearest rank from the sorted array: no histogram buckets, so two
   runs that saw the same samples report the same value.  Ranks use
   integer arithmetic in parts per ten thousand, so p99 of 100 samples
   is exactly the 99th, with no float rounding at the boundary. *)

let rank ~n q =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if q < 0 || q > 10_000 then invalid_arg "Stats.rank: q outside 0..10000";
  max 1 (((q * n) + 9_999) / 10_000)

let sorted_ints a n =
  let s = Array.sub a 0 n in
  Array.sort Int.compare s;
  s

let percentile sorted q = sorted.(rank ~n:(Array.length sorted) q - 1)

(* Exact p50 of unsorted samples; 0 when there are none. *)
let median_ints a =
  if Array.length a = 0 then 0
  else percentile (sorted_ints a (Array.length a)) 5_000

(* Samples strictly greater than [v] in a sorted array. *)
let beyond sorted v =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  Array.length sorted - !lo

type point = { q : int; value : int; beyond : int }
type summary = { count : int; points : point list }

let standard = [ 5_000; 9_900; 9_990 ]

let summarize sorted =
  let count = Array.length sorted in
  let points =
    if count = 0 then []
    else
      List.map
        (fun q ->
          let value = percentile sorted q in
          { q; value; beyond = beyond sorted value })
        standard
  in
  { count; points }

let find summary q = List.find (fun p -> p.q = q) summary.points

let label q =
  if q mod 100 = 0 then Printf.sprintf "p%d" (q / 100)
  else Printf.sprintf "p%g" (float_of_int q /. 100.)

(* Exact median of a handful of per-trial or per-round values. *)
let median = function
  | [] -> invalid_arg "Stats.median: no values"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
