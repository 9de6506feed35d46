(* Bucket index = number of significant bits of the sample: bucket 0
   holds v <= 0, bucket 1 holds v = 1, bucket i >= 1 holds
   [2^(i-1), 2^i - 1].  Rows are per-domain (one array per domain slot),
   so concurrent recording from different domains touches disjoint
   memory.  The cell past the last bucket carries the row's exact
   running sum, so the mean is exact even though buckets quantize. *)

let n_buckets = 63
let n_rows = 64
let sum_cell = n_buckets
let row_width = n_buckets + 1

type t = int array array (* rows.(domain_slot).(bucket); last cell = sum *)

let create () = Array.init n_rows (fun _ -> Array.make row_width 0)

(* Significant bits by a fixed binary search: six shift-and-test steps
   whatever the value, so recording stays constant-time. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 1 and v = ref v in
    if !v lsr 32 <> 0 then (b := !b + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (b := !b + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (b := !b + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (b := !b + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (b := !b + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then incr b;
    !b
  end

let lower_bound b = if b = 0 then 0 else 1 lsl (b - 1)
let upper_bound b = if b = 0 then 0 else (1 lsl b) - 1

let record t v =
  let row = t.((Domain.self () :> int) land (n_rows - 1)) in
  let b = bucket_of v in
  row.(b) <- row.(b) + 1;
  row.(sum_cell) <- row.(sum_cell) + v

let bucket_count t b =
  let total = ref 0 in
  for r = 0 to n_rows - 1 do
    total := !total + t.(r).(b)
  done;
  !total

let count t =
  let total = ref 0 in
  for b = 0 to n_buckets - 1 do
    total := !total + bucket_count t b
  done;
  !total

let buckets t =
  let acc = ref [] in
  for b = n_buckets - 1 downto 0 do
    let c = bucket_count t b in
    if c > 0 then acc := (lower_bound b, c) :: !acc
  done;
  !acc

let sum t =
  let total = ref 0 in
  for r = 0 to n_rows - 1 do
    total := !total + t.(r).(sum_cell)
  done;
  !total

let mean t =
  let n = count t in
  if n = 0 then None else Some (float_of_int (sum t) /. float_of_int n)

let merge_into ~into t =
  for r = 0 to n_rows - 1 do
    for b = 0 to row_width - 1 do
      into.(r).(b) <- into.(r).(b) + t.(r).(b)
    done
  done

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile";
  let n = count t in
  if n = 0 then None
  else begin
    let rank = Float.to_int (Float.ceil (q *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    let seen = ref 0 in
    let result = ref 0 in
    (try
       for b = 0 to n_buckets - 1 do
         seen := !seen + bucket_count t b;
         if !seen >= rank then begin
           result := upper_bound b;
           raise Exit
         end
       done
     with Exit -> ());
    Some !result
  end

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  quantile t (p /. 100.)

let p999 t = quantile t 0.999

(* Aggregated bucket counts as a plain array, and the quantile walk over
   such an array — the sampler's windowed quantiles subtract two
   snapshots and rank within the difference. *)

let counts t = Array.init n_buckets (fun b -> bucket_count t b)

let quantile_of_counts counts q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile_of_counts";
  if Array.length counts <> n_buckets then
    invalid_arg "Histogram.quantile_of_counts";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else begin
    let rank = Float.to_int (Float.ceil (q *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    let seen = ref 0 in
    let result = ref 0 in
    (try
       for b = 0 to n_buckets - 1 do
         seen := !seen + counts.(b);
         if !seen >= rank then begin
           result := upper_bound b;
           raise Exit
         end
       done
     with Exit -> ());
    Some !result
  end

let reset t = Array.iter (fun row -> Array.fill row 0 row_width 0) t

let pp fmt t =
  let bs = buckets t in
  let n = count t in
  if n = 0 then Format.fprintf fmt "(empty)"
  else begin
    let widest = List.fold_left (fun acc (_, c) -> max acc c) 1 bs in
    Format.fprintf fmt "@[<v>";
    List.iteri
      (fun i (lo, c) ->
        if i > 0 then Format.fprintf fmt "@ ";
        let bar = max 1 (c * 24 / widest) in
        Format.fprintf fmt ">=%-10d %-24s %d" lo (String.make bar '#') c)
      bs;
    Format.fprintf fmt "@]"
  end

let to_json t =
  Json.Assoc
    [
      ("count", Json.Int (count t));
      ("sum", Json.Int (sum t));
      ("mean", (match mean t with Some m -> Json.Float m | None -> Json.Null));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, c) -> Json.Assoc [ ("ge", Json.Int lo); ("count", Json.Int c) ])
             (buckets t)) );
    ]
