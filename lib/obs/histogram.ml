(* Bucket index = number of significant bits of the sample: bucket 0
   holds v <= 0, bucket 1 holds v = 1, bucket i >= 1 holds
   [2^(i-1), 2^i - 1].  Rows are per-domain ([Rows]: one row per domain
   slot, allocated by the slot's first record), so concurrent recording
   from different domains touches disjoint memory.  The cell past the
   last bucket carries the row's exact running sum, so the mean is exact
   even though buckets quantize. *)

let n_buckets = 63
let n_rows = 64
let sum_cell = n_buckets
let row_width = n_buckets + 1

type t = Rows.t (* row.(bucket); last cell = sum *)

let create () = Rows.create ~slots:n_rows

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
  let row = Rows.mine t ~width:row_width in
  let b = bucket_of v in
  row.(b) <- row.(b) + 1;
  row.(sum_cell) <- row.(sum_cell) + v

let bucket_count t b = Rows.fold (fun total row -> total + row.(b)) 0 t

(* Every row summed cell by cell: the bucket counts, then the sum. *)
let totals t =
  let acc = Array.make row_width 0 in
  Rows.iter
    (fun row ->
      for b = 0 to row_width - 1 do
        acc.(b) <- acc.(b) + row.(b)
      done)
    t;
  acc

let counts t = Array.sub (totals t) 0 n_buckets

let count t = Array.fold_left ( + ) 0 (counts t)

let buckets t =
  let c = counts t in
  let acc = ref [] in
  for b = n_buckets - 1 downto 0 do
    if c.(b) > 0 then acc := (lower_bound b, c.(b)) :: !acc
  done;
  !acc

let sum t = Rows.fold (fun total row -> total + row.(sum_cell)) 0 t

let mean t =
  let n = count t in
  if n = 0 then None else Some (float_of_int (sum t) /. float_of_int n)

(* [t]'s totals land in the merging domain's own row of [into]: the
   readers only ever aggregate, and the merger writes no other domain's
   row.  An empty [t] installs nothing. *)
let merge_into ~into t =
  if Rows.installed t > 0 then begin
    let src = totals t and dst = Rows.mine into ~width:row_width in
    Array.iteri (fun b v -> dst.(b) <- dst.(b) + v) src
  end

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

(* The quantile walk over aggregated bucket counts — the sampler's
   windowed quantiles subtract two {!counts} snapshots and rank within
   the difference. *)

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

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile";
  quantile_of_counts (counts t) q

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  quantile t (p /. 100.)

let p999 t = quantile t 0.999
let reset t = Rows.iter (fun row -> Array.fill row 0 row_width 0) t

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
