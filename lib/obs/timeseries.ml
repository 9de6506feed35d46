(* A fixed-capacity ring of (timestamp, value) samples: the storage
   behind every sampler series.  Overwrite-oldest, single writer (the
   sampling domain); readers take a consistent-enough snapshot once the
   writer is quiescent — the same relaxed contract as Histogram. *)

type t = {
  name : string;
  labels : (string * string) list;
  unit_ : string;
  cap : int;
  times : int array;  (* monotonic ns *)
  values : float array;
  mutable pushed : int;  (* total pushes ever; index = pushed land (cap-1) *)
}

let create ?(labels = []) ?(unit_ = "") ~capacity name =
  if capacity <= 0 then invalid_arg "Timeseries.create";
  (* round up to a power of two so the ring index is a mask *)
  let cap =
    let c = ref 1 in
    while !c < capacity do
      c := !c * 2
    done;
    !c
  in
  {
    name;
    labels;
    unit_;
    cap;
    times = Array.make cap 0;
    values = Array.make cap 0.;
    pushed = 0;
  }

let name t = t.name
let labels t = t.labels
let capacity t = t.cap
let length t = min t.pushed t.cap
let dropped t = max 0 (t.pushed - t.cap)

let push t ~t_ns v =
  let i = t.pushed land (t.cap - 1) in
  t.times.(i) <- t_ns;
  t.values.(i) <- v;
  t.pushed <- t.pushed + 1

let to_list t =
  let n = length t in
  let first = t.pushed - n in
  List.init n (fun k ->
      let i = (first + k) land (t.cap - 1) in
      (t.times.(i), t.values.(i)))

let last t =
  if t.pushed = 0 then None
  else
    let i = (t.pushed - 1) land (t.cap - 1) in
    Some (t.times.(i), t.values.(i))

let reset t = t.pushed <- 0

(* [t0] rebases timestamps (the sampler passes its start instant) so the
   exported timeline reads in milliseconds from the run start. *)
let points_json ?(t0 = 0) t =
  Json.List
    (List.map
       (fun (t_ns, v) ->
         Json.Assoc
           [
             ("t_ms", Json.Float (float_of_int (t_ns - t0) /. 1e6));
             ("v", Json.Float v);
           ])
       (to_list t))

let to_json ?t0 t =
  Json.Assoc
    [
      ("name", Json.String t.name);
      ("labels", Json.Assoc (List.map (fun (k, v) -> (k, Json.String v)) t.labels));
      ("unit", Json.String t.unit_);
      ("dropped", Json.Int (dropped t));
      ("points", points_json ?t0 t);
    ]
