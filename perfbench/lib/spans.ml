(* Benchmark-side spans around calls into the program's layers.

   Each recording domain owns one buffer, preallocated outside the
   OCaml heap before the traced pass starts, so recording a span is a
   few stores that never allocate or synchronize, and the buffers
   neither grow the heap nor add to the collector's work.  A span is
   five ints: interned name, start and end (monotonic ns), parent span
   id and item id.
   Span ids carry their buffer's tid in the high bits, so a consumer
   domain's span can name a parent recorded by the main domain.  A
   full buffer drops further spans and counts them. *)

let names : string array ref = ref [||]

(* Names are interned at module initialization, before any second
   domain exists; recording only reads the table. *)
let intern name =
  let rec find i =
    if i = Array.length !names then begin
      names := Array.append !names [| name |];
      i
    end
    else if String.equal !names.(i) name then i
    else find (i + 1)
  in
  find 0

let fields = 5
let tid_shift = 40
let index_mask = (1 lsl tid_shift) - 1
let none = -1

type buf = {
  tid : int;
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  cap : int;
  mutable len : int;
  mutable dropped : int;
}

type t = { main : buf; aux : buf }

let create_buf ~tid ~cap =
  {
    tid;
    data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cap * fields);
    cap;
    len = 0;
    dropped = 0;
  }

(* [aux] is the buffer of the one extra domain a workload may run. *)
let create ~cap = { main = create_buf ~tid:0 ~cap; aux = create_buf ~tid:1 ~cap }

let enter b ~name ~parent ~item start =
  if b.len >= b.cap then begin
    b.dropped <- b.dropped + 1;
    none
  end
  else begin
    let i = b.len in
    b.len <- i + 1;
    let o = i * fields in
    b.data.{o} <- name;
    b.data.{o + 1} <- start;
    b.data.{o + 2} <- start;
    b.data.{o + 3} <- parent;
    b.data.{o + 4} <- item;
    (b.tid lsl tid_shift) lor i
  end

let leave b id stop =
  if id >= 0 then b.data.{((id land index_mask) * fields) + 2} <- stop

let add b ~name ~parent ~item ~start ~stop =
  leave b (enter b ~name ~parent ~item start) stop

let iter t f =
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let o = i * fields in
        f b i b.data.{o} b.data.{o + 1} b.data.{o + 2} b.data.{o + 3}
          b.data.{o + 4}
      done)
    [ t.main; t.aux ]

(* Durations (ns) of every recorded span named [name] whose item id
   satisfies [item], in recording order. *)
let durations ?(item = fun _ -> true) t name =
  let n = ref 0 in
  iter t (fun _ _ nm _ _ _ it -> if nm = name && item it then incr n);
  let a = Array.make !n 0 and k = ref 0 in
  iter t (fun _ _ nm start stop _ it ->
      if nm = name && item it then begin
        a.(!k) <- stop - start;
        incr k
      end);
  a

let recorded t = t.main.len + t.aux.len
let dropped t = t.main.dropped + t.aux.dropped

(* Chrome-trace (catapult) JSON: one complete ("X") event per span,
   at most [per_name] of each name so the file stays loadable; ids,
   parents and items ride in [args]. *)
let to_chrome ?(per_name = 20_000) ~other t =
  let t0 = ref max_int in
  iter t (fun _ _ _ start _ _ _ -> if start < !t0 then t0 := start);
  let seen = Array.make (Array.length !names) 0 in
  let events = ref [] and exported = ref 0 in
  iter t (fun b i nm start stop parent item ->
      if seen.(nm) < per_name then begin
        seen.(nm) <- seen.(nm) + 1;
        incr exported;
        let us ns = Obs.Json.Float (float_of_int ns /. 1e3) in
        events :=
          Obs.Json.Assoc
            [
              ("name", String !names.(nm));
              ("ph", String "X");
              ("pid", Int 1);
              ("tid", Int b.tid);
              ("ts", us (start - !t0));
              ("dur", us (stop - start));
              ( "args",
                Assoc
                  [
                    ("id", Int ((b.tid lsl tid_shift) lor i));
                    ("parent", Int parent);
                    ("item", Int item);
                  ] );
            ]
          :: !events
      end);
  let thread tid label =
    Obs.Json.Assoc
      [
        ("name", String "thread_name");
        ("ph", String "M");
        ("pid", Int 1);
        ("tid", Int tid);
        ("args", Assoc [ ("name", String label) ]);
      ]
  in
  Obs.Json.Assoc
    [
      ("displayTimeUnit", String "ms");
      ( "traceEvents",
        List (thread 0 "main" :: thread 1 "second domain" :: List.rev !events) );
      ( "otherData",
        Assoc
          (("recorded", Obs.Json.Int (recorded t))
          :: ("exported", Int !exported)
          :: ("dropped", Int (dropped t))
          :: other) );
    ]
