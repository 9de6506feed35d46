(* The flight recorder: an always-on black box of the queues' last
   moments.  Each domain logs fixed-size binary records — the mark's
   [Locks.Probe] label id, monotonic timestamp, event tag, raw domain
   id — into its own overwrite-oldest ring (plain stores, one writer per
   ring row), fed from the first position of Probe's subscriber table.
   When nothing is enabled the queues pay only Probe's one-load-and-
   branch disabled path; when enabled, the per-event cost is one clock
   read and four array stores.

   A dump renders the rings as Chrome-trace (catapult) JSON loadable in
   Perfetto or chrome://tracing.  The anomaly latch arms a dump path
   before a risky run; the first major anomaly (watchdog expiry, audit
   failure, liveness timeout) writes the dump there, while minor
   anomalies (an expected breaker trip) only claim the latch if nothing
   better has. *)

let n_rings = 64
let rec_words = 4

(* Ring row layout: cell 0 is the row's cursor (events ever written),
   records follow from cell 1. *)
let head_cell = 0
let first_rec = 1

(* record cells *)
let id_cell = 0
let t_cell = 1
let tag_cell = 2
let dom_cell = 3

(* tags *)
let tag_site = 0
let tag_begin = 1
let tag_end = 2

let default_capacity = 1024

(* A ring row is allocated by its domain's first record ([Rows]), never
   by [enable]; [configure] and [reset] swap in an empty table. *)
let cap = ref default_capacity
let rings = ref (Rows.create ~slots:n_rings)
let on = ref false

let round_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let capacity () = !cap
let reset () = rings := Rows.create ~slots:n_rings

let configure ~capacity =
  if !on then invalid_arg "Flight.configure: recorder is enabled";
  if capacity <= 0 then invalid_arg "Flight.configure";
  cap := round_pow2 capacity;
  reset ()

let recorded () = Rows.fold (fun n ring -> n + ring.(head_cell)) 0 !rings

(* One record per mark: the label's id as [Locks.Probe] interned it,
   so the path is a ring lookup, a clock read and four stores. *)
let tag = function Locks.Probe.Site -> tag_site | Begin -> tag_begin | End -> tag_end

let record ev (l : Locks.Probe.label) =
  let d = (Domain.self () :> int) in
  let c = !cap in
  let ring = Rows.row !rings ~width:(first_rec + (c * rec_words)) d in
  let t = Int64.to_int (Monotonic_clock.now ()) in
  let h = ring.(head_cell) in
  let base = first_rec + ((h land (c - 1)) * rec_words) in
  ring.(base + id_cell) <- (l :> int);
  ring.(base + t_cell) <- t;
  ring.(base + tag_cell) <- tag ev;
  ring.(base + dom_cell) <- d;
  ring.(head_cell) <- h + 1

let enabled () = !on

let enable () =
  if not !on then begin
    on := true;
    Locks.Probe.subscribe Locks.Probe.Flight record
  end

let disable () =
  if !on then begin
    Locks.Probe.unsubscribe Locks.Probe.Flight;
    on := false
  end

(* ------------------------------------------------------------------ *)
(* Chrome-trace dump.  Site events become "i" instants, phase spans
   "B"/"E" pairs, one trace tid per ring row.  Overwrite can shear a
   span — keep its [E] but overwrite its [B] — so the dump balances
   events per tid in time order: an [E] with no open [B] is skipped,
   and spans still open at the end are closed at the last timestamp,
   keeping the file loadable in Perfetto / chrome://tracing. *)

type rec_ = { r_t : int; r_tid : int; r_tag : int; r_id : int; r_dom : int }

let collect () =
  let recs = ref [] in
  let c = !cap in
  Rows.iteri
    (fun r ring ->
      let h = ring.(head_cell) in
      let n = min h c in
      let first = h - n in
      for k = 0 to n - 1 do
        let base = first_rec + (((first + k) land (c - 1)) * rec_words) in
        recs :=
          {
            r_t = ring.(base + t_cell);
            r_tid = r;
            r_tag = ring.(base + tag_cell);
            r_id = ring.(base + id_cell);
            r_dom = ring.(base + dom_cell);
          }
          :: !recs
      done)
    !rings;
  List.sort (fun a b -> compare (a.r_t, a.r_tid) (b.r_t, b.r_tid)) !recs

let dump_json ~reason () =
  let recs = collect () in
  let t_min = match recs with [] -> 0 | r :: _ -> r.r_t in
  let t_max = List.fold_left (fun m r -> max m r.r_t) t_min recs in
  let depth = Array.make n_rings 0 in
  let events = ref [] in
  let emit ?name ph t tid rest =
    let named = match name with Some n -> [ ("name", Json.String n) ] | None -> [] in
    let us = float_of_int (t - t_min) /. 1e3 in
    events :=
      Json.Assoc
        (named
        @ [ ("ph", Json.String ph); ("ts", Json.Float us); ("pid", Json.Int 1); ("tid", Json.Int tid) ]
        @ rest)
      :: !events
  in
  List.iter
    (fun r ->
      let name = Locks.Probe.(name (of_int r.r_id)) in
      if r.r_tag = tag_site then
        emit ~name "i" r.r_t r.r_tid
          [ ("s", Json.String "t"); ("args", Json.Assoc [ ("domain", Json.Int r.r_dom) ]) ]
      else if r.r_tag = tag_begin then begin
        depth.(r.r_tid) <- depth.(r.r_tid) + 1;
        emit ~name "B" r.r_t r.r_tid []
      end
      else if depth.(r.r_tid) > 0 then begin
        depth.(r.r_tid) <- depth.(r.r_tid) - 1;
        emit ~name "E" r.r_t r.r_tid []
      end)
    recs;
  for tid = 0 to n_rings - 1 do
    for _ = 1 to depth.(tid) do
      emit "E" t_max tid []
    done
  done;
  Json.Assoc
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ("reason", Json.String reason);
            ("recorded", Json.Int (recorded ()));
            ("retained", Json.Int (List.length recs));
            ("capacity_per_ring", Json.Int (capacity ()));
          ] );
    ]

let dump_to_file ~reason path = Json.write_file path (dump_json ~reason ())

(* ------------------------------------------------------------------ *)
(* The anomaly latch. *)

let latch_mutex = Mutex.create ()
let armed = ref None
let dumped = ref None (* (path, reason, major) *)

let arm_dump ~path =
  Mutex.lock latch_mutex;
  armed := Some path;
  dumped := None;
  Mutex.unlock latch_mutex

let disarm_dump () =
  Mutex.lock latch_mutex;
  armed := None;
  dumped := None;
  Mutex.unlock latch_mutex

let last_dump () =
  Mutex.lock latch_mutex;
  let v = Option.map (fun (p, r, _) -> (p, r)) !dumped in
  Mutex.unlock latch_mutex;
  v

let note_anomaly ?(major = true) ~reason () =
  Mutex.lock latch_mutex;
  let take =
    match (!armed, !dumped) with
    | None, _ -> None
    | Some path, None -> Some path
    | Some path, Some (_, _, was_major) ->
        if major && not was_major then Some path else None
  in
  (match take with
  | Some path -> dumped := Some (path, reason, major)
  | None -> ());
  Mutex.unlock latch_mutex;
  match take with
  | Some path -> ( try dump_to_file ~reason path with Sys_error _ -> ())
  | None -> ()
