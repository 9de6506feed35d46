(* The flight recorder: an always-on black box of the queues' last
   moments.  Each domain logs fixed-size binary records — interned site
   id, monotonic timestamp, event tag, raw domain id — into its own
   overwrite-oldest ring (plain stores, one writer per ring row), fed
   from the [Locks.Probe] flight hook slots.  When nothing is enabled
   the queues pay only Probe's one-load-and-branch disabled path; when
   enabled, the per-event cost is one clock read, a physical-equality
   cache probe for the label, and four array stores.

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

(* ------------------------------------------------------------------ *)
(* Site-label interning.  The global table is mutex-protected and only
   reached on a cache miss; the hot path probes a 16-slot per-ring-row
   cache by physical equality — site labels are literal strings, so the
   same call site always presents the same physical string. *)

let intern_mutex = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 64 "")
let n_names = ref 0

let intern_slow label =
  Mutex.lock intern_mutex;
  let id =
    match Hashtbl.find_opt table label with
    | Some id -> id
    | None ->
        let id = !n_names in
        if id >= Array.length !names then begin
          let bigger = Array.make (2 * Array.length !names) "" in
          Array.blit !names 0 bigger 0 id;
          names := bigger
        end;
        !names.(id) <- label;
        Hashtbl.add table label id;
        incr n_names;
        id
  in
  Mutex.unlock intern_mutex;
  id

(* Ring row [r]'s cache: [cache_slots] (label, id) pairs, replaced
   round-robin on a miss.  Allocated by the row's first event, like the
   ring itself, so a program that never records allocates none; it
   outlives [reset], since interned ids never change.  Domains that
   collide modulo [n_rings] share it, and if two install it at once the
   loser's entries are only re-interned on its next miss. *)
type cache = { labels : string array; ids : int array; mutable cursor : int }

let cache_slots = 16
let no_cache = { labels = [||]; ids = [||]; cursor = 0 }
let caches = Array.make n_rings no_cache

(* Slot [i] onward of cache [c].  A top-level function, so the
   per-event path builds no closure. *)
let rec probe c label i =
  if i >= cache_slots then begin
    let id = intern_slow label in
    let k = c.cursor land (cache_slots - 1) in
    c.cursor <- k + 1;
    (* id before label: a colliding domain matching the new label then
       reads an id that is already the matching one *)
    c.ids.(k) <- id;
    c.labels.(k) <- label;
    id
  end
  else if c.labels.(i) == label then c.ids.(i)
  else probe c label (i + 1)

let install_cache r =
  let c = { labels = Array.make cache_slots ""; ids = Array.make cache_slots 0; cursor = 0 } in
  caches.(r) <- c;
  c

let intern r label =
  let c = caches.(r) in
  probe (if c != no_cache then c else install_cache r) label 0

let record tag label =
  let d = (Domain.self () :> int) in
  (* the ring first: its loads overlap the label probe and clock read *)
  let c = !cap in
  let ring = Rows.row !rings ~width:(first_rec + (c * rec_words)) d in
  let id = intern (d land (n_rings - 1)) label in
  let t = Int64.to_int (Monotonic_clock.now ()) in
  let h = ring.(head_cell) in
  let base = first_rec + ((h land (c - 1)) * rec_words) in
  ring.(base + id_cell) <- id;
  ring.(base + t_cell) <- t;
  ring.(base + tag_cell) <- tag;
  ring.(base + dom_cell) <- d;
  ring.(head_cell) <- h + 1

let enabled () = !on

let enable () =
  if not !on then begin
    on := true;
    Locks.Probe.set_flight_site_hook (fun label -> record tag_site label);
    Locks.Probe.set_flight_phase_hook (fun ~enter label ->
        record (if enter then tag_begin else tag_end) label)
  end

let disable () =
  if !on then begin
    Locks.Probe.clear_flight_site_hook ();
    Locks.Probe.clear_flight_phase_hook ();
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

let name_of id =
  if id >= 0 && id < !n_names then !names.(id) else Printf.sprintf "site#%d" id

let dump_json ~reason () =
  let recs = collect () in
  let t_min = match recs with [] -> 0 | r :: _ -> r.r_t in
  let t_max = List.fold_left (fun m r -> max m r.r_t) t_min recs in
  let us t = float_of_int (t - t_min) /. 1e3 in
  let depth = Array.make n_rings 0 in
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iter
    (fun r ->
      let name = name_of r.r_id in
      if r.r_tag = tag_site then
        emit
          (Json.Assoc
             [
               ("name", Json.String name);
               ("ph", Json.String "i");
               ("ts", Json.Float (us r.r_t));
               ("pid", Json.Int 1);
               ("tid", Json.Int r.r_tid);
               ("s", Json.String "t");
               ("args", Json.Assoc [ ("domain", Json.Int r.r_dom) ]);
             ])
      else if r.r_tag = tag_begin then begin
        depth.(r.r_tid) <- depth.(r.r_tid) + 1;
        emit
          (Json.Assoc
             [
               ("name", Json.String name);
               ("ph", Json.String "B");
               ("ts", Json.Float (us r.r_t));
               ("pid", Json.Int 1);
               ("tid", Json.Int r.r_tid);
             ])
      end
      else if depth.(r.r_tid) > 0 then begin
        depth.(r.r_tid) <- depth.(r.r_tid) - 1;
        emit
          (Json.Assoc
             [
               ("name", Json.String name);
               ("ph", Json.String "E");
               ("ts", Json.Float (us r.r_t));
               ("pid", Json.Int 1);
               ("tid", Json.Int r.r_tid);
             ])
      end)
    recs;
  for tid = 0 to n_rings - 1 do
    for _ = 1 to depth.(tid) do
      emit
        (Json.Assoc
           [
             ("ph", Json.String "E");
             ("ts", Json.Float (us t_max));
             ("pid", Json.Int 1);
             ("tid", Json.Int tid);
           ])
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
