(* Per-site contention profiles and per-phase spans, one subscriber of
   the Locks.Probe mark stream.  Each label has one [Counter] of marks
   and one [Histogram] of attributed spans per kind (site or phase),
   installed by the label's first mark; a domain's clock anchor and
   open-span stack live in its [Rows] row, installed by its first mark.
   Enabling the profiler adds no cross-domain coherence traffic beyond
   the clock reads.  Aggregation happens at snapshot time and is
   accurate once writers are quiescent — the same contract as Probe and
   Histogram. *)

let n_slots = 64
let max_phase_depth = 32

(* A domain's row: the clock at its previous mark (0 = none), its span
   depth, then the start times of its open spans. *)
let last_cell = 0
let depth_cell = 1
let first_start = 2
let row_width = first_start + max_phase_depth

type stat = { l : Locks.Probe.label; marks : Counter.t; hist : Histogram.t }

(* Stats by label id, one table per kind.  A table only grows, under
   [install_mutex]; a mark reads it without the lock and takes the lock
   only for a label it has not seen. *)
let sites : stat option array ref = ref [||]
let phases : stat option array ref = ref [||]
let rows = ref (Rows.create ~slots:n_slots)
let install_mutex = Mutex.create ()

let install table (l : Locks.Probe.label) =
  Mutex.protect install_mutex (fun () ->
      let id = (l :> int) in
      let a = !table in
      let a =
        if id < Array.length a then a
        else begin
          let b = Array.make (max 64 (2 * id)) None in
          Array.blit a 0 b 0 (Array.length a);
          b
        end
      in
      match a.(id) with
      | Some s -> s
      | None ->
          let s = { l; marks = Counter.create (); hist = Histogram.create () } in
          a.(id) <- Some s;
          table := a;
          s)

let stat table (l : Locks.Probe.label) =
  let a = !table and id = (l :> int) in
  match if id < Array.length a then a.(id) else None with
  | Some s -> s
  | None -> install table l

(* A site is a point event: the cycles attributed to it are the span
   since the domain's previous mark (site, phase begin or phase end) —
   i.e. the cost of the code region that ends at this site.  The first
   mark after enable/reset anchors the clock and attributes nothing. *)
let on_site row l now =
  let s = stat sites l in
  Counter.incr s.marks;
  let last = row.(last_cell) in
  if last <> 0 && now >= last then Histogram.record s.hist (now - last)

let on_begin row now =
  let d = row.(depth_cell) in
  if d < max_phase_depth then row.(first_start + d) <- now;
  row.(depth_cell) <- d + 1

(* Recorded under the label the end names: tolerant of mismatched
   brackets, identical to the opener when spans nest properly. *)
let on_end row l now =
  let d = row.(depth_cell) - 1 in
  if d >= 0 then begin
    row.(depth_cell) <- d;
    if d < max_phase_depth then begin
      let s = stat phases l in
      Counter.incr s.marks;
      let dt = now - row.(first_start + d) in
      if dt >= 0 then Histogram.record s.hist dt
    end
  end

let on_mark ev l =
  let row = Rows.mine !rows ~width:row_width in
  let now = Clock.now_ns () in
  (match ev with
  | Locks.Probe.Site -> on_site row l now
  | Locks.Probe.Begin -> on_begin row now
  | Locks.Probe.End -> on_end row l now);
  row.(last_cell) <- now

let on = ref false

let enabled () = !on

let enable () =
  if not !on then begin
    on := true;
    Locks.Probe.subscribe Locks.Probe.Profile on_mark
  end

let disable () =
  if !on then begin
    on := false;
    Locks.Probe.unsubscribe Locks.Probe.Profile
  end

let reset () =
  sites := [||];
  phases := [||];
  rows := Rows.create ~slots:n_slots

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type entry = {
  label : string;
  events : int;
  cycles : int;
  hist : Histogram.t; (* a merged copy; safe to keep after reset *)
}

type snapshot = { sites : entry list; phases : entry list }

let p50 e = Histogram.percentile e.hist 50.
let p99 e = Histogram.percentile e.hist 99.
let p999 e = Histogram.p999 e.hist

let by_cycles a b =
  match compare b.cycles a.cycles with 0 -> compare a.label b.label | c -> c

let entries table =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some (s : stat) ->
          let hist = Histogram.merge s.hist (Histogram.create ()) in
          {
            label = Locks.Probe.name s.l;
            events = Counter.value s.marks;
            cycles = Histogram.sum hist;
            hist;
          }
          :: acc)
    [] !table
  |> List.sort by_cycles

let snapshot () = { sites = entries sites; phases = entries phases }

let diff_entries after before =
  after
  |> List.map (fun e ->
         match List.find_opt (fun b -> b.label = e.label) before with
         | None -> e
         | Some b ->
             {
               e with
               events = max 0 (e.events - b.events);
               cycles = max 0 (e.cycles - b.cycles);
             })
  |> List.filter (fun e -> e.events > 0)
  |> List.sort by_cycles

let diff after before =
  {
    sites = diff_entries after.sites before.sites;
    phases = diff_entries after.phases before.phases;
  }

let top ?(n = 10) entries =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | e :: rest -> e :: take (k - 1) rest
  in
  take n entries

let entry_json e =
  Json.Assoc
    [
      ("label", Json.String e.label);
      ("events", Json.Int e.events);
      ("cycles", Json.Int e.cycles);
      ("p50", (match p50 e with Some v -> Json.Int v | None -> Json.Null));
      ("p99", (match p99 e with Some v -> Json.Int v | None -> Json.Null));
      ("p999", (match p999 e with Some v -> Json.Int v | None -> Json.Null));
      ("latency", Histogram.to_json e.hist);
    ]

let to_json s =
  Json.Assoc
    [
      ("sites", Json.List (List.map entry_json s.sites));
      ("phases", Json.List (List.map entry_json s.phases));
    ]

let pp_entries fmt title entries =
  if entries <> [] then begin
    Format.fprintf fmt "@[<v>%s@ %-28s %12s %14s %10s %10s %10s@ " title
      "label" "events" "cycles(ns)" "p50" "p99" "p999";
    List.iteri
      (fun i e ->
        if i > 0 then Format.fprintf fmt "@ ";
        let opt = function Some v -> string_of_int v | None -> "-" in
        Format.fprintf fmt "%-28s %12d %14d %10s %10s %10s" e.label e.events
          e.cycles
          (opt (p50 e)) (opt (p99 e)) (opt (p999 e)))
      entries;
    Format.fprintf fmt "@]@."
  end

let pp fmt s =
  pp_entries fmt "contention sites (hottest first)" s.sites;
  pp_entries fmt "operation phases (hottest first)" s.phases
