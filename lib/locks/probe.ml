(* Slots are rows of a flat int array, one row per domain, padded to two
   cache lines so concurrent bumps never share a line.  Increments are
   plain (non-atomic) stores: each row is written by one domain only, and
   readers summing across rows tolerate a momentarily stale cell. *)

let n_rows = 128
let row_words = 16 (* 128 bytes: two lines on common hardware *)

(* cells within a row *)
let cas_retry_cell = 0
let backoff_cell = 1
let help_cell = 2
let n_cells = 3

let slots = Array.make (n_rows * row_words) 0

let enabled = ref false

let enable () = enabled := true
let disable () = enabled := false

let row () = ((Domain.self () :> int) land (n_rows - 1)) * row_words

let bump cell =
  if !enabled then begin
    let i = row () + cell in
    slots.(i) <- slots.(i) + 1
  end

let cas_retry () = bump cas_retry_cell
let backoff () = bump backoff_cell
let help () = bump help_cell

(* Labels: one table for every observer.  A name is written before
   [interned] publishes its id, and a full [names] is replaced by a copy
   twice its size, so [name] is a plain index without the lock; the
   mutex only orders interns. *)

type label = int

let intern_mutex = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names = Atomic.make (Array.make 64 "")
let interned = Atomic.make 0

let label s =
  Mutex.protect intern_mutex (fun () ->
      match Hashtbl.find_opt ids s with
      | Some id -> id
      | None ->
          let id = Atomic.get interned in
          if id = Array.length (Atomic.get names) then
            Atomic.set names (Array.append (Atomic.get names) (Array.make id ""));
          (Atomic.get names).(id) <- s;
          Hashtbl.add ids s id;
          Atomic.set interned (id + 1);
          id)

let name l = (Atomic.get names).(l)
let count () = Atomic.get interned
let of_int n = if n >= 0 && n < count () then n else invalid_arg "Probe.of_int"

(* Marks and their subscribers: one switch, one table.  [table] holds a
   handler per position; [active] is the installed ones in position
   order, rebuilt on every change, so a mark is one load while nothing
   listens and one loop over [active] otherwise.  A raising handler
   ends the loop, leaving later positions unrun. *)

type event = Site | Begin | End
type position = Flight | Chaos | Profile

let index = function Flight -> 0 | Chaos -> 1 | Profile -> 2
let table : (event -> label -> unit) option array = Array.make 3 None
let active : (event -> label -> unit) array ref = ref [||]
let marking = ref false

let refresh () =
  let hs =
    Array.fold_right (fun h hs -> match h with Some h -> h :: hs | None -> hs) table []
  in
  active := Array.of_list hs;
  marking := hs <> []

let subscribe p h =
  table.(index p) <- Some h;
  refresh ()

let unsubscribe p =
  table.(index p) <- None;
  refresh ()

let emit ev l =
  let hs = !active in
  for i = 0 to Array.length hs - 1 do
    hs.(i) ev l
  done

let site l = if !marking then emit Site l
let phase_begin l = if !marking then emit Begin l
let phase_end l = if !marking then emit End l

type counts = { cas_retries : int; backoffs : int; helps : int }

let read_row base =
  {
    cas_retries = slots.(base + cas_retry_cell);
    backoffs = slots.(base + backoff_cell);
    helps = slots.(base + help_cell);
  }

let local () = read_row (row ())

let totals () =
  let acc = ref { cas_retries = 0; backoffs = 0; helps = 0 } in
  for r = 0 to n_rows - 1 do
    let c = read_row (r * row_words) in
    acc :=
      {
        cas_retries = !acc.cas_retries + c.cas_retries;
        backoffs = !acc.backoffs + c.backoffs;
        helps = !acc.helps + c.helps;
      }
  done;
  !acc

let diff a b =
  {
    cas_retries = a.cas_retries - b.cas_retries;
    backoffs = a.backoffs - b.backoffs;
    helps = a.helps - b.helps;
  }

let reset () =
  for r = 0 to n_rows - 1 do
    for c = 0 to n_cells - 1 do
      slots.((r * row_words) + c) <- 0
    done
  done
