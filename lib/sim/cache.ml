(* Sharer sets are bit masks over processors, so the model supports up to
   62 simulated processors on a 64-bit host — far beyond the paper's 12. *)

type line_stat = {
  mutable l_hits : int;
  mutable l_misses : int;
  mutable l_invalidations : int;
  mutable l_cycles : int;  (* every cycle any access to this line cost *)
  mutable l_sharer_joins : int;  (* read misses that added a new sharer *)
  l_reads : int array;  (* per processor *)
  l_writes : int array;  (* per processor, writes and RMWs *)
}

type line_report = {
  line : int;
  label : string option;
  hits : int;
  misses : int;
  invalidations : int;
  cycles : int;
  sharer_joins : int;
  reads : int;
  writes : int;
  top_reader : int option;
  top_writer : int option;
  readers : int list;
  writers : int list;
}

type t = {
  cfg : Config.t;
  mutable masks : int array;
      (* line -> sharer bit mask, 0 past the end: the coherence
         directory, grown on demand to cover the highest line touched *)
  labels : (int, string) Hashtbl.t;  (* line -> symbolic name *)
  mutable per_line : (int, line_stat) Hashtbl.t option;  (* None: disabled *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable last_hit : bool;
}

let create cfg =
  if cfg.Config.n_processors > 62 then invalid_arg "Cache.create: too many processors";
  {
    cfg;
    masks = Array.make 1024 0;
    labels = Hashtbl.create 64;
    per_line = None;
    hits = 0;
    misses = 0;
    invalidations = 0;
    last_hit = true;
  }

let line t addr = (addr - 1) / t.cfg.Config.line_words

let enable_line_stats t =
  match t.per_line with
  | Some _ -> ()
  | None -> t.per_line <- Some (Hashtbl.create 4096)

let line_stats_enabled t = t.per_line <> None

let label_range t ~addr ~words label =
  if words <= 0 then invalid_arg "Cache.label_range";
  for l = line t addr to line t (addr + words - 1) do
    (* first label wins: allocations are line-exclusive (the heap pads
       them), so a collision only happens when one allocation is
       labeled twice — keep the original name *)
    if not (Hashtbl.mem t.labels l) then Hashtbl.add t.labels l label
  done

let label_of_line t l = Hashtbl.find_opt t.labels l

(* A line below 0 (an address below 1) fails the array's bounds check:
   the engine validates addresses against [Memory] first, so only a
   direct caller can get here with one. *)
let sharers t line =
  if line < Array.length t.masks then t.masks.(line) else 0

let set_sharers t line mask =
  let n = Array.length t.masks in
  if line >= n then begin
    let masks = Array.make (max (2 * n) (line + 1)) 0 in
    Array.blit t.masks 0 masks 0 n;
    t.masks <- masks
  end;
  t.masks.(line) <- mask

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let stat_of t l =
  match t.per_line with
  | None -> None
  | Some table -> (
      match Hashtbl.find_opt table l with
      | Some s -> Some s
      | None ->
          let p = t.cfg.Config.n_processors in
          let s =
            {
              l_hits = 0;
              l_misses = 0;
              l_invalidations = 0;
              l_cycles = 0;
              l_sharer_joins = 0;
              l_reads = Array.make p 0;
              l_writes = Array.make p 0;
            }
          in
          Hashtbl.add table l s;
          Some s)

let read_cost t ~proc ~addr =
  let addr = line t addr in
  let mask = sharers t addr in
  let bit = 1 lsl proc in
  let hit = mask land bit <> 0 in
  let cost =
    if hit then begin
      t.hits <- t.hits + 1;
      t.last_hit <- true;
      t.cfg.Config.cache_hit_cost
    end
    else begin
      t.misses <- t.misses + 1;
      t.last_hit <- false;
      set_sharers t addr (mask lor bit);
      t.cfg.Config.cache_miss_cost
    end
  in
  (match stat_of t addr with
  | None -> ()
  | Some s ->
      s.l_reads.(proc) <- s.l_reads.(proc) + 1;
      s.l_cycles <- s.l_cycles + cost;
      if hit then s.l_hits <- s.l_hits + 1
      else begin
        s.l_misses <- s.l_misses + 1;
        s.l_sharer_joins <- s.l_sharer_joins + 1
      end);
  cost

let write_cost_with t ~proc ~addr ~extra =
  let addr = line t addr in
  let mask = sharers t addr in
  let bit = 1 lsl proc in
  let sole = mask = bit in
  let remote = if sole then 0 else popcount (mask land lnot bit) in
  let cost =
    if sole then begin
      (* Sole owner: silent upgrade / hit. *)
      t.hits <- t.hits + 1;
      t.last_hit <- true;
      t.cfg.Config.cache_hit_cost + extra
    end
    else begin
      t.misses <- t.misses + 1;
      t.last_hit <- false;
      t.invalidations <- t.invalidations + remote;
      set_sharers t addr bit;
      t.cfg.Config.cache_miss_cost + (remote * t.cfg.Config.invalidate_cost) + extra
    end
  in
  (match stat_of t addr with
  | None -> ()
  | Some s ->
      s.l_writes.(proc) <- s.l_writes.(proc) + 1;
      s.l_cycles <- s.l_cycles + cost;
      if sole then s.l_hits <- s.l_hits + 1
      else begin
        s.l_misses <- s.l_misses + 1;
        s.l_invalidations <- s.l_invalidations + remote
      end);
  cost

let write_cost t ~proc ~addr = write_cost_with t ~proc ~addr ~extra:0

let rmw_cost t ~proc ~addr =
  write_cost_with t ~proc ~addr ~extra:t.cfg.Config.atomic_extra_cost

let last_hit t = t.last_hit
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations

let argmax a =
  let best = ref None in
  Array.iteri
    (fun i v ->
      if v > 0 then
        match !best with
        | Some (_, bv) when bv >= v -> ()
        | _ -> best := Some (i, v))
    a;
  Option.map fst !best

let sum = Array.fold_left ( + ) 0

let nonzero_procs a =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) > 0 then acc := i :: !acc
  done;
  !acc

let line_report t =
  match t.per_line with
  | None -> []
  | Some table ->
      Hashtbl.fold
        (fun l (s : line_stat) acc ->
          {
            line = l;
            label = label_of_line t l;
            hits = s.l_hits;
            misses = s.l_misses;
            invalidations = s.l_invalidations;
            cycles = s.l_cycles;
            sharer_joins = s.l_sharer_joins;
            reads = sum s.l_reads;
            writes = sum s.l_writes;
            top_reader = argmax s.l_reads;
            top_writer = argmax s.l_writes;
            readers = nonzero_procs s.l_reads;
            writers = nonzero_procs s.l_writes;
          }
          :: acc)
        table []
      |> List.sort (fun a b ->
             match compare b.cycles a.cycles with
             | 0 -> compare a.line b.line
             | c -> c)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  match t.per_line with
  | None -> ()
  | Some table -> Hashtbl.reset table
