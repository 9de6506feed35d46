type result = {
  algorithm : string;
  pool : int;
  pairs_requested : int;
  pairs_done : int;
  exhausted : bool;
  completed : bool;
}

let run (module Q : Squeues.Intf.S) ?(procs = 12) ?(pool = 2_000) ?(pairs = 40_000)
    ?(stall_at = 200_000) ?(stall_duration = 20_000_000) () =
  let params =
    {
      Params.default with
      processors = procs;
      total_pairs = pairs;
      pool;
      bounded_pool = true;
    }
  in
  let victim = ref (-1) in
  let stall pid =
    if !victim < 0 then begin
      victim := pid;
      Some (stall_at, stall_duration)
    end
    else None
  in
  let m = Workload.run ~stall (module Q) params in
  {
    algorithm = m.Workload.algorithm;
    pool;
    pairs_requested = pairs;
    pairs_done = m.Workload.pairs_done;
    exhausted = m.Workload.exhausted_pool;
    completed = m.Workload.completed;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "%-18s pool=%d pairs=%d/%d %s" r.algorithm r.pool r.pairs_done
    r.pairs_requested
    (if r.exhausted then "POOL EXHAUSTED"
     else if r.completed then "completed"
     else "incomplete")

(* ------------------------------------------------------------------ *)
(* Live memory of the NATIVE queues — ROADMAP item 3's generalization
   of the paper's 64k free list: what does holding N items actually
   cost, and does steady-state churn allocate?

   Measured with the GC's own accounting: [live_words] after two full
   majors brackets the queue's creation and its fill, so the deltas are
   exact live-heap footprints (single domain, nothing else allocating).
   The steady-state churn figure is allocation (not liveness): words
   the GC hands out per enqueue/dequeue pair once the queue is warm —
   the number that decides whether a queue can run forever under a
   fixed budget. *)

let word_bytes = Sys.word_size / 8

let live_bytes () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * word_bytes

type footprint = {
  queue : string;
  elements : int;
  baseline_bytes : int;  (* the empty queue, as created *)
  footprint_bytes : int;  (* the queue holding [elements] items *)
  bytes_per_element : float;
  steady_words_per_pair : float;
}

let steady_pairs = 10_000

(* Fill to [elements] or to the first refusal (a bounded ring holds
   what its enforced capacity allows), then churn dequeue-first so a
   full ring stays full; an unbounded queue never refuses. *)
let footprint (module Q : Core.Queue_intf.BOUNDED) ?(elements = 1024) () =
  let before = live_bytes () in
  let q = Q.create ~capacity:elements () in
  let baseline_bytes = live_bytes () - before in
  let n = ref 0 in
  while !n < elements && Q.try_enqueue q !n do
    incr n
  done;
  let footprint_bytes = live_bytes () - before in
  let a0 = Gc.allocated_bytes () in
  for i = 1 to steady_pairs do
    ignore (Q.try_dequeue q);
    ignore (Q.try_enqueue q i)
  done;
  let a1 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity q);
  {
    queue = Q.name;
    elements = !n;
    baseline_bytes;
    footprint_bytes;
    bytes_per_element =
      float_of_int (footprint_bytes - baseline_bytes) /. float_of_int !n;
    steady_words_per_pair =
      (a1 -. a0) /. float_of_int word_bytes /. float_of_int steady_pairs;
  }

let pp_footprint fmt r =
  Format.fprintf fmt
    "%-18s %5d items: %8d B empty, %8d B full (%6.1f B/item), steady %5.1f \
     words/pair"
    r.queue r.elements r.baseline_bytes r.footprint_bytes r.bytes_per_element
    r.steady_words_per_pair

let footprint_json r =
  Obs.Json.Assoc
    [
      ("queue", Obs.Json.String r.queue);
      ("elements", Obs.Json.Int r.elements);
      ("baseline_bytes", Obs.Json.Int r.baseline_bytes);
      ("footprint_bytes", Obs.Json.Int r.footprint_bytes);
      ("bytes_per_element", Obs.Json.Float r.bytes_per_element);
      ("steady_words_per_pair", Obs.Json.Float r.steady_words_per_pair);
    ]

(* ------------------------------------------------------------------ *)
(* Hazard-pointer reclamation lag under stall injection.

   Two domains churn the HP queue while the chaos layer injects seeded
   delays at the probe sites — including between a hazard publication
   and its validation, exactly the window during which a stalled peer
   blocks reclamation.  The main domain samples its own retired-list
   length after every pair; the high-water mark is the reclamation lag:
   how many dead nodes the budget must absorb while a peer stalls. *)

type hp_lag = {
  ops : int;  (* total pairs across both domains *)
  delays : int;  (* chaos perturbations actually injected *)
  max_pending : int;  (* high-water retired-but-unreclaimed, main domain *)
  final_pending : int;
  final_pool : int;  (* free-list length once both domains quiesce *)
}

let hp_reclamation_lag ?(ops = 20_000) ?(seed = 0x6d656d4cL (* "memL" *)) () =
  let module Q = Core.Ms_queue_hp in
  let q : int Q.t = Q.create () in
  Obs.Chaos.reset_hits ();
  Obs.Chaos.with_enabled ~seed (fun () ->
      let max_pending = ref 0 in
      let other () =
        for i = 1 to ops do
          Q.enqueue q i;
          ignore (Q.dequeue q)
        done
      in
      let d = Domain.spawn other in
      for i = 1 to ops do
        Q.enqueue q (-i);
        ignore (Q.dequeue q);
        let p = Q.pending_reclamation q in
        if p > !max_pending then max_pending := p
      done;
      Domain.join d;
      {
        ops = 2 * ops;
        delays = Obs.Chaos.hits ();
        max_pending = !max_pending;
        final_pending = Q.pending_reclamation q;
        final_pool = Q.pool_size q;
      })

let pp_hp_lag fmt r =
  Format.fprintf fmt
    "ms-hp: %d pairs, %d injected stalls: max %d retired-unreclaimed \
     (final %d, pool %d)"
    r.ops r.delays r.max_pending r.final_pending r.final_pool

let hp_lag_json r =
  Obs.Json.Assoc
    [
      ("queue", Obs.Json.String "ms-hp");
      ("ops", Obs.Json.Int r.ops);
      ("delays", Obs.Json.Int r.delays);
      ("max_pending", Obs.Json.Int r.max_pending);
      ("final_pending", Obs.Json.Int r.final_pending);
      ("final_pool", Obs.Json.Int r.final_pool);
    ]

(* ------------------------------------------------------------------ *)
(* Simulated free-list reclamation lag under a planned stall.

   The §1 experiment's quantitative face: run the workload on an
   UNbounded pool prefilled with [pool] nodes while one victim stalls,
   and count the heap fallbacks ("pool.heap_alloc") — each one is a
   moment the free list was empty, i.e. reclamation had fallen [pool]
   nodes behind.  MS recycles dequeued nodes immediately, so its count
   stays near zero; Valois's stalled process pins every node enqueued
   after the one it holds, so the count grows with the stall.
   Deterministic per seed, like every simulator figure. *)

type sim_lag = {
  algorithm : string;
  pool : int;
  pairs : int;
  heap_allocs : int;
  completed : bool;
}

let sim_reclamation_lag (module Q : Squeues.Intf.S) ?(procs = 8) ?(pool = 64)
    ?(pairs = 20_000) ?(stall_at = 100_000) ?(stall_duration = 5_000_000) () =
  let params =
    {
      Params.default with
      processors = procs;
      total_pairs = pairs;
      pool;
      bounded_pool = false;
    }
  in
  let victim = ref (-1) in
  let stall pid =
    if !victim < 0 then begin
      victim := pid;
      Some (stall_at, stall_duration)
    end
    else None
  in
  let m = Workload.run ~stall (module Q) params in
  {
    algorithm = m.Workload.algorithm;
    pool;
    pairs;
    heap_allocs = Sim.Stats.counter m.Workload.stats "pool.heap_alloc";
    completed = m.Workload.completed;
  }

let pp_sim_lag fmt r =
  Format.fprintf fmt
    "%-18s pool=%d pairs=%d: %d heap fallbacks past the free list%s"
    r.algorithm r.pool r.pairs r.heap_allocs
    (if r.completed then "" else " [incomplete]")

let sim_lag_json r =
  Obs.Json.Assoc
    [
      ("queue", Obs.Json.String r.algorithm);
      ("pool", Obs.Json.Int r.pool);
      ("pairs", Obs.Json.Int r.pairs);
      ("heap_allocs", Obs.Json.Int r.heap_allocs);
      ("completed", Obs.Json.Bool r.completed);
    ]
