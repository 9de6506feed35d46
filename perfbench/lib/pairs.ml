(* pairs: the paper's net time per enqueue;dequeue pair at its
   one-processor point, measured at each rung of the stack.

   A closed loop in one domain: two domains in a closed loop are
   bimodal on a two-core host, so contention is left to [serve] and
   the simulator.  Every rung keeps a backlog, so no call refuses, and
   values must dequeue in exactly the order they were enqueued.  Each
   rung runs on its own queue; rungs are interleaved trial by trial so
   host drift lands on all of them alike.  A rung's time is its fastest
   trial.  A layer's marginal cost is its rung minus the rung it
   wraps. *)

open Common

let backlog = 256
let capacity = 1024
let trial_pairs = 32_768
let warmup_pairs = 20_000
let words_pairs = 10_000

(* Seeded payloads, cycled; a FIFO violation dequeues the wrong one. *)
type st = {
  vals : int array;
  mask : int;
  mutable e : int;
  mutable d : int;
  mutable bad : int;
}

let next st = st.vals.(st.e land st.mask)

let got st v =
  if v <> st.vals.(st.d land st.mask) then st.bad <- st.bad + 1;
  st.d <- st.d + 1

let refused st = st.bad <- st.bad + 1

type rung = {
  key : string;
  st : st;
  enq : unit -> unit;
  deq : unit -> unit;
  empty : unit -> bool;
  around : (unit -> unit) -> unit;  (** observers switched on for a trial *)
}

let plain f = f ()

let rung ?(around = plain) key st ~enq ~deq ~empty =
  { key; st; enq; deq; empty; around }

let bounded (module Q : Core.Queue_intf.BOUNDED) ?around key st =
  let q = Q.create ~capacity () in
  rung ?around key st
    ~enq:(fun () -> if Q.try_enqueue q (next st) then st.e <- st.e + 1 else refused st)
    ~deq:(fun () -> match Q.try_dequeue q with Some v -> got st v | None -> refused st)
    ~empty:(fun () -> Q.is_empty q)

let unbounded (module Q : Core.Queue_intf.S) key st =
  let q = Q.create () in
  rung key st
    ~enq:(fun () ->
      Q.enqueue q (next st);
      st.e <- st.e + 1)
    ~deq:(fun () -> match Q.dequeue q with Some v -> got st v | None -> refused st)
    ~empty:(fun () -> Q.is_empty q)

module Instrumented_scq = Obs.Instrumented.Make_bounded (Core.Scq_queue)
module Resilient_scq = Resilience.Resilient.Make_bounded (Core.Scq_queue)
module Two_lock_ttas = Core.Two_lock_queue.Make_lock (Locks.Ttas_lock)
module F = Fabric.Queue_fabric

let resilient key st =
  let q = Resilient_scq.create ~capacity () in
  rung key st
    ~enq:(fun () ->
      match Resilient_scq.try_enqueue q (next st) with
      | Ok () -> st.e <- st.e + 1
      | Error _ -> refused st)
    ~deq:(fun () ->
      match Resilient_scq.try_dequeue q with Ok v -> got st v | Error _ -> refused st)
    ~empty:(fun () -> Core.Scq_queue.is_empty (Resilient_scq.queue q))

let fabric ?around ~shards key st =
  let q = F.create ~config:{ F.default_config with shards } () in
  rung ?around key st
    ~enq:(fun () ->
      match F.try_enqueue q (next st) with
      | Ok () -> st.e <- st.e + 1
      | Error _ -> refused st)
    ~deq:(fun () -> match F.try_dequeue q with Ok v -> got st v | Error _ -> refused st)
    ~empty:(fun () -> F.is_empty q)

let with_metrics f = Obs.Control.with_enabled f

let with_flight f =
  Obs.Flight.enable ();
  Fun.protect ~finally:Obs.Flight.disable f

(* The rungs, bottom up.  The untraced pass times only the ones its
   end-to-end metric and table need. *)
let rungs =
  [
    ("core.scq", fun key st -> bounded (module Core.Scq_queue) key st);
    ("core.ms", fun key st -> unbounded (module Core.Ms_queue) key st);
    ("core.two_lock", fun key st -> unbounded (module Two_lock_ttas) key st);
    ("obs.instrumented_off", fun key st -> bounded (module Instrumented_scq) key st);
    ( "obs.instrumented_on",
      fun key st -> bounded (module Instrumented_scq) ~around:with_metrics key st );
    ("resilience", resilient);
    ("fabric.route", fun key st -> fabric ~shards:1 key st);
    ("fabric", fun key st -> fabric ~shards:F.default_config.shards key st);
    ( "obs.flight",
      fun key st ->
        fabric ~around:with_flight ~shards:F.default_config.shards key st );
  ]

let untraced = [ "core.ms"; "core.two_lock"; "fabric" ]

let ladder ~traced vals =
  List.filter_map
    (fun (key, make) ->
      if traced || List.mem key untraced then
        Some (make key { vals; mask = Array.length vals - 1; e = 0; d = 0; bad = 0 })
      else None)
    rungs

let run_pairs r n =
  r.around (fun () ->
      for _ = 1 to n do
        r.enq ();
        r.deq ()
      done)

let n_round = Spans.intern "pairs.round"
let trial_names = List.map (fun (key, _) -> (key, Spans.intern ("pairs." ^ key))) rungs

(* Minor-heap words per pair over a fixed count: exact and repeatable. *)
let words r =
  let w0 = Gc.minor_words () in
  run_pairs r words_pairs;
  (Gc.minor_words () -. w0) /. float_of_int words_pairs

let run ctx =
  let traced = ctx.spans <> None in
  let vals =
    Array.init 4096 (fun i ->
        Int64.to_int (Int64.shift_right_logical (derive ctx.seed i) 2))
  in
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 16 in
  let word_counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let setups = ref [] and attempted = ref 0 and bad = ref 0 and heap = ref None in
  let ok : (string, bool) Hashtbl.t = Hashtbl.create 16 in
  let budget = ctx.seconds /. float_of_int rounds in
  for round = 0 to rounds - 1 do
    let rungs, setup_ns =
      timed (fun () ->
          let rungs = ladder ~traced vals in
          List.iter
            (fun r ->
              for _ = 1 to backlog do
                r.enq ()
              done;
              run_pairs r warmup_pairs)
            rungs;
          rungs)
    in
    setups := float_of_int setup_ns /. 1e9 :: !setups;
    attempted := !attempted + (List.length rungs * warmup_pairs);
    span ctx ~name:n_round ~parent:Spans.none ~item:round (fun parent ->
        if traced && round = 0 then
          List.iter
            (fun r ->
              Hashtbl.replace word_counts r.key (words r);
              attempted := !attempted + words_pairs)
            rungs;
        let stop = now_ns () + int_of_float (budget *. 1e9) in
        let trial = ref 0 in
        while !trial = 0 || now_ns () < stop do
          List.iter
            (fun r ->
              let (), ns =
                timed (fun () ->
                    span ctx ~name:(List.assoc r.key trial_names) ~parent ~item:!trial
                      (fun _ -> run_pairs r trial_pairs))
              in
              let prev = Option.value ~default:[] (Hashtbl.find_opt samples r.key) in
              Hashtbl.replace samples r.key
                ((float_of_int ns /. float_of_int trial_pairs) :: prev);
              attempted := !attempted + trial_pairs)
            rungs;
          incr trial
        done);
    (* Drain: the backlog must come back in order, then nothing. *)
    List.iter
      (fun r ->
        for _ = 1 to backlog do
          r.deq ()
        done;
        let conserved = r.st.e = r.st.d && r.empty () in
        bad := !bad + r.st.bad;
        let prev = Option.value ~default:true (Hashtbl.find_opt ok r.key) in
        Hashtbl.replace ok r.key (prev && conserved && r.st.bad = 0))
      rungs;
    if round = 0 then heap := Some (heap_peak_mb ())
  done;
  let ns key = fastest (Hashtbl.find samples key) in
  let w key = Hashtbl.find word_counts key in
  let layers =
    if not traced then []
    else
      let m = metric in
      [
        m "core.scq.pair_ns" "ns" (ns "core.scq");
        m "core.scq.words_per_pair" "words" (w "core.scq");
        m "core.ms.pair_ns" "ns" (ns "core.ms");
        m "core.ms.words_per_pair" "words" (w "core.ms");
        m "core.two_lock.pair_ns" "ns" (ns "core.two_lock");
        m "core.two_lock.words_per_pair" "words" (w "core.two_lock");
        m "obs.instrumented_off.marginal_ns" "ns"
          (ns "obs.instrumented_off" -. ns "core.scq");
        m "obs.instrumented_on.marginal_ns" "ns"
          (ns "obs.instrumented_on" -. ns "core.scq");
        m "obs.instrumented_on.words_per_pair" "words"
          (w "obs.instrumented_on" -. w "core.scq");
        m "resilience.marginal_ns" "ns" (ns "resilience" -. ns "core.scq");
        m "resilience.words_per_pair" "words" (w "resilience" -. w "core.scq");
        m "fabric.route.marginal_ns" "ns" (ns "fabric.route" -. ns "resilience");
        m "fabric.shards.marginal_ns" "ns" (ns "fabric" -. ns "fabric.route");
        m "fabric.words_per_pair" "words" (w "fabric" -. w "resilience");
        m "obs.flight.marginal_ns" "ns" (ns "obs.flight" -. ns "fabric");
        m "obs.flight.words_per_pair" "words" (w "obs.flight" -. w "fabric");
      ]
  in
  {
    checks =
      List.filter_map
        (fun (key, _) ->
          Option.map
            (fun v -> (key ^ ": FIFO order and conservation", v))
            (Hashtbl.find_opt ok key))
        rungs;
    attempted = !attempted;
    failed = !bad;
    e2e =
      [
        metric "time_per_item_us" "us" (ns "fabric" /. 1e3);
        metric "setup_s" "s" (Stats.median !setups);
        Option.get !heap;
      ];
    layers;
    notes =
      [
        metric "ms_pair_ns" "ns" (ns "core.ms");
        metric "two_lock_pair_ns" "ns" (ns "core.two_lock");
        metric "fabric_pair_ns" "ns" (ns "fabric");
        metric "trials_per_rung" "count"
          (float_of_int (List.length (Hashtbl.find samples "fabric")));
        metric "failed_frac" "frac" (float_of_int !bad /. float_of_int !attempted);
      ];
  }
