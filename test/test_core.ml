(* Tests of the native queues (lib/core, lib/baselines): sequential
   model-based checks (hand-written and qcheck), multi-domain stress,
   and the counted variant's free-list/observability extras. *)

let all_queues : (string * (module Core.Queue_intf.S)) list =
  [
    ("ms", (module Core.Ms_queue));
    ("ms-counted", (module Core.Ms_queue_counted));
    ("ms-hazard", (module Core.Ms_queue_hp));
    ("segmented", (module Core.Segmented_queue));
    ("two-lock", (module Core.Two_lock_queue));
    ("single-lock", (module Baselines.Single_lock_queue));
    ("mc", (module Baselines.Mc_queue));
    ("plj", (module Baselines.Plj_queue));
  ]

(* ------------------------------------------------------------------ *)
(* Sequential semantics *)

let run_ops (module Q : Core.Queue_intf.S) ops =
  let q = Q.create () in
  List.map
    (function
      | `Enq v ->
          Q.enqueue q v;
          `Enq
      | `Deq -> `Got (Q.dequeue q)
      | `Peek -> `Got (Q.peek q)
      | `Empty -> `Is (Q.is_empty q))
    ops

let run_model ops =
  let q = Queue.create () in
  List.map
    (function
      | `Enq v ->
          Queue.push v q;
          `Enq
      | `Deq -> `Got (Queue.take_opt q)
      | `Peek -> `Got (Queue.peek_opt q)
      | `Empty -> `Is (Queue.is_empty q))
    ops

let test_sequential name (module Q : Core.Queue_intf.S) () =
  let ops =
    [
      `Empty; `Deq; `Peek; `Enq 1; `Empty; `Peek; `Enq 2; `Enq 3; `Deq; `Peek;
      `Deq; `Deq; `Deq; `Empty; `Enq 4; `Peek; `Deq; `Empty;
    ]
  in
  if run_ops (module Q) ops <> run_model ops then
    Alcotest.failf "%s: sequential trace diverges from FIFO model" name

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           (4, map (fun v -> `Enq v) (int_range 0 1000));
           (4, return `Deq);
           (1, return `Peek);
           (1, return `Empty);
         ]))

let qcheck_sequential name (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:200 ~name:(name ^ " random ops match FIFO model")
    ops_gen (fun ops -> run_ops (module Q) ops = run_model ops)

(* ------------------------------------------------------------------ *)
(* Multi-domain stress: conservation, uniqueness, per-producer order *)

(* Each worker dequeues right after its own enqueue, so an element is
   always there to take; a worker still finding the queue empty after
   this long is waiting for one that was lost.  It gives up, and the
   test fails instead of spinning forever. *)
let stall_limit_s = 60.

exception Stalled

let stress (module Q : Core.Queue_intf.S) ~domains ~per =
  let q = Q.create () in
  let results = Array.make domains [] in
  let stalled = Atomic.make false in
  let gate = Atomic.make 0 in
  let body i () =
    Atomic.incr gate;
    while Atomic.get gate < domains do
      Domain.cpu_relax ()
    done;
    let got = ref [] in
    (try
       for k = 1 to per do
         Q.enqueue q ((i * 1_000_000) + k);
         let rec deq spins since =
           match Q.dequeue q with
           | Some v -> got := v :: !got
           | None ->
               if spins land 4095 = 0 && Unix.gettimeofday () -. since > stall_limit_s
               then raise Stalled;
               Domain.cpu_relax ();
               deq (spins + 1) since
         in
         deq 1 (Unix.gettimeofday ())
       done
     with Stalled -> Atomic.set stalled true);
    results.(i) <- !got
  in
  let ds = List.init domains (fun i -> Domain.spawn (body i)) in
  List.iter Domain.join ds;
  (Q.is_empty q, Atomic.get stalled, results)

let test_stress name (module Q : Core.Queue_intf.S) () =
  let domains = 4 and per = 2_000 in
  let empty_at_end, stalled, results = stress (module Q) ~domains ~per in
  if stalled then
    Alcotest.failf "%s: a worker found the queue empty for %.0f s: an element was lost"
      name stall_limit_s;
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) (name ^ " conservation") (domains * per) (List.length all);
  Alcotest.(check int)
    (name ^ " uniqueness")
    (domains * per)
    (List.length (List.sort_uniq compare all));
  Array.iter
    (fun l ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let p = v / 1_000_000 and s = v mod 1_000_000 in
          let prev = Option.value ~default:max_int (Hashtbl.find_opt seen p) in
          if s >= prev then Alcotest.failf "%s: producer order violated" name;
          Hashtbl.replace seen p s)
        l)
    results;
  Alcotest.(check bool) (name ^ " empty at end") true empty_at_end

(* ------------------------------------------------------------------ *)
(* MS queue specifics *)

let test_ms_length () =
  let q = Core.Ms_queue.create () in
  Alcotest.(check int) "empty" 0 (Core.Ms_queue.length q);
  for i = 1 to 10 do
    Core.Ms_queue.enqueue q i
  done;
  Alcotest.(check int) "ten" 10 (Core.Ms_queue.length q);
  ignore (Core.Ms_queue.dequeue q);
  Alcotest.(check int) "nine" 9 (Core.Ms_queue.length q)

let test_ms_value_not_retained () =
  (* the new dummy's payload is cleared so dequeued values are not
     retained by the queue *)
  let q = Core.Ms_queue.create () in
  let token = ref 0 in
  Core.Ms_queue.enqueue q token;
  Alcotest.(check bool) "dequeued" true
    (match Core.Ms_queue.dequeue q with Some r -> r == token | None -> false);
  (* the queue should not keep [token] alive; observable proxy: peek on
     the (empty) queue does not resurrect it *)
  Alcotest.(check bool) "empty" true (Core.Ms_queue.peek q = None)

let test_counted_counts_monotone () =
  let q = Core.Ms_queue_counted.create () in
  let t0 = Core.Ms_queue_counted.tail_count q in
  let h0 = Core.Ms_queue_counted.head_count q in
  for i = 1 to 5 do
    Core.Ms_queue_counted.enqueue q i
  done;
  for _ = 1 to 5 do
    ignore (Core.Ms_queue_counted.dequeue q)
  done;
  Alcotest.(check bool) "tail count grew" true (Core.Ms_queue_counted.tail_count q > t0);
  Alcotest.(check int) "head count = dequeues" (h0 + 5)
    (Core.Ms_queue_counted.head_count q)

let test_counted_pool_recycles () =
  let q = Core.Ms_queue_counted.create () in
  Alcotest.(check int) "empty pool initially" 0 (Core.Ms_queue_counted.pool_size q);
  for i = 1 to 8 do
    Core.Ms_queue_counted.enqueue q i
  done;
  for _ = 1 to 8 do
    ignore (Core.Ms_queue_counted.dequeue q)
  done;
  Alcotest.(check int) "eight nodes recycled" 8 (Core.Ms_queue_counted.pool_size q);
  (* further operations draw from the pool instead of allocating *)
  for i = 1 to 8 do
    Core.Ms_queue_counted.enqueue q i
  done;
  Alcotest.(check int) "pool drained by reuse" 0 (Core.Ms_queue_counted.pool_size q)

(* ------------------------------------------------------------------ *)
(* Treiber stack *)

let test_treiber_lifo () =
  let s = Core.Treiber_stack.create () in
  Alcotest.(check bool) "empty" true (Core.Treiber_stack.is_empty s);
  Core.Treiber_stack.push s 1;
  Core.Treiber_stack.push s 2;
  Core.Treiber_stack.push s 3;
  Alcotest.(check int) "length" 3 (Core.Treiber_stack.length s);
  Alcotest.(check (option int)) "peek" (Some 3) (Core.Treiber_stack.peek s);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Core.Treiber_stack.pop s);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Core.Treiber_stack.pop s);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Core.Treiber_stack.pop s);
  Alcotest.(check (option int)) "pop empty" None (Core.Treiber_stack.pop s)

let qcheck_treiber_model =
  QCheck2.Test.make ~count:200 ~name:"treiber random ops match LIFO model"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (oneof [ map (fun v -> `Push v) (int_range 0 100); return `Pop ]))
    (fun ops ->
      let s = Core.Treiber_stack.create () in
      let model = ref [] in
      List.for_all
        (function
          | `Push v ->
              Core.Treiber_stack.push s v;
              model := v :: !model;
              true
          | `Pop -> (
              let got = Core.Treiber_stack.pop s in
              match !model with
              | [] -> got = None
              | v :: rest ->
                  model := rest;
                  got = Some v))
        ops)

let test_treiber_concurrent () =
  let s = Core.Treiber_stack.create () in
  let domains = 4 and per = 2_000 in
  let popped = Array.make domains [] in
  let ds =
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            for k = 1 to per do
              Core.Treiber_stack.push s ((i * 1_000_000) + k);
              match Core.Treiber_stack.pop s with
              | Some v -> popped.(i) <- v :: popped.(i)
              | None -> Alcotest.fail "pop after own push returned None"
            done))
  in
  List.iter Domain.join ds;
  let all = Array.to_list popped |> List.concat in
  Alcotest.(check int) "conservation" (domains * per) (List.length all);
  Alcotest.(check int) "uniqueness" (domains * per)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "empty" true (Core.Treiber_stack.is_empty s)

(* ------------------------------------------------------------------ *)
(* Segmented queue batch claims at the segment rim.

   A batch claim is one fetch-and-add on the tail segment's [enq]
   index, so a claim issued near a full segment reaches past the rim.
   The contract is a PARTIAL claim: the in-segment slots [i ..
   capacity-1] take the batch's prefix and the overflow re-claims in a
   fresh segment — never a write past the rim, never a dropped or
   reordered element.  Exercised at every distance from the boundary,
   then raced against a single enqueuer parked on the same segment. *)

let test_segmented_batch_rim () =
  let module Q = Core.Segmented_queue in
  let cap = Q.segment_capacity in
  for prefill = max 0 (cap - 5) to cap - 1 do
    let q = Q.create () in
    for i = 1 to prefill do
      Q.enqueue q i
    done;
    (* straddles the rim: [room] slots fit, the rest must spill *)
    let room = cap - prefill in
    let batch = List.init (room + 7) (fun i -> 1000 + i) in
    Q.enqueue_batch q batch;
    let expect = List.init prefill (fun i -> i + 1) @ batch in
    Alcotest.(check int)
      (Printf.sprintf "length at prefill %d" prefill)
      (List.length expect) (Q.length q);
    List.iter
      (fun want ->
        match Q.dequeue q with
        | Some got when got = want -> ()
        | Some got ->
            Alcotest.failf "prefill %d: dequeued %d, wanted %d" prefill got want
        | None -> Alcotest.failf "prefill %d: queue short" prefill)
      expect;
    Alcotest.(check bool)
      (Printf.sprintf "empty at prefill %d" prefill)
      true (Q.is_empty q)
  done

let test_segmented_batch_rim_race () =
  let module Q = Core.Segmented_queue in
  let cap = Q.segment_capacity in
  let q = Q.create () in
  let rounds = 200 in
  let batch_len = cap - 1 in
  (* two batchers issuing near-segment-sized claims force every round
     through the rim path while racing each other's fetch-and-adds *)
  let mk tag =
    Domain.spawn (fun () ->
        for r = 0 to rounds - 1 do
          Q.enqueue_batch q
            (List.init batch_len (fun i -> tag + (r * batch_len) + i))
        done)
  in
  let a = mk 0 and b = mk 10_000_000 in
  Domain.join a;
  Domain.join b;
  let total = 2 * rounds * batch_len in
  Alcotest.(check int) "conservation" total (Q.length q);
  (* each producer's elements drain in its own order, nothing lost *)
  let last = [| -1; -1 |] and seen = ref 0 in
  let rec drain () =
    match Q.dequeue q with
    | None -> ()
    | Some v ->
        incr seen;
        let p = if v >= 10_000_000 then 1 else 0 in
        let s = v mod 10_000_000 in
        if s <= last.(p) then
          Alcotest.failf "producer %d order violated: %d after %d" p s last.(p);
        last.(p) <- s;
        drain ()
  in
  drain ();
  Alcotest.(check int) "drained everything" total !seen

(* Two-lock queue over other locks: the functor works with any LOCK. *)
module Two_lock_mcs = Core.Two_lock_queue.Make_lock (Locks.Mcs_lock)
module Two_lock_ticket = Core.Two_lock_queue.Make_lock (Locks.Ticket_lock)

let test_two_lock_functor () =
  let q = Two_lock_mcs.create () in
  Two_lock_mcs.enqueue q 1;
  Two_lock_mcs.enqueue q 2;
  Alcotest.(check (option int)) "mcs-backed" (Some 1) (Two_lock_mcs.dequeue q);
  let q = Two_lock_ticket.create () in
  Two_lock_ticket.enqueue q 7;
  Alcotest.(check (option int)) "ticket-backed" (Some 7) (Two_lock_ticket.dequeue q);
  Alcotest.(check string) "name includes lock" "two-lock(mcs)" Two_lock_mcs.name

(* SCQ's two-load empty test: a fresh and a drained queue read empty,
   an enqueued one does not. *)
let test_scq_hint () =
  let q = Core.Scq_queue.create ~capacity:2 () in
  Alcotest.(check bool) "fresh queue reads empty" false
    (Core.Scq_queue.maybe_nonempty q);
  Alcotest.(check bool) "enqueued" true (Core.Scq_queue.try_enqueue q 1);
  Alcotest.(check bool) "true after an enqueue" true
    (Core.Scq_queue.maybe_nonempty q);
  Alcotest.(check (option int)) "dequeued" (Some 1) (Core.Scq_queue.try_dequeue q);
  Alcotest.(check bool) "drained queue reads empty" false
    (Core.Scq_queue.maybe_nonempty q)

let suites =
  let sequential =
    List.map
      (fun (name, q) -> Alcotest.test_case name `Quick (test_sequential name q))
      all_queues
  in
  let qcheck_seq =
    List.map
      (fun (name, q) -> QCheck_alcotest.to_alcotest (qcheck_sequential name q))
      all_queues
  in
  let stress_tests =
    List.map
      (fun (name, q) -> Alcotest.test_case name `Slow (test_stress name q))
      all_queues
  in
  [
    ("core.sequential", sequential);
    ("core.sequential.qcheck", qcheck_seq);
    ("core.stress", stress_tests);
    ( "core.ms",
      [
        Alcotest.test_case "length" `Quick test_ms_length;
        Alcotest.test_case "value not retained" `Quick test_ms_value_not_retained;
        Alcotest.test_case "counted counts monotone" `Quick test_counted_counts_monotone;
        Alcotest.test_case "counted pool recycles" `Quick test_counted_pool_recycles;
      ] );
    ( "core.treiber",
      [
        Alcotest.test_case "lifo" `Quick test_treiber_lifo;
        QCheck_alcotest.to_alcotest qcheck_treiber_model;
        Alcotest.test_case "concurrent" `Slow test_treiber_concurrent;
      ] );
    ( "core.segmented_batch_rim",
      [
        Alcotest.test_case "partial claim at every rim distance" `Quick
          test_segmented_batch_rim;
        Alcotest.test_case "racing near-segment batches" `Slow
          test_segmented_batch_rim_race;
      ] );
    ("core.two_lock_functor", [ Alcotest.test_case "other locks" `Quick test_two_lock_functor ]);
    ( "core.scq",
      [ Alcotest.test_case "maybe_nonempty hint" `Quick test_scq_hint ] );
  ]
