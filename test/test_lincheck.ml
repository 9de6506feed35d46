(* Tests of the linearizability checker (lib/lincheck): hand-crafted
   histories with known verdicts, the recorder, and properties linking
   sequential runs to linearizability. *)

open Lincheck

let entry proc op start finish = { History.proc; op; start; finish }

let verdict =
  Alcotest.testable
    (fun fmt -> function
      | Checker.Linearizable -> Format.fprintf fmt "Linearizable"
      | Checker.Not_linearizable -> Format.fprintf fmt "Not_linearizable"
      | Checker.Inconclusive -> Format.fprintf fmt "Inconclusive")
    ( = )

let check_v name expected history =
  Alcotest.check verdict name expected (Checker.check history)

(* ------------------------------------------------------------------ *)

let test_empty () = check_v "empty history" Checker.Linearizable []

let test_sequential_simple () =
  check_v "enq then deq" Checker.Linearizable
    [ entry 0 (History.Enq 1) 0 1; entry 0 (History.Deq (Some 1)) 2 3 ]

let test_wrong_value () =
  check_v "deq of never-enqueued value" Checker.Not_linearizable
    [ entry 0 (History.Enq 1) 0 1; entry 0 (History.Deq (Some 2)) 2 3 ]

let test_fifo_violation () =
  check_v "LIFO order rejected" Checker.Not_linearizable
    [
      entry 0 (History.Enq 1) 0 1;
      entry 0 (History.Enq 2) 2 3;
      entry 0 (History.Deq (Some 2)) 4 5;
      entry 0 (History.Deq (Some 1)) 6 7;
    ]

let test_empty_deq_when_nonempty () =
  check_v "observed empty while an item is present" Checker.Not_linearizable
    [ entry 0 (History.Enq 1) 0 1; entry 0 (History.Deq None) 2 3 ]

let test_empty_deq_before_enq () =
  check_v "empty dequeue before anything was enqueued" Checker.Linearizable
    [ entry 0 (History.Deq None) 0 1; entry 0 (History.Enq 1) 2 3 ]

let test_concurrent_flexibility () =
  (* two overlapping enqueues and two dequeues that observe them in
     either order: linearizable because the enqueues were concurrent *)
  check_v "concurrent enqueues allow either order" Checker.Linearizable
    [
      entry 0 (History.Enq 1) 0 10;
      entry 1 (History.Enq 2) 1 9;
      entry 0 (History.Deq (Some 2)) 11 12;
      entry 1 (History.Deq (Some 1)) 13 14;
    ]

let test_realtime_respected () =
  (* enq 1 strictly precedes enq 2: dequeuing 2 before 1 is illegal *)
  check_v "non-overlapping enqueues fix the order" Checker.Not_linearizable
    [
      entry 0 (History.Enq 1) 0 1;
      entry 1 (History.Enq 2) 2 3;
      entry 0 (History.Deq (Some 2)) 4 5;
      entry 1 (History.Deq (Some 1)) 6 7;
    ]

let test_pending_overlap_empty () =
  (* the paper's Stone non-linearizability pattern: enq b completes,
     then a dequeue that started after it returns empty while b is
     still in the queue, with only one other dequeue which took a *)
  check_v "stone pattern rejected" Checker.Not_linearizable
    [
      entry 0 (History.Enq 10) 0 1;
      entry 1 (History.Enq 20) 2 6;
      entry 0 (History.Deq (Some 10)) 3 12;
      entry 1 (History.Deq None) 7 8;
    ]

let test_duplicate_delivery () =
  check_v "same item dequeued twice" Checker.Not_linearizable
    [
      entry 0 (History.Enq 1) 0 1;
      entry 0 (History.Deq (Some 1)) 2 3;
      entry 1 (History.Deq (Some 1)) 4 5;
    ]

let test_lost_item_is_fine () =
  (* items may remain in the queue: absence of a dequeue is legal *)
  check_v "leftover items" Checker.Linearizable
    [ entry 0 (History.Enq 1) 0 1; entry 0 (History.Enq 2) 2 3 ]

let test_check_exn () =
  Alcotest.check_raises "check_exn raises on bad history"
    (Failure
       "non-linearizable history (2 ops):\n\
       \  p0 [0,1] enq 1\n\
       \  p0 [2,3] deq -> 2\n")
    (fun () ->
      Checker.check_exn
        [ entry 0 (History.Enq 1) 0 1; entry 0 (History.Deq (Some 2)) 2 3 ])

let test_inconclusive_budget () =
  (* dozens of fully-concurrent operations with a tiny budget *)
  let history =
    List.init 20 (fun i -> entry i (History.Enq i) 0 1000)
    @ List.init 20 (fun i -> entry (20 + i) (History.Deq (Some i)) 0 1000)
  in
  Alcotest.check verdict "budget exhausted" Checker.Inconclusive
    (Checker.check ~max_configs:10 history)

(* ------------------------------------------------------------------ *)
(* Recorder *)

let test_recorder_basic () =
  let r = History.create_recorder () in
  History.record r ~proc:0 (fun () -> History.Enq 1);
  History.record r ~proc:1 (fun () -> History.Deq (Some 1));
  let h = History.history r in
  Alcotest.(check int) "two entries" 2 (List.length h);
  let sorted = List.sort (fun a b -> compare a.History.start b.History.start) h in
  (match sorted with
  | [ a; b ] ->
      Alcotest.(check bool) "intervals ordered" true (a.History.finish < b.History.start)
  | _ -> Alcotest.fail "expected two entries");
  check_v "recorded history is consistent" Checker.Linearizable h

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Any single-process (sequential) run of a real queue yields a
   linearizable history — instantiated for the paper's queue and for
   the implementations whose extra machinery (locks, hazard-pointer
   reclamation, segment transitions) could plausibly reorder. *)
let qcheck_sequential_lin name (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:50
    ~name:(Printf.sprintf "sequential %s histories linearizable" name)
    QCheck2.Gen.(
      list_size (int_range 1 25)
        (oneof [ map (fun v -> `Enq v) (int_range 0 50); return `Deq ]))
    (fun ops ->
      let q = Q.create () in
      let r = History.create_recorder () in
      List.iter
        (function
          | `Enq v ->
              History.record r ~proc:0 (fun () ->
                  Q.enqueue q v;
                  History.Enq v)
          | `Deq -> History.record r ~proc:0 (fun () -> History.Deq (Q.dequeue q)))
        ops;
      Checker.check (History.history r) = Checker.Linearizable)

let qcheck_sequential_always_linearizable =
  qcheck_sequential_lin "MS-queue" (module Core.Ms_queue)

let qcheck_sequential_two_lock =
  qcheck_sequential_lin "two-lock" (module Core.Two_lock_queue)

let qcheck_sequential_ms_hp =
  qcheck_sequential_lin "MS-queue/HP" (module Core.Ms_queue_hp)

(* Corrupting one dequeue result in a valid sequential history makes it
   non-linearizable (as long as the value is fresh). *)
let qcheck_corruption_detected =
  QCheck2.Test.make ~count:50 ~name:"corrupted histories rejected"
    QCheck2.Gen.(int_range 1 15)
    (fun n ->
      let q = Core.Ms_queue.create () in
      let r = History.create_recorder () in
      for v = 1 to n do
        History.record r ~proc:0 (fun () ->
            Core.Ms_queue.enqueue q v;
            History.Enq v)
      done;
      for _ = 1 to n do
        History.record r ~proc:0 (fun () -> History.Deq (Core.Ms_queue.dequeue q))
      done;
      let h = History.history r in
      let corrupted =
        List.map
          (fun e ->
            match e.History.op with
            | History.Deq (Some v) when v = 1 -> { e with History.op = History.Deq (Some 999) }
            | _ -> e)
          h
      in
      Checker.check corrupted = Checker.Not_linearizable)

(* ------------------------------------------------------------------ *)
(* Batch operations as multi-element events (History.record_many) *)

(* record_many logs one entry per element over a single shared
   interval *)
let test_record_many_basic () =
  let r = History.create_recorder () in
  History.record_many r ~proc:0 (fun () ->
      [ History.Enq 1; History.Enq 2; History.Enq 3 ]);
  History.record r ~proc:0 (fun () -> History.Deq (Some 1));
  let h = History.history r in
  Alcotest.(check int) "four entries" 4 (List.length h);
  let enqs = List.filter (fun e -> match e.History.op with History.Enq _ -> true | _ -> false) h in
  (match enqs with
  | e :: rest ->
      List.iter
        (fun e' ->
          Alcotest.(check int) "shared start" e.History.start e'.History.start;
          Alcotest.(check int) "shared finish" e.History.finish e'.History.finish)
        rest
  | [] -> Alcotest.fail "no enqueue entries");
  check_v "batch history is consistent" Checker.Linearizable h

(* sequential segmented-queue traces mixing batch and single ops,
   recorded through record_many, stay linearizable *)
let qcheck_batch_sequential_lin =
  let module Q = Core.Segmented_queue in
  QCheck2.Test.make ~count:50
    ~name:"sequential segmented batch histories linearizable"
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (oneof
           [
             map (fun l -> `EnqBatch l) (list_size (int_range 1 5) (int_range 0 50));
             map (fun n -> `DeqBatch n) (int_range 1 5);
             map (fun v -> `Enq v) (int_range 0 50);
             return `Deq;
           ]))
    (fun ops ->
      let q = Q.create () in
      let r = History.create_recorder () in
      List.iter
        (function
          | `EnqBatch l ->
              History.record_many r ~proc:0 (fun () ->
                  Q.enqueue_batch q l;
                  List.map (fun v -> History.Enq v) l)
          | `DeqBatch n ->
              History.record_many r ~proc:0 (fun () ->
                  List.map
                    (fun v -> History.Deq (Some v))
                    (Q.dequeue_batch q ~max:n))
          | `Enq v ->
              History.record r ~proc:0 (fun () ->
                  Q.enqueue q v;
                  History.Enq v)
          | `Deq -> History.record r ~proc:0 (fun () -> History.Deq (Q.dequeue q)))
        ops;
      Checker.check (History.history r) = Checker.Linearizable)

(* History order: the checker tries operations in list order, so the
   recorder must hand back oldest-first entries with each batch in
   batch order.  Newest-first (batches reversed) sends the search
   through every wrong permutation of each batch first and exhausts a
   small budget on a trivially sequential history. *)
let test_history_oldest_first () =
  let r = History.create_recorder () in
  for b = 0 to 2 do
    History.record_many r ~proc:0 (fun () ->
        List.init 5 (fun j -> History.Enq ((b * 5) + j)))
  done;
  for v = 0 to 14 do
    History.record r ~proc:0 (fun () -> History.Deq (Some v))
  done;
  Alcotest.check verdict "found within 1000 configurations"
    Checker.Linearizable
    (Checker.check ~max_configs:1_000 (History.history r))

(* 2-domain segmented batch workload: the over-approximated history
   (batch elements concurrent within their interval) must check out,
   and within every dequeued batch the elements of a single producer
   batch must appear in batch order.  Values encode (producer, batch
   number, position) so order inside a batch is recoverable. *)
let test_batch_two_domain_lin () =
  let module Q = Core.Segmented_queue in
  let batch = 3 and rounds_per_domain = 8 in
  for _round = 1 to 5 do
    let q = Q.create () in
    let r = History.create_recorder () in
    let dequeued = Array.make 2 [] in
    let body i () =
      for k = 1 to rounds_per_domain do
        let vs = List.init batch (fun j -> (i * 100_000) + (k * 100) + j) in
        History.record_many r ~proc:i (fun () ->
            Q.enqueue_batch q vs;
            List.map (fun v -> History.Enq v) vs);
        History.record_many r ~proc:i (fun () ->
            let got = Q.dequeue_batch q ~max:batch in
            dequeued.(i) <- List.rev_append got dequeued.(i);
            List.map (fun v -> History.Deq (Some v)) got)
      done
    in
    let ds = List.init 2 (fun i -> Domain.spawn (body i)) in
    List.iter Domain.join ds;
    check_v "2-domain batch history" Checker.Linearizable (History.history r);
    (* per-batch element order: within EACH consumer's chronological
       stream (FIFO gives each consumer queue-order delivery), the
       elements it received from one producer batch must appear in
       batch-position order; cross-consumer order is not observable *)
    for d = 0 to 1 do
      let stream = List.rev dequeued.(d) in
      for i = 0 to 1 do
        for k = 1 to rounds_per_domain do
          let positions =
            List.filter_map
              (fun v -> if v / 100 = (i * 1000) + k then Some (v mod 100) else None)
              stream
          in
          Alcotest.(check (list int))
            (Printf.sprintf "consumer %d sees batch (%d,%d) in batch order" d i k)
            (List.sort compare positions) positions
        done
      done
    done
  done

(* Interval widening preserves linearizability: if a history has a
   witness order, enlarging operation intervals only adds freedom. *)
let qcheck_widening_preserves =
  QCheck2.Test.make ~count:60 ~name:"interval widening preserves linearizability"
    QCheck2.Gen.(int_range 1 8)
    (fun n ->
      (* build a sequential (hence linearizable) history of n pairs *)
      let entries = ref [] in
      let t = ref 0 in
      let stamp () = incr t; !t in
      let q = Queue.create () in
      for v = 1 to n do
        let s = stamp () in
        Queue.push v q;
        let f = stamp () in
        entries := { History.proc = 0; op = History.Enq v; start = s; finish = f } :: !entries;
        let s = stamp () in
        let r = Queue.take_opt q in
        let f = stamp () in
        entries := { History.proc = 0; op = History.Deq r; start = s; finish = f } :: !entries
      done;
      let widened =
        List.map
          (fun e -> { e with History.start = e.History.start - 1; finish = e.History.finish + 1 })
          !entries
      in
      Checker.check widened = Checker.Linearizable)

(* Making every operation fully concurrent can only keep (or create)
   witnesses for histories whose values are a legal multiset. *)
let qcheck_full_overlap_is_permissive =
  QCheck2.Test.make ~count:60 ~name:"fully concurrent version stays linearizable"
    QCheck2.Gen.(int_range 1 6)
    (fun n ->
      let entries =
        List.concat
          (List.init n (fun i ->
               [
                 { History.proc = i; op = History.Enq i; start = 0; finish = 1000 };
                 { History.proc = n + i; op = History.Deq (Some i); start = 0; finish = 1000 };
               ]))
      in
      Checker.check entries = Checker.Linearizable)

(* The checker agrees with brute-force search on tiny histories: compare
   against trying every permutation directly. *)
let brute_force history =
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y != x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  let respects_realtime order =
    (* an order is real-time-consistent iff no operation is placed after
       one that strictly finished before it started *)
    let rec ok = function
      | [] -> true
      | e :: rest ->
          List.for_all (fun later -> later.History.finish >= e.History.start) rest
          && ok rest
    in
    ok order
  in
  let legal order =
    let q = Queue.create () in
    List.for_all
      (fun e ->
        match e.History.op with
        | History.Enq v ->
            Queue.push v q;
            true
        | History.Deq None -> Queue.is_empty q
        | History.Deq (Some v) -> (
            match Queue.take_opt q with Some v' -> v = v' | None -> false)
        (* the unbounded brute-force spec has no full state *)
        | History.Try_enq (v, true) ->
            Queue.push v q;
            true
        | History.Try_enq (_, false) -> false)
      order
  in
  List.exists (fun o -> respects_realtime o && legal o) (permutations history)

let history_gen =
  QCheck2.Gen.(
    let entry i =
      let* op =
        oneof
          [
            map (fun v -> History.Enq v) (int_range 0 3);
            map (fun v -> History.Deq (if v = 0 then None else Some (v - 1))) (int_range 0 4);
          ]
      in
      let* start = int_range 0 20 in
      let* len = int_range 1 10 in
      return { History.proc = i; op; start = start * 10; finish = (start * 10) + len }
    in
    let* n = int_range 1 5 in
    flatten_l (List.init n entry))

let qcheck_agrees_with_brute_force =
  QCheck2.Test.make ~count:200 ~name:"checker agrees with brute force on tiny histories"
    history_gen
    (fun history ->
      (* make stamps unique by spacing, as the recorder guarantees *)
      let verdict = Checker.check history in
      let brute = brute_force history in
      match verdict with
      | Checker.Linearizable -> brute
      | Checker.Not_linearizable -> not brute
      | Checker.Inconclusive -> true)

(* ------------------------------------------------------------------ *)
(* Bounded specification: [Checker.check ~capacity].  The full verdict
   has pending-reservation strength (see the mli and Aksenov et al.,
   arXiv 2104.15003); the empty verdict stays strict. *)

let check_b name ~capacity expected history =
  Alcotest.check verdict name expected (Checker.check ~capacity history)

let test_bounded_sequential () =
  (* a straight-line trace against a capacity-2 ring: accepts while
     there is room, refuses at the brim, accepts again after a dequeue *)
  check_b "sequential bounded trace" ~capacity:2 Checker.Linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Try_enq (2, true)) 2 3;
      entry 0 (History.Try_enq (3, false)) 4 5;
      entry 0 (History.Deq (Some 1)) 6 7;
      entry 0 (History.Try_enq (4, true)) 8 9;
      entry 0 (History.Deq (Some 2)) 10 11;
      entry 0 (History.Deq (Some 4)) 12 13;
      entry 0 (History.Deq None) 14 15;
    ]

let test_bounded_overflow_rejected () =
  (* two sequential accepts into a capacity-1 queue with no dequeue in
     between: the second acceptance had no room to linearize *)
  check_b "acceptance past capacity" ~capacity:1 Checker.Not_linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Try_enq (2, true)) 2 3;
    ]

let test_bounded_uncovered_full_rejected () =
  (* a refusal with the queue below capacity and nothing in flight: no
     pending reservation can cover it, so it is a real violation *)
  check_b "uncovered full verdict" ~capacity:2 Checker.Not_linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Try_enq (2, false)) 2 3;
    ]

let test_bounded_pending_enq_covers_full () =
  (* the verdict pair no strict semantics can explain: one in-flight
     accepted enqueue spans both a full verdict and an empty verdict.
     Strictly the enqueue would have to linearize both before the
     refusal (to fill the capacity-1 queue) and after the empty dequeue
     — impossible.  Under pending-reservation semantics the refusal is
     covered by the enqueue's reservation while the strict empty
     verdict linearizes before the enqueue does. *)
  let history =
    [
      entry 0 (History.Try_enq (1, true)) 0 100;
      entry 1 (History.Try_enq (2, false)) 10 20;
      entry 1 (History.Deq None) 30 40;
    ]
  in
  check_b "reservation covers full" ~capacity:1 Checker.Linearizable history;
  (* sanity: the strict unbounded spec indeed rejects the refusal *)
  check_v "strict spec rejects any refusal" Checker.Not_linearizable history

let test_bounded_done_deq_covers_full () =
  (* a dequeue holds its slot until its response: a refusal issued
     inside the dequeue's interval is covered... *)
  check_b "linearized-but-open dequeue covers full" ~capacity:1
    Checker.Linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Deq (Some 1)) 10 40;
      entry 1 (History.Try_enq (2, false)) 20 30;
    ];
  (* ...but once the dequeue has responded the slot is free, and the
     same refusal is a violation *)
  check_b "refusal after the dequeue responded" ~capacity:1
    Checker.Not_linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Deq (Some 1)) 10 20;
      entry 1 (History.Try_enq (2, false)) 30 40;
    ]

let test_bounded_empty_stays_strict () =
  (* the relaxation is asymmetric: an empty verdict with an item
     resident is rejected exactly as in the unbounded spec *)
  check_b "strict empty verdict" ~capacity:4 Checker.Not_linearizable
    [
      entry 0 (History.Try_enq (1, true)) 0 1;
      entry 0 (History.Deq None) 2 3;
    ]

(* sequentially recorded traces of the real SCQ at tiny capacities are
   always linearizable against the bounded spec — and the full verdict
   actually fires, so the bounded branch is exercised, not skipped *)
let qcheck_bounded_sequential_scq =
  QCheck2.Test.make ~count:150
    ~name:"sequential SCQ trace linearizable against bounded spec"
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 1 40)
           (oneof [ map (fun v -> `Enq v) (int_range 0 100); return `Deq ])))
    (fun (capacity, ops) ->
      let module Q = Core.Scq_queue in
      let q = Q.create ~capacity () in
      let r = History.create_recorder () in
      let fulls = ref 0 in
      List.iter
        (fun op ->
          History.record r ~proc:0 (fun () ->
              match op with
              | `Enq v ->
                  let ok = Q.try_enqueue q v in
                  if not ok then incr fulls;
                  History.Try_enq (v, ok)
              | `Deq -> History.Deq (Q.try_dequeue q)))
        ops;
      Checker.check ~capacity:(Q.capacity q) (History.history r)
      = Checker.Linearizable)

let test_bounded_two_domain_scq () =
  (* 2 domains hammering a capacity-2 SCQ, every operation recorded;
     each history must linearize against the bounded spec.  The
     [msq_check native-lin] gate itself, at 8 rounds of 40. *)
  List.iter
    (fun (v : Harness.Verdict.t) ->
      if not v.ok then Alcotest.failf "bounded SCQ: %s" v.detail)
    (Harness.Gate.native_lin_queue ~rounds:8 ~ops:40 ~name:"scq"
       (module Core.Scq_queue))

let suites =
  [
    ( "lincheck.verdicts",
      [
        Alcotest.test_case "empty history" `Quick test_empty;
        Alcotest.test_case "sequential simple" `Quick test_sequential_simple;
        Alcotest.test_case "wrong value" `Quick test_wrong_value;
        Alcotest.test_case "fifo violation" `Quick test_fifo_violation;
        Alcotest.test_case "false empty" `Quick test_empty_deq_when_nonempty;
        Alcotest.test_case "early empty ok" `Quick test_empty_deq_before_enq;
        Alcotest.test_case "concurrent flexibility" `Quick test_concurrent_flexibility;
        Alcotest.test_case "realtime respected" `Quick test_realtime_respected;
        Alcotest.test_case "stone pattern" `Quick test_pending_overlap_empty;
        Alcotest.test_case "duplicate delivery" `Quick test_duplicate_delivery;
        Alcotest.test_case "leftover items ok" `Quick test_lost_item_is_fine;
        Alcotest.test_case "check_exn message" `Quick test_check_exn;
        Alcotest.test_case "inconclusive budget" `Quick test_inconclusive_budget;
      ] );
    ( "lincheck.recorder",
      [
        Alcotest.test_case "basic" `Quick test_recorder_basic;
        QCheck_alcotest.to_alcotest qcheck_sequential_always_linearizable;
        QCheck_alcotest.to_alcotest qcheck_sequential_two_lock;
        QCheck_alcotest.to_alcotest qcheck_sequential_ms_hp;
        QCheck_alcotest.to_alcotest qcheck_corruption_detected;
      ] );
    ( "lincheck.batch",
      [
        Alcotest.test_case "record_many intervals" `Quick test_record_many_basic;
        QCheck_alcotest.to_alcotest qcheck_batch_sequential_lin;
        Alcotest.test_case "2-domain segmented batches" `Slow
          test_batch_two_domain_lin;
        Alcotest.test_case "history oldest first, batches in order" `Quick
          test_history_oldest_first;
      ] );
    ( "lincheck.properties",
      [
        QCheck_alcotest.to_alcotest qcheck_widening_preserves;
        QCheck_alcotest.to_alcotest qcheck_full_overlap_is_permissive;
        QCheck_alcotest.to_alcotest qcheck_agrees_with_brute_force;
      ] );
    ( "lincheck.bounded",
      [
        Alcotest.test_case "sequential bounded trace" `Quick
          test_bounded_sequential;
        Alcotest.test_case "overflow rejected" `Quick
          test_bounded_overflow_rejected;
        Alcotest.test_case "uncovered full rejected" `Quick
          test_bounded_uncovered_full_rejected;
        Alcotest.test_case "pending enqueue covers full" `Quick
          test_bounded_pending_enq_covers_full;
        Alcotest.test_case "open dequeue covers full" `Quick
          test_bounded_done_deq_covers_full;
        Alcotest.test_case "empty verdict stays strict" `Quick
          test_bounded_empty_stays_strict;
        QCheck_alcotest.to_alcotest qcheck_bounded_sequential_scq;
        Alcotest.test_case "2-domain SCQ history" `Slow
          test_bounded_two_domain_scq;
      ] );
  ]
