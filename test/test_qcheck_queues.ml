(* Randomized property tests run generically over EVERY native queue in
   Harness.Registry.native, through each capability its entry carries
   (unbounded, batch, and the BOUNDED view every entry has) — modeled on
   saturn's qcheck suites for its Michael-Scott queue.  A queue
   registered in the registry is picked up here with no edits, so the
   net tightens automatically as queues are added.

   Sequential properties (FIFO order, drain count, length consistency)
   compare against the obviously-correct Stdlib.Queue; the concurrent
   ones check what survives real 2-domain interleavings: exact order
   preservation with one producer and one consumer, and the documented
   [0, enqueues-started] bounds on the racy [length] snapshot. *)

let capability f =
  List.filter_map
    (fun (e : Harness.Registry.native_entry) ->
      Option.map (fun q -> (e.key, q)) (f e))
    Harness.Registry.native

let natives = capability (fun e -> e.unbounded)
let batch_natives = capability (fun e -> e.batch)

(* the queues with a finite capacity (no unbounded view), and each
   unbounded queue's never-refusing BOUNDED view *)
let bounded_natives =
  capability (fun e ->
      if Option.is_none e.unbounded then Some e.queue else None)

let unbounded_views =
  capability (fun e -> Option.map (fun _ -> e.queue) e.unbounded)

(* ------------------------------------------------------------------ *)
(* Sequential properties *)

(* enqueue a whole list, dequeue everything: exact FIFO order *)
let prop_fifo_order key (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:100 ~name:(key ^ ": dequeue order = enqueue order")
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let q = Q.create () in
      List.iter (Q.enqueue q) l;
      let out = List.init (List.length l) (fun _ -> Q.dequeue q) in
      out = List.map Option.some l && Q.dequeue q = None)

(* push n, pop until is_empty: exactly n pops, then None *)
let prop_drain_count key (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:100 ~name:(key ^ ": drain count = push count")
    QCheck2.Gen.(list_size (int_range 0 150) int)
    (fun l ->
      let q = Q.create () in
      List.iter (Q.enqueue q) l;
      let count = ref 0 in
      while not (Q.is_empty q) do
        (match Q.dequeue q with Some _ -> incr count | None -> ());
        if !count > List.length l then failwith "drained more than pushed"
      done;
      !count = List.length l && Q.dequeue q = None)

(* after every operation of a random trace, length and is_empty agree
   with the model queue *)
let prop_length_consistent key (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:100 ~name:(key ^ ": length tracks the FIFO model")
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (oneof [ map (fun v -> `Enq v) int; return `Deq ]))
    (fun ops ->
      let q = Q.create () in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | `Enq v ->
              Q.enqueue q v;
              Queue.push v model
          | `Deq ->
              let got = Q.dequeue q and want = Queue.take_opt model in
              if got <> want then failwith "dequeue diverged from model");
          Q.length q = Queue.length model
          && Q.is_empty q = Queue.is_empty model)
        ops)

(* ------------------------------------------------------------------ *)
(* Concurrent properties *)

(* one producer domain, one consumer: the consumer observes exactly the
   produced sequence (per-producer order is total order here) *)
let two_domain_round (module Q : Core.Queue_intf.S) l =
  let q = Q.create () in
  let producer = Domain.spawn (fun () -> List.iter (Q.enqueue q) l) in
  let ok =
    List.for_all
      (fun expected ->
        let rec next () =
          match Q.dequeue q with
          | Some v -> v
          | None ->
              Domain.cpu_relax ();
              next ()
        in
        next () = expected)
      l
  in
  Domain.join producer;
  ok && Q.is_empty q && Q.dequeue q = None

let prop_two_domain_order key (module Q : Core.Queue_intf.S) =
  QCheck2.Test.make ~count:15 ~name:(key ^ ": 2-domain producer/consumer order")
    QCheck2.Gen.(list_size (int_range 1 400) int)
    (two_domain_round (module Q))

(* the documented concurrent-length contract: under concurrent traffic
   every sample stays within [0, enqueues started]; see the caveat on
   [Core.Queue_intf.S.length] *)
let test_length_bounds key (module Q : Core.Queue_intf.S) () =
  let q = Q.create () in
  let per = 3_000 in
  let enq_started = Atomic.make 0 in
  let stop = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to per do
          Atomic.incr enq_started;
          Q.enqueue q i
        done)
  in
  let consumer =
    Domain.spawn (fun () ->
        let drained = ref 0 in
        while !drained < per do
          match Q.dequeue q with
          | Some _ -> incr drained
          | None -> Domain.cpu_relax ()
        done)
  in
  let samples = ref 0 in
  while not (Atomic.get stop) do
    let len = Q.length q in
    (* read the upper bound AFTER the sample: enqueues only grow, so
       len <= started-at-sample-time <= started-now *)
    let upper = Atomic.get enq_started in
    if len < 0 then Alcotest.failf "%s: negative length %d" key len;
    if len > upper then
      Alcotest.failf "%s: length %d exceeds %d enqueues started" key len upper;
    incr samples;
    if Atomic.get enq_started >= per && Q.is_empty q then Atomic.set stop true
  done;
  Domain.join producer;
  Domain.join consumer;
  Alcotest.(check bool) (key ^ " sampled while racing") true (!samples > 0);
  Alcotest.(check int) (key ^ " settles to empty") 0 (Q.length q)

(* ------------------------------------------------------------------ *)
(* Batch properties (entries with a [batch] capability) *)

(* a random interleaving of batch and single operations matches the
   FIFO model *)
let prop_batch_model key (module Q : Core.Queue_intf.BATCH) =
  QCheck2.Test.make ~count:100 ~name:(key ^ ": batch ops track the FIFO model")
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (oneof
           [
             map (fun l -> `EnqBatch l) (list_size (int_range 0 20) int);
             map (fun v -> `Enq v) int;
             map (fun n -> `DeqBatch n) (int_range 0 25);
             return `Deq;
           ]))
    (fun ops ->
      let q = Q.create () in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | `EnqBatch l ->
              Q.enqueue_batch q l;
              List.iter (fun v -> Queue.push v model) l;
              true
          | `Enq v ->
              Q.enqueue q v;
              Queue.push v model;
              true
          | `DeqBatch n ->
              (* a batch may come up short only at a segment boundary;
                 sequentially it must deliver min n (length) items *)
              let want = min n (Queue.length model) in
              let rec drain got =
                if got >= want then true
                else
                  match Q.dequeue_batch q ~max:(want - got) with
                  | [] -> false
                  | l ->
                      List.for_all (fun v -> Queue.take_opt model = Some v) l
                      && drain (got + List.length l)
              in
              drain 0
          | `Deq -> Q.dequeue q = Queue.take_opt model)
        ops)

(* batches much larger than a segment round-trip intact *)
let prop_batch_boundaries key (module Q : Core.Queue_intf.BATCH) =
  QCheck2.Test.make ~count:20 ~name:(key ^ ": batches across segment boundaries")
    QCheck2.Gen.(int_range 1 2000)
    (fun n ->
      let q = Q.create () in
      let l = List.init n (fun i -> i) in
      Q.enqueue_batch q l;
      if Q.length q <> n then failwith "length after batch";
      let rec drain acc =
        match Q.dequeue_batch q ~max:n with
        | [] -> List.rev acc
        | got -> drain (List.rev_append got acc)
      in
      drain [] = l && Q.is_empty q)

(* one producer feeding batches, one consumer draining batches: the
   concatenation of consumed batches is exactly the produced stream *)
let prop_batch_two_domain key (module Q : Core.Queue_intf.BATCH) =
  QCheck2.Test.make ~count:15
    ~name:(key ^ ": 2-domain batch producer/consumer order")
    QCheck2.Gen.(pair (int_range 1 32) (list_size (int_range 1 600) int))
    (fun (batch, l) ->
      let q = Q.create () in
      let total = List.length l in
      let producer =
        Domain.spawn (fun () ->
            let rec feed = function
              | [] -> ()
              | l ->
                  let chunk, rest =
                    let rec split n acc = function
                      | x :: r when n > 0 -> split (n - 1) (x :: acc) r
                      | r -> (List.rev acc, r)
                    in
                    split batch [] l
                  in
                  Q.enqueue_batch q chunk;
                  feed rest
            in
            feed l)
      in
      let consumed = ref [] in
      let got = ref 0 in
      while !got < total do
        match Q.dequeue_batch q ~max:batch with
        | [] -> Domain.cpu_relax ()
        | chunk ->
            consumed := List.rev_append chunk !consumed;
            got := !got + List.length chunk
      done;
      Domain.join producer;
      List.rev !consumed = l && Q.is_empty q)

(* ------------------------------------------------------------------ *)
(* Bounded properties (the BOUNDED views; refill and the length bound
   need a finite capacity) *)

(* feed a stream through a small ring: every accepted element comes out
   exactly once in FIFO order, every refused element is simply absent —
   a [false] from try_enqueue must lose nothing *)
let prop_bounded_lossless key (module Q : Core.Queue_intf.BOUNDED) =
  QCheck2.Test.make ~count:100
    ~name:(key ^ ": refused enqueues lose nothing")
    QCheck2.Gen.(
      pair (int_range 1 16)
        (list_size (int_range 1 120)
           (oneof [ map (fun v -> `Enq v) int; return `Deq ])))
    (fun (capacity, ops) ->
      let q = Q.create ~capacity () in
      let model = Queue.create () in
      let cap = Q.capacity q in
      List.for_all
        (fun op ->
          (match op with
          | `Enq v ->
              let accepted = Q.try_enqueue q v in
              (* sequentially the full verdict is exact: accepted iff
                 there was room *)
              if accepted <> (Queue.length model < cap) then
                failwith "full verdict diverged from model";
              if accepted then Queue.push v model
          | `Deq ->
              if Q.try_dequeue q <> Queue.take_opt model then
                failwith "dequeue diverged from model");
          Q.length q = Queue.length model)
        ops
      &&
      (* drain: exactly the accepted elements, in acceptance order *)
      let rec drain () =
        match (Q.try_dequeue q, Queue.take_opt model) with
        | None, None -> true
        | got, want -> got = want && drain ()
      in
      drain ())

(* fill to refusal, drain to empty, fill again: both generations come
   out complete and in order, and length tracks exactly *)
let prop_bounded_refill key (module Q : Core.Queue_intf.BOUNDED) =
  QCheck2.Test.make ~count:100
    ~name:(key ^ ": full -> drain -> full round-trips")
    QCheck2.Gen.(int_range 1 64)
    (fun capacity ->
      let q = Q.create ~capacity () in
      let fill tag =
        let n = ref 0 in
        while Q.try_enqueue q (tag + !n) do
          incr n
        done;
        !n
      in
      let drain tag n =
        List.for_all
          (fun i -> Q.try_dequeue q = Some (tag + i))
          (List.init n (fun i -> i))
        && Q.try_dequeue q = None
        && Q.is_empty q
      in
      let n1 = fill 0 in
      n1 = Q.capacity q
      && Q.length q = n1
      && (not (Q.try_enqueue q (-1)))
      (* a refused enqueue perturbs nothing *)
      && Q.length q = n1
      && drain 0 n1
      &&
      let n2 = fill 1000 in
      n2 = n1 && drain 1000 n2)

(* under 2-domain contention the physical bound holds at every sample:
   0 <= length <= capacity, and try_enqueue false never drops data.
   The consumer counts what it sees; producer acceptances minus
   consumer receipts must balance to zero once drained. *)
let test_bounded_contention key (module Q : Core.Queue_intf.BOUNDED) () =
  let capacity = 8 in
  let q = Q.create ~capacity () in
  let cap = Q.capacity q in
  let per = 20_000 in
  let accepted = Atomic.make 0 in
  let produced_done = Atomic.make false in
  (* the producer holds until the sampler has taken its first reading:
     domain spawn latency must not let the whole race finish unsampled *)
  let sampler_ready = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        while not (Atomic.get sampler_ready) do
          Domain.cpu_relax ()
        done;
        for i = 1 to per do
          if Q.try_enqueue q i then Atomic.incr accepted
        done;
        Atomic.set produced_done true)
  in
  let received = ref 0 in
  let last = ref 0 in
  let rec consume () =
    match Q.try_dequeue q with
    | Some v ->
        (* single producer: FIFO means the consumer sees an increasing
           sequence even though refusals punch holes in it *)
        if v <= !last then
          Alcotest.failf "%s: out of order: %d after %d" key v !last;
        last := v;
        incr received;
        consume ()
    | None ->
        if not (Atomic.get produced_done) then begin
          Domain.cpu_relax ();
          consume ()
        end
  in
  let sampler =
    Domain.spawn (fun () ->
        let samples = ref 0 in
        while not (Atomic.get produced_done) do
          let len = Q.length q in
          if len < 0 || len > cap then
            Alcotest.failf "%s: length %d outside [0, %d]" key len cap;
          incr samples;
          Atomic.set sampler_ready true
        done;
        !samples)
  in
  consume ();
  (* the producer may have raced one last acceptance past the final
     None; sweep the remainder *)
  Domain.join producer;
  let rec sweep () =
    match Q.try_dequeue q with
    | Some _ ->
        incr received;
        sweep ()
    | None -> ()
  in
  sweep ();
  let samples = Domain.join sampler in
  Alcotest.(check bool) (key ^ " sampled while racing") true (samples > 0);
  Alcotest.(check int)
    (key ^ " conservation: received = accepted")
    (Atomic.get accepted) !received;
  Alcotest.(check int) (key ^ " settles to empty") 0 (Q.length q)

(* ------------------------------------------------------------------ *)
(* Chaos-wrapped runs (Obs.Chaos): the same concurrent ordering
   property with seeded randomized delays injected at each algorithm's
   marked CAS/FAA windows and critical sections, stretching exactly the
   interleavings an unperturbed run rarely produces.  Smaller counts —
   each round is deliberately slow. *)

let prop_chaos_two_domain key (module Q : Core.Queue_intf.S) =
  let module C = Obs.Chaos.Make (Q) in
  QCheck2.Test.make ~count:6
    ~name:(key ^ ": 2-domain order under chaos delays")
    QCheck2.Gen.(list_size (int_range 1 250) int)
    (fun l ->
      Obs.Chaos.with_enabled (fun () ->
          two_domain_round (module C : Core.Queue_intf.S) l))

let prop_chaos_batch_conservation key (module Q : Core.Queue_intf.BATCH) =
  let module C = Obs.Chaos.Make_batch (Q) in
  QCheck2.Test.make ~count:6
    ~name:(key ^ ": 2-domain batch conservation under chaos delays")
    QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 1 300) int))
    (fun (batch, l) ->
      Obs.Chaos.with_enabled (fun () ->
          let q = C.create () in
          let total = List.length l in
          let producer =
            Domain.spawn (fun () ->
                List.iter (fun v -> C.enqueue_batch q [ v ]) l)
          in
          let consumed = ref [] in
          let got = ref 0 in
          while !got < total do
            match C.dequeue_batch q ~max:batch with
            | [] -> Domain.cpu_relax ()
            | chunk ->
                consumed := List.rev_append chunk !consumed;
                got := !got + List.length chunk
          done;
          Domain.join producer;
          List.rev !consumed = l && C.is_empty q))

let prop_chaos_bounded_conservation key (module Q : Core.Queue_intf.BOUNDED) =
  let module C = Obs.Chaos.Make_bounded (Q) in
  QCheck2.Test.make ~count:6
    ~name:(key ^ ": 2-domain bounded conservation under chaos delays")
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 2000))
    (fun (capacity, per) ->
      Obs.Chaos.with_enabled (fun () ->
          let q = C.create ~capacity () in
          let accepted = Atomic.make 0 in
          let fin = Atomic.make false in
          let producer =
            Domain.spawn (fun () ->
                for i = 1 to per do
                  if C.try_enqueue q i then Atomic.incr accepted
                done;
                Atomic.set fin true)
          in
          let received = ref 0 in
          let ok = ref true in
          let last = ref 0 in
          let rec consume () =
            match C.try_dequeue q with
            | Some v ->
                if v <= !last then ok := false;
                last := v;
                incr received;
                consume ()
            | None ->
                if not (Atomic.get fin) then begin
                  Domain.cpu_relax ();
                  consume ()
                end
          in
          consume ();
          Domain.join producer;
          let rec sweep () =
            match C.try_dequeue q with
            | Some _ ->
                incr received;
                sweep ()
            | None -> ()
          in
          sweep ();
          !ok && !received = Atomic.get accepted && C.is_empty q))

let chaos_injected_delays () =
  (* placed after the chaos properties: the workloads above must have
     actually crossed perturbed sites, or the suite tested nothing *)
  Alcotest.(check bool) "chaos rounds injected delays" true
    (Obs.Chaos.hits () > 0)

let () = Obs.Chaos.configure ~seed:0xC7A05EEDL ~one_in:3 ~max_delay:48 ()

(* ------------------------------------------------------------------ *)

let suites =
  let map_q f = List.map (fun (key, q) -> f key q) natives in
  let map_b f = List.map (fun (key, q) -> f key q) batch_natives in
  let map_bd f = List.map (fun (key, q) -> f key q) bounded_natives in
  let map_uv f = List.map (fun (key, q) -> f key q) unbounded_views in
  [
    ( "registry.fifo_order",
      map_q (fun k q -> QCheck_alcotest.to_alcotest (prop_fifo_order k q)) );
    ( "registry.drain_count",
      map_q (fun k q -> QCheck_alcotest.to_alcotest (prop_drain_count k q)) );
    ( "registry.length_model",
      map_q (fun k q -> QCheck_alcotest.to_alcotest (prop_length_consistent k q)) );
    ( "registry.two_domain_order",
      map_q (fun k q -> QCheck_alcotest.to_alcotest (prop_two_domain_order k q)) );
    ( "registry.length_bounds",
      map_q (fun k q -> Alcotest.test_case k `Slow (test_length_bounds k q)) );
    ( "registry.batch",
      map_b (fun k q -> QCheck_alcotest.to_alcotest (prop_batch_model k q))
      @ map_b (fun k q -> QCheck_alcotest.to_alcotest (prop_batch_boundaries k q))
      @ map_b (fun k q -> QCheck_alcotest.to_alcotest (prop_batch_two_domain k q))
    );
    ( "registry.bounded",
      map_bd (fun k q -> QCheck_alcotest.to_alcotest (prop_bounded_lossless k q))
      @ map_bd (fun k q ->
            QCheck_alcotest.to_alcotest (prop_bounded_refill k q))
      @ map_bd (fun k q ->
            Alcotest.test_case (k ^ " 2-domain bound/conservation") `Slow
              (test_bounded_contention k q))
      @ map_uv (fun k q ->
            QCheck_alcotest.to_alcotest (prop_bounded_lossless k q)) );
    ( "registry.chaos",
      map_q (fun k q -> QCheck_alcotest.to_alcotest (prop_chaos_two_domain k q))
      @ map_b (fun k q ->
            QCheck_alcotest.to_alcotest (prop_chaos_batch_conservation k q))
      @ map_bd (fun k q ->
            QCheck_alcotest.to_alcotest (prop_chaos_bounded_conservation k q))
      @ [
          Alcotest.test_case "delays were injected" `Quick
            chaos_injected_delays;
        ]
      @ map_uv (fun k q ->
            QCheck_alcotest.to_alcotest (prop_chaos_bounded_conservation k q))
    );
  ]
