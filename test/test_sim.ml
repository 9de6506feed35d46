(* Unit and property tests for the simulator substrate (lib/sim). *)

open Sim

let check = Alcotest.check
let cfg2 = Config.with_processors 2

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let master = Rng.create 7L in
  let a = Rng.split master in
  let b = Rng.split master in
  check Alcotest.bool "split streams differ" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_copy () =
  let a = Rng.create 9L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_mean () =
  let r = Rng.create 5L in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.int r 100
  done;
  let mean = float_of_int !sum /. float_of_int n in
  if mean < 45. || mean > 55. then Alcotest.failf "biased mean %.2f" mean

let test_rng_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* ------------------------------------------------------------------ *)
(* Word *)

let test_word_equal () =
  check Alcotest.bool "ints equal" true (Word.equal (Word.Int 3) (Word.Int 3));
  check Alcotest.bool "ints differ" false (Word.equal (Word.Int 3) (Word.Int 4));
  check Alcotest.bool "ptr counts matter" false
    (Word.equal (Word.ptr ~count:1 5) (Word.ptr ~count:2 5));
  check Alcotest.bool "ptr addrs matter" false
    (Word.equal (Word.ptr 5) (Word.ptr 6));
  check Alcotest.bool "ptr equal" true (Word.equal (Word.ptr ~count:7 5) (Word.ptr ~count:7 5));
  check Alcotest.bool "int vs ptr" false (Word.equal (Word.Int 0) (Word.ptr 0))

let test_word_null () =
  check Alcotest.bool "null is null" true (Word.is_null (Word.to_ptr (Word.null ~count:3)));
  check Alcotest.bool "null keeps count" true
    (Word.equal (Word.null ~count:3) (Word.Ptr { addr = Word.nil; count = 3 }))

let test_word_projections () =
  check Alcotest.int "to_int" 9 (Word.to_int (Word.Int 9));
  Alcotest.check_raises "to_int of ptr" (Invalid_argument "Word.to_int: pointer")
    (fun () -> ignore (Word.to_int (Word.ptr 1)));
  Alcotest.check_raises "to_ptr of int" (Invalid_argument "Word.to_ptr: integer")
    (fun () -> ignore (Word.to_ptr (Word.Int 1)))

(* ------------------------------------------------------------------ *)
(* Memory *)

let mem () = Memory.create ~n_processors:2

let test_memory_grow_read_write () =
  let m = mem () in
  let base = Memory.grow m 4 in
  check Alcotest.int "first address is 1" 1 base;
  check Alcotest.int "size" 4 (Memory.size m);
  Memory.write m ~proc:0 base (Word.Int 5);
  check Alcotest.bool "read back" true (Word.equal (Word.Int 5) (Memory.read m ~proc:1 base));
  check Alcotest.bool "fresh cells are zero" true
    (Word.equal Word.zero (Memory.read m ~proc:0 (base + 3)))

let test_memory_bounds () =
  let m = mem () in
  ignore (Memory.grow m 2);
  Alcotest.check_raises "address 0"
    (Invalid_argument "Memory: address 0 out of bounds (1..2)") (fun () ->
      ignore (Memory.read m ~proc:0 0));
  Alcotest.check_raises "address past end"
    (Invalid_argument "Memory: address 3 out of bounds (1..2)") (fun () ->
      ignore (Memory.read m ~proc:0 3))

let test_memory_cas () =
  let m = mem () in
  let a = Memory.grow m 1 in
  check Alcotest.bool "cas succeeds on match" true
    (Memory.cas m ~proc:0 a ~expected:Word.zero ~desired:(Word.Int 1));
  check Alcotest.bool "cas fails on mismatch" false
    (Memory.cas m ~proc:0 a ~expected:Word.zero ~desired:(Word.Int 2));
  check Alcotest.bool "value from winning cas" true
    (Word.equal (Word.Int 1) (Memory.read m ~proc:0 a))

let test_memory_cas_counted () =
  let m = mem () in
  let a = Memory.grow m 1 in
  Memory.write m ~proc:0 a (Word.ptr ~count:3 7);
  check Alcotest.bool "stale count fails" false
    (Memory.cas m ~proc:0 a ~expected:(Word.ptr ~count:2 7) ~desired:(Word.ptr 9));
  check Alcotest.bool "matching count succeeds" true
    (Memory.cas m ~proc:0 a ~expected:(Word.ptr ~count:3 7)
       ~desired:(Word.ptr ~count:4 9))

let test_memory_faa_swap_tas () =
  let m = mem () in
  let a = Memory.grow m 1 in
  check Alcotest.bool "faa returns old" true
    (Word.equal (Word.Int 0) (Memory.fetch_and_add m ~proc:0 a 5));
  check Alcotest.bool "faa applied" true
    (Word.equal (Word.Int 5) (Memory.read m ~proc:0 a));
  check Alcotest.bool "swap returns old" true
    (Word.equal (Word.Int 5) (Memory.swap m ~proc:0 a (Word.Int 9)));
  Memory.write m ~proc:0 a Word.zero;
  check Alcotest.bool "tas acquires free" true (Memory.test_and_set m ~proc:0 a);
  check Alcotest.bool "tas fails on held" false (Memory.test_and_set m ~proc:1 a)

let test_memory_faa_on_ptr () =
  let m = mem () in
  let a = Memory.grow m 1 in
  Memory.write m ~proc:0 a (Word.ptr 3);
  Alcotest.check_raises "faa on pointer" (Invalid_argument "Word.to_int: pointer")
    (fun () -> ignore (Memory.fetch_and_add m ~proc:0 a 1))

let test_ll_sc_basic () =
  let m = mem () in
  let a = Memory.grow m 1 in
  ignore (Memory.load_linked m ~proc:0 a);
  check Alcotest.bool "sc after ll succeeds" true
    (Memory.store_conditional m ~proc:0 a (Word.Int 1));
  check Alcotest.bool "sc without ll fails" false
    (Memory.store_conditional m ~proc:0 a (Word.Int 2))

let test_ll_sc_interference () =
  let m = mem () in
  let a = Memory.grow m 1 in
  ignore (Memory.load_linked m ~proc:0 a);
  Memory.write m ~proc:1 a (Word.Int 7);
  check Alcotest.bool "remote write breaks reservation" false
    (Memory.store_conditional m ~proc:0 a (Word.Int 1));
  ignore (Memory.load_linked m ~proc:0 a);
  ignore (Memory.cas m ~proc:1 a ~expected:(Word.Int 7) ~desired:(Word.Int 8));
  check Alcotest.bool "remote cas breaks reservation" false
    (Memory.store_conditional m ~proc:0 a (Word.Int 1))

let test_ll_sc_clear () =
  let m = mem () in
  let a = Memory.grow m 1 in
  ignore (Memory.load_linked m ~proc:0 a);
  Memory.clear_reservation m ~proc:0;
  check Alcotest.bool "cleared reservation fails sc" false
    (Memory.store_conditional m ~proc:0 a (Word.Int 1))

let test_ll_sc_other_address () =
  let m = mem () in
  let a = Memory.grow m 2 in
  ignore (Memory.load_linked m ~proc:0 a);
  Memory.write m ~proc:1 (a + 1) (Word.Int 7);
  check Alcotest.bool "unrelated write keeps reservation" true
    (Memory.store_conditional m ~proc:0 a (Word.Int 1))

(* ------------------------------------------------------------------ *)
(* Cache cost model *)

let test_cache_hit_miss () =
  let cfg = Config.with_processors 2 in
  let c = Cache.create cfg in
  let miss = Cache.read_cost c ~proc:0 ~addr:1 in
  check Alcotest.int "first read misses" cfg.Config.cache_miss_cost miss;
  let hit = Cache.read_cost c ~proc:0 ~addr:1 in
  check Alcotest.int "second read hits" cfg.Config.cache_hit_cost hit;
  check Alcotest.int "stats" 1 (Cache.misses c);
  check Alcotest.int "stats hits" 1 (Cache.hits c)

let test_cache_line_sharing () =
  let cfg = { (Config.with_processors 2) with line_words = 4 } in
  let c = Cache.create cfg in
  ignore (Cache.read_cost c ~proc:0 ~addr:1);
  check Alcotest.int "same line hits" cfg.Config.cache_hit_cost
    (Cache.read_cost c ~proc:0 ~addr:4);
  check Alcotest.int "next line misses" cfg.Config.cache_miss_cost
    (Cache.read_cost c ~proc:0 ~addr:5)

let test_cache_invalidation () =
  let cfg = Config.with_processors 4 in
  let c = Cache.create cfg in
  (* three readers share the line *)
  ignore (Cache.read_cost c ~proc:0 ~addr:1);
  ignore (Cache.read_cost c ~proc:1 ~addr:1);
  ignore (Cache.read_cost c ~proc:2 ~addr:1);
  let cost = Cache.write_cost c ~proc:3 ~addr:1 in
  check Alcotest.int "write invalidates three sharers"
    (cfg.Config.cache_miss_cost + (3 * cfg.Config.invalidate_cost))
    cost;
  check Alcotest.int "invalidation count" 3 (Cache.invalidations c);
  (* the writer is now sole owner *)
  check Alcotest.int "owner writes hit" cfg.Config.cache_hit_cost
    (Cache.write_cost c ~proc:3 ~addr:1)

let test_cache_rmw_never_free () =
  let cfg = Config.with_processors 2 in
  let c = Cache.create cfg in
  ignore (Cache.rmw_cost c ~proc:0 ~addr:1);
  let second = Cache.rmw_cost c ~proc:0 ~addr:1 in
  check Alcotest.int "sole owner rmw still pays atomic overhead"
    (cfg.Config.cache_hit_cost + cfg.Config.atomic_extra_cost)
    second

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_alloc_free_reuse () =
  let m = mem () in
  let h = Heap.create ~line_words:4 m in
  let a = Heap.alloc h 2 in
  Heap.free h ~addr:a ~size:2;
  let b = Heap.alloc h 2 in
  check Alcotest.int "freed block is reused" a b

let test_heap_alignment () =
  let m = mem () in
  let h = Heap.create ~line_words:4 m in
  let a = Heap.alloc h 2 in
  let b = Heap.alloc h 2 in
  check Alcotest.int "blocks are line-padded" 4 (b - a);
  check Alcotest.int "line-aligned" 0 ((a - 1) mod 4)

let test_heap_zeroing () =
  let m = mem () in
  let h = Heap.create m in
  let a = Heap.alloc h 1 in
  Memory.poke m a (Word.Int 42);
  Heap.free h ~addr:a ~size:1;
  let b = Heap.alloc h 1 in
  check Alcotest.bool "recycled cell is zeroed" true
    (Word.equal Word.zero (Memory.peek m b))

let test_heap_accounting () =
  let m = mem () in
  let h = Heap.create m in
  let a = Heap.alloc h 3 in
  check Alcotest.int "live" 3 (Heap.live_words h);
  Heap.free h ~addr:a ~size:3;
  check Alcotest.int "live after free" 0 (Heap.live_words h);
  check Alcotest.int "total" 3 (Heap.allocated_words h)

(* ------------------------------------------------------------------ *)
(* Engine: scheduling, preemption, stalls *)

let test_engine_single_process () =
  let eng = Engine.create Config.default in
  let a = Engine.setup_alloc eng 1 in
  let pid =
    Engine.spawn eng (fun () ->
        Api.write a (Word.Int 1);
        Api.work 100;
        Api.write a (Word.Int 2))
  in
  check Alcotest.bool "completed" true (Engine.run eng = Engine.Completed);
  check Alcotest.bool "final value" true (Word.equal (Word.Int 2) (Engine.peek eng a));
  check Alcotest.bool "finish time past work" true (Engine.finish_time eng pid >= 100)

let test_engine_faa_atomicity () =
  let eng = Engine.create (Config.with_processors 4) in
  let a = Engine.setup_alloc eng 1 in
  for _ = 1 to 8 do
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to 250 do
             ignore (Api.fetch_and_add a 1)
           done))
  done;
  ignore (Engine.run eng);
  check Alcotest.int "all increments applied" 2000 (Word.to_int (Engine.peek eng a))

let test_engine_deterministic () =
  let run () =
    let eng = Engine.create { cfg2 with quantum = 5_000 } in
    let a = Engine.setup_alloc eng 1 in
    for i = 1 to 4 do
      ignore
        (Engine.spawn eng (fun () ->
             for _ = 1 to 100 do
               ignore (Api.fetch_and_add a i);
               Api.work (10 * i)
             done))
    done;
    ignore (Engine.run eng);
    (Engine.elapsed eng, (Engine.stats eng).Stats.steps)
  in
  check
    Alcotest.(pair int int)
    "identical reruns" (run ()) (run ())

let test_engine_round_robin_spawn () =
  let eng = Engine.create cfg2 in
  (* four processes on two cpus: multiprogramming level 2 *)
  let finished = Array.make 4 false in
  for i = 0 to 3 do
    ignore (Engine.spawn eng (fun () -> Api.work 10; finished.(i) <- true))
  done;
  ignore (Engine.run eng);
  check Alcotest.bool "all ran" true (Array.for_all Fun.id finished)

let test_engine_quantum_preemption () =
  (* two processes on one cpu: without preemption the first would finish
     before the second starts; context switches must occur *)
  let cfg = { Config.default with quantum = 500 } in
  let eng = Engine.create cfg in
  for _ = 1 to 2 do
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to 100 do
             Api.work 50
           done))
  done;
  ignore (Engine.run eng);
  let s = Engine.stats eng in
  if s.Stats.context_switches < 5 then
    Alcotest.failf "expected many context switches, got %d" s.Stats.context_switches

let test_engine_stall () =
  let eng = Engine.create cfg2 in
  let p0 = Engine.spawn eng (fun () -> Api.work 10) in
  let p1 = Engine.spawn eng (fun () -> Api.work 10) in
  Engine.stall eng p0 1_000_000;
  ignore (Engine.run eng);
  check Alcotest.bool "stalled process finishes late" true
    (Engine.finish_time eng p0 >= 1_000_000);
  check Alcotest.bool "other process unaffected" true (Engine.finish_time eng p1 < 1_000)

let test_engine_plan_stall () =
  let eng = Engine.create cfg2 in
  let p0 =
    Engine.spawn eng (fun () ->
        for _ = 1 to 100 do
          Api.work 100
        done)
  in
  Engine.plan_stall eng p0 ~at:5_000 ~duration:500_000;
  ignore (Engine.run eng);
  check Alcotest.bool "planned stall delays finish" true
    (Engine.finish_time eng p0 >= 505_000)

let test_engine_kill () =
  let eng = Engine.create cfg2 in
  let a = Engine.setup_alloc eng 1 in
  let victim =
    Engine.spawn eng (fun () ->
        Api.work 1_000_000;
        Api.write a (Word.Int 99))
  in
  let other = Engine.spawn eng (fun () -> Api.work 10) in
  Engine.kill eng victim;
  check Alcotest.bool "completes without victim" true (Engine.run eng = Engine.Completed);
  check Alcotest.bool "victim never wrote" true (Word.equal Word.zero (Engine.peek eng a));
  check Alcotest.bool "other finished" true (Engine.finish_time eng other >= 0)

let test_engine_step_limit () =
  let eng = Engine.create cfg2 in
  let a = Engine.setup_alloc eng 1 in
  ignore
    (Engine.spawn eng (fun () ->
         (* spin forever on a flag nobody sets *)
         while Word.equal (Api.read a) Word.zero do
           Api.work 10
         done));
  check Alcotest.bool "step limit detected" true
    (Engine.run ~max_steps:10_000 eng = Engine.Step_limit)

let test_engine_exception_propagates () =
  let eng = Engine.create cfg2 in
  ignore (Engine.spawn eng (fun () -> failwith "boom"));
  Alcotest.check_raises "process exception re-raised" (Failure "boom") (fun () ->
      ignore (Engine.run eng))

let test_engine_clock_monotone_and_costs () =
  let eng = Engine.create Config.default in
  (* two separate allocations: two distinct cold lines *)
  let a = Engine.setup_alloc eng 1 in
  let b = Engine.setup_alloc eng 1 in
  let times = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         times := Api.now () :: !times;
         ignore (Api.read a);
         times := Api.now () :: !times;
         ignore (Api.cas b ~expected:Word.zero ~desired:(Word.Int 1));
         times := Api.now () :: !times));
  ignore (Engine.run eng);
  match !times with
  | [ t3; t2; t1 ] ->
      check Alcotest.bool "read charged" true (t2 > t1);
      check Alcotest.bool "cold cas costs more than cold read" true
        (t3 - t2 > t2 - t1)
  | _ -> Alcotest.fail "expected three timestamps"

let test_engine_self_ids () =
  let eng = Engine.create cfg2 in
  let ids = ref [] in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> ids := Api.self () :: !ids))
  done;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "distinct pids" [ 0; 1; 2 ]
    (List.sort compare !ids)

let test_engine_counters () =
  let eng = Engine.create cfg2 in
  ignore
    (Engine.spawn eng (fun () ->
         Api.count "foo";
         Api.count "foo";
         Api.count "bar"));
  ignore (Engine.run eng);
  let s = Engine.stats eng in
  check Alcotest.int "counter foo" 2 (Stats.counter s "foo");
  check Alcotest.int "counter bar" 1 (Stats.counter s "bar");
  check Alcotest.int "missing counter" 0 (Stats.counter s "baz")

let test_engine_alloc_effect () =
  let eng = Engine.create cfg2 in
  let result = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         let a = Api.alloc 2 in
         Api.write a (Word.Int 5);
         Api.write (a + 1) (Word.Int 6);
         result := Word.to_int (Api.read a) + Word.to_int (Api.read (a + 1))));
  ignore (Engine.run eng);
  check Alcotest.int "allocated cells usable" 11 !result

let test_engine_idle_jump () =
  (* Both processes on one cpu stalled: the clock must jump, not spin. *)
  let eng = Engine.create Config.default in
  let p0 = Engine.spawn eng (fun () -> Api.work 10) in
  Engine.stall eng p0 10_000_000;
  ignore (Engine.run ~max_steps:1_000 eng);
  check Alcotest.bool "completed by jumping" true (Engine.finish_time eng p0 >= 10_000_000)

let test_utilization () =
  (* a fully busy run has utilization 1; a long stall leaves its
     processor idle and drags utilization below 1 *)
  let eng = Engine.create Config.default in
  let pid = Engine.spawn eng (fun () -> Api.work 100) in
  Engine.stall eng pid 100_000;
  ignore (Engine.run eng);
  let u = Stats.utilization (Engine.stats eng) in
  if u >= 0.5 then Alcotest.failf "stalled run should be mostly idle, got %.2f" u;
  let eng = Engine.create Config.default in
  ignore (Engine.spawn eng (fun () -> Api.work 100));
  ignore (Engine.run eng);
  Alcotest.(check bool) "busy run fully utilized" true
    (Stats.utilization (Engine.stats eng) > 0.99)

(* A store to an address outside memory raises Memory's bounds error
   before the cache model sees it: the faulting operation is charged
   nothing and leaves no trace in the coherence directory. *)
let test_engine_bad_address_charges_nothing () =
  let ops =
    [
      ("write", fun addr -> Api.write addr (Word.Int 7));
      ("cas", fun addr -> ignore (Api.cas addr ~expected:Word.zero ~desired:(Word.Int 1)));
      ("faa", fun addr -> ignore (Api.fetch_and_add addr 1));
    ]
  in
  List.iter
    (fun (op_name, op) ->
      List.iter
        (fun bad ->
          let eng = Engine.create cfg2 in
          let a = Engine.setup_alloc eng 1 in
          let size = Memory.size (Engine.memory eng) in
          let addr = bad size in
          let name = Printf.sprintf "%s at %d" op_name addr in
          let cache_counts () =
            let s = Engine.stats eng in
            (s.Stats.cache_hits, s.Stats.cache_misses, s.Stats.invalidations)
          in
          let before = ref (-1, -1, -1) in
          ignore
            (Engine.spawn eng (fun () ->
                 ignore (Api.read a);
                 Api.write a (Word.Int 1);
                 before := cache_counts ();
                 op addr));
          Alcotest.check_raises (name ^ ": Memory's bounds error")
            (Invalid_argument
               (Printf.sprintf "Memory: address %d out of bounds (1..%d)" addr size))
            (fun () -> ignore (Engine.run eng));
          check
            Alcotest.(triple int int int)
            (name ^ ": hits, misses, invalidations unchanged")
            !before (cache_counts ()))
        [ (fun _ -> 0); (fun _ -> -8); (fun size -> size + 1) ])
    ops

(* Backoff (simulated) *)
let test_backoff_growth () =
  let eng = Engine.create Config.default in
  let elapsed_first = ref 0 and elapsed_all = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         let b = Backoff.create ~initial:16 ~limit:64 ~seed:1 () in
         let t0 = Api.now () in
         Backoff.once b;
         elapsed_first := Api.now () - t0;
         for _ = 1 to 20 do
           Backoff.once b
         done;
         elapsed_all := Api.now () - t0));
  ignore (Engine.run eng);
  check Alcotest.bool "first wait within initial bound" true (!elapsed_first <= 16);
  check Alcotest.bool "waits bounded by limit" true (!elapsed_all <= 16 + (20 * 65))

(* ------------------------------------------------------------------ *)
(* Property: Memory's operations agree with a reference model (a plain
   array of words) under random single-processor op sequences — the
   data semantics are exactly sequential when one processor runs. *)

let memory_op_gen n_cells =
  QCheck2.Gen.(
    let addr = int_range 1 n_cells in
    let word = oneof [ map (fun n -> Word.Int n) (int_range 0 9);
                       map (fun a -> Word.ptr a) (int_range 1 n_cells) ] in
    oneof
      [
        map (fun a -> `Read a) addr;
        map2 (fun a w -> `Write (a, w)) addr word;
        map3 (fun a e d -> `Cas (a, e, d)) addr word word;
        map2 (fun a d -> `Faa (a, d)) addr (int_range (-3) 3);
        map2 (fun a w -> `Swap (a, w)) addr word;
        map (fun a -> `Tas a) addr;
      ])

let qcheck_memory_model =
  let n_cells = 6 in
  QCheck2.Test.make ~count:300 ~name:"memory ops match a reference array model"
    QCheck2.Gen.(list_size (int_range 1 60) (memory_op_gen n_cells))
    (fun ops ->
      let m = Memory.create ~n_processors:1 in
      ignore (Memory.grow m n_cells);
      let model = Array.make n_cells Word.zero in
      List.for_all
        (fun op ->
          match op with
          | `Read a -> Word.equal (Memory.read m ~proc:0 a) model.(a - 1)
          | `Write (a, w) ->
              Memory.write m ~proc:0 a w;
              model.(a - 1) <- w;
              true
          | `Cas (a, e, d) ->
              let expected_ok = Word.equal model.(a - 1) e in
              let ok = Memory.cas m ~proc:0 a ~expected:e ~desired:d in
              if expected_ok then model.(a - 1) <- d;
              ok = expected_ok
          | `Faa (a, d) -> (
              match model.(a - 1) with
              | Word.Int n ->
                  let old = Memory.fetch_and_add m ~proc:0 a d in
                  model.(a - 1) <- Word.Int (n + d);
                  Word.equal old (Word.Int n)
              | Word.Ptr _ -> (
                  match Memory.fetch_and_add m ~proc:0 a d with
                  | exception Invalid_argument _ -> true
                  | _ -> false))
          | `Swap (a, w) ->
              let old = Memory.swap m ~proc:0 a w in
              let expected_old = model.(a - 1) in
              model.(a - 1) <- w;
              Word.equal old expected_old
          | `Tas a ->
              let was_free = Word.equal model.(a - 1) Word.zero in
              let got = Memory.test_and_set m ~proc:0 a in
              model.(a - 1) <- Word.Int 1;
              got = was_free)
        ops)

(* Property: the heap never hands out overlapping live blocks. *)
let qcheck_heap_no_overlap =
  QCheck2.Test.make ~count:100 ~name:"heap blocks never overlap while live"
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 1 5))
    (fun sizes ->
      let m = Memory.create ~n_processors:1 in
      let h = Heap.create ~line_words:4 m in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i size ->
          let addr = Heap.alloc h size in
          (* check overlap against every live block *)
          Hashtbl.iter
            (fun a s ->
              if addr < a + s && a < addr + size then ok := false)
            live;
          Hashtbl.add live addr size;
          (* free every third block to exercise recycling *)
          if i mod 3 = 2 then begin
            let victim = Hashtbl.fold (fun a s _ -> Some (a, s)) live None in
            match victim with
            | Some (a, s) ->
                Heap.free h ~addr:a ~size:s;
                Hashtbl.remove live a
            | None -> ()
          end)
        sizes;
      !ok)

(* Property: engine elapsed time is invariant under spawn order of
   identical processes (determinism beyond bit-equality of one run). *)
let qcheck_engine_monotone_work =
  QCheck2.Test.make ~count:50 ~name:"more work never finishes earlier"
    QCheck2.Gen.(int_range 1 1000)
    (fun w ->
      let run extra =
        let eng = Engine.create Config.default in
        ignore (Engine.spawn eng (fun () -> Api.work (w + extra)));
        ignore (Engine.run eng);
        Engine.elapsed eng
      in
      run 0 <= run 7)

(* ------------------------------------------------------------------ *)
(* Golden cycles: exact simulated cycle counts, pinned in a committed
   table (test/golden_cycles.ml).  Same-seed determinism within one
   build says nothing about a change to the engine; this table does.
   It covers the paper's workload for every algorithm of the figures
   and the scheduler's fault paths: a kill behind the front of a shared
   run queue, planned and host stalls, crash+restart, a bounded ring
   yielding while full under multiprogramming, and LL/SC reservation
   loss.  On a mismatch the test prints the whole actual table as
   OCaml source (see HACKING.md, "Golden cycles"). *)

let golden_pairs = 200

let golden_workloads () =
  List.concat_map
    (fun ({ key; algo } : Harness.Registry.entry) ->
      List.concat_map
        (fun p ->
          List.map
            (fun mpl ->
              let m =
                Harness.Workload.run algo
                  {
                    Harness.Params.default with
                    total_pairs = golden_pairs;
                    processors = p;
                    multiprogramming = mpl;
                  }
              in
              (Printf.sprintf "%s p%d mpl%d net_time" key p mpl, m.net_time))
            [ 1; 2; 3 ])
        [ 1; 2; 4; 8 ])
    Harness.Registry.all

(* [elapsed], then [finish_time] (-1 when the process never finished)
   and [ops_executed] of every listed process. *)
let golden_rows name eng pids =
  (name ^ " elapsed", Engine.elapsed eng)
  :: List.concat_map
       (fun pid ->
         let finish =
           try Engine.finish_time eng pid with Invalid_argument _ -> -1
         in
         [
           (Printf.sprintf "%s pid%d finish_time" name pid, finish);
           (Printf.sprintf "%s pid%d ops_executed" name pid,
            Engine.ops_executed eng pid);
         ])
       pids

let golden_engine () =
  Engine.create { (Config.with_processors 2) with quantum = 400 }

let faa_loop a n () =
  for _ = 1 to n do
    ignore (Api.fetch_and_add a 1);
    Api.work 60
  done

let golden_kill () =
  (* three processes share cpu 0: the middle one dies before the run,
     the last one mid-run at the hand of cpu 1's process *)
  let eng = golden_engine () in
  let a = Engine.setup_alloc eng 1 in
  let p0 = Engine.spawn ~cpu:0 eng (faa_loop a 30) in
  let p1 = Engine.spawn ~cpu:0 eng (faa_loop a 30) in
  let p2 = Engine.spawn ~cpu:0 eng (faa_loop a 30) in
  let p3 =
    Engine.spawn ~cpu:1 eng (fun () ->
        faa_loop a 15 ();
        Engine.kill eng p2;
        faa_loop a 20 ())
  in
  Engine.kill eng p1;
  ignore (Engine.run eng);
  golden_rows "kill" eng [ p0; p1; p2; p3 ]

let golden_stall () =
  let eng = golden_engine () in
  let a = Engine.setup_alloc eng 1 in
  let p0 = Engine.spawn ~cpu:0 eng (faa_loop a 40) in
  let p1 = Engine.spawn ~cpu:0 eng (faa_loop a 40) in
  let p2 = Engine.spawn ~cpu:1 eng (faa_loop a 40) in
  Engine.plan_stall eng p0 ~at:1_000 ~duration:5_000;
  Engine.plan_stall eng p2 ~at:2_000 ~duration:3_000;
  Engine.stall eng p1 700;
  ignore (Engine.run eng);
  golden_rows "stall" eng [ p0; p1; p2 ]

let golden_crash_restart () =
  let eng = golden_engine () in
  let a = Engine.setup_alloc eng 1 in
  let replacement = ref (-1) in
  let p0 = Engine.spawn ~cpu:0 eng (faa_loop a 30) in
  let p1 = Engine.spawn ~cpu:0 eng (faa_loop a 30) in
  let p2 = Engine.spawn ~cpu:1 eng (faa_loop a 10) in
  Engine.plan_crash_restart eng p0 ~after_ops:15 ~restart_after:20_000
    (fun () ->
      replacement := Api.self ();
      faa_loop a 10 ());
  Engine.plan_crash eng p2 ~after_ops:9;
  ignore (Engine.run eng);
  golden_rows "crash_restart" eng [ p0; p1; p2; !replacement ]

let golden_scq_full () =
  (* two producers per processor against slow consumers: the 4-slot
     ring fills and the producers yield to each other *)
  let eng = Engine.create { (Config.with_processors 2) with quantum = 2_000 } in
  let module Q = Squeues.Scq_queue in
  let q = Q.init ~options:{ Squeues.Intf.default_options with pool = 4 } eng in
  let producer base () =
    for k = 1 to 15 do
      Q.enqueue q (base + k)
    done
  in
  let consumer () =
    let got = ref 0 in
    while !got < 15 do
      match Q.dequeue q with
      | Some _ ->
          incr got;
          Api.work 300
      | None -> Api.work 50
    done
  in
  let p0 = Engine.spawn ~cpu:0 eng (producer 0) in
  let p1 = Engine.spawn ~cpu:0 eng (producer 100) in
  let p2 = Engine.spawn ~cpu:1 eng consumer in
  let p3 = Engine.spawn ~cpu:1 eng consumer in
  ignore (Engine.run eng);
  ("scq_full full_spins", Stats.counter (Engine.stats eng) "scq.full_spin")
  :: golden_rows "scq_full" eng [ p0; p1; p2; p3 ]

let golden_llsc () =
  (* cpu 0 increments by LL/SC; cpu 1's fetch&adds on the same word
     break its reservation *)
  let eng = Engine.create (Config.with_processors 2) in
  let a = Engine.setup_alloc eng 1 in
  let failures = ref 0 in
  let p0 =
    Engine.spawn ~cpu:0 eng (fun () ->
        for _ = 1 to 40 do
          let rec attempt () =
            let v = Word.to_int (Api.load_linked a) in
            Api.work 30;
            if not (Api.store_conditional a (Word.Int (v + 1))) then begin
              incr failures;
              attempt ()
            end
          in
          attempt ()
        done)
  in
  let p1 =
    Engine.spawn ~cpu:1 eng (fun () ->
        for _ = 1 to 40 do
          Api.work 45;
          ignore (Api.fetch_and_add a 1000)
        done)
  in
  ignore (Engine.run eng);
  ("llsc sc_failures", !failures)
  :: ("llsc final", Word.to_int (Engine.peek eng a))
  :: golden_rows "llsc" eng [ p0; p1 ]

let golden_actual () =
  golden_workloads () @ golden_kill () @ golden_stall ()
  @ golden_crash_restart () @ golden_scq_full () @ golden_llsc ()

let print_golden_table rows =
  print_string
    "(* Exact simulated cycles pinned by test_sim's \"golden cycles\" case;\n\
    \   regenerate only after a deliberate change to simulated timing\n\
    \   (HACKING.md, \"Golden cycles\"). *)\n\n\
     let table : (string * int) list =\n\
    \  [\n";
  List.iter (fun (k, v) -> Printf.printf "    (%S, %d);\n" k v) rows;
  print_string "  ]\n"

let test_golden_cycles () =
  let actual = golden_actual () in
  if actual <> Golden_cycles.table then begin
    let expected = Golden_cycles.table in
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k expected with
        | Some e when e = v -> ()
        | Some e -> Printf.printf "%s: expected %d, got %d\n" k e v
        | None -> Printf.printf "%s: not in the table (got %d)\n" k v)
      actual;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k actual) then Printf.printf "%s: no longer produced\n" k)
      expected;
    print_newline ();
    print_golden_table actual;
    Alcotest.fail "simulated cycles differ from test/golden_cycles.ml"
  end

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int mean" `Quick test_rng_int_mean;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
      ] );
    ( "sim.word",
      [
        Alcotest.test_case "equality" `Quick test_word_equal;
        Alcotest.test_case "null" `Quick test_word_null;
        Alcotest.test_case "projections" `Quick test_word_projections;
      ] );
    ( "sim.memory",
      [
        Alcotest.test_case "grow read write" `Quick test_memory_grow_read_write;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
        Alcotest.test_case "cas" `Quick test_memory_cas;
        Alcotest.test_case "cas counted" `Quick test_memory_cas_counted;
        Alcotest.test_case "faa swap tas" `Quick test_memory_faa_swap_tas;
        Alcotest.test_case "faa on pointer" `Quick test_memory_faa_on_ptr;
        Alcotest.test_case "ll/sc basic" `Quick test_ll_sc_basic;
        Alcotest.test_case "ll/sc interference" `Quick test_ll_sc_interference;
        Alcotest.test_case "ll/sc clear" `Quick test_ll_sc_clear;
        Alcotest.test_case "ll/sc other address" `Quick test_ll_sc_other_address;
      ] );
    ( "sim.cache",
      [
        Alcotest.test_case "hit miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "line sharing" `Quick test_cache_line_sharing;
        Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
        Alcotest.test_case "rmw never free" `Quick test_cache_rmw_never_free;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "alloc free reuse" `Quick test_heap_alloc_free_reuse;
        Alcotest.test_case "alignment" `Quick test_heap_alignment;
        Alcotest.test_case "zeroing" `Quick test_heap_zeroing;
        Alcotest.test_case "accounting" `Quick test_heap_accounting;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "single process" `Quick test_engine_single_process;
        Alcotest.test_case "faa atomicity" `Quick test_engine_faa_atomicity;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "round robin spawn" `Quick test_engine_round_robin_spawn;
        Alcotest.test_case "quantum preemption" `Quick test_engine_quantum_preemption;
        Alcotest.test_case "stall" `Quick test_engine_stall;
        Alcotest.test_case "planned stall" `Quick test_engine_plan_stall;
        Alcotest.test_case "kill" `Quick test_engine_kill;
        Alcotest.test_case "step limit" `Quick test_engine_step_limit;
        Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
        Alcotest.test_case "costs charged" `Quick test_engine_clock_monotone_and_costs;
        Alcotest.test_case "self ids" `Quick test_engine_self_ids;
        Alcotest.test_case "counters" `Quick test_engine_counters;
        Alcotest.test_case "alloc effect" `Quick test_engine_alloc_effect;
        Alcotest.test_case "idle jump" `Quick test_engine_idle_jump;
        Alcotest.test_case "bad address charges nothing" `Quick
          test_engine_bad_address_charges_nothing;
        Alcotest.test_case "backoff growth" `Quick test_backoff_growth;
        Alcotest.test_case "utilization" `Quick test_utilization;
      ] );
    ( "sim.properties",
      [
        QCheck_alcotest.to_alcotest qcheck_memory_model;
        QCheck_alcotest.to_alcotest qcheck_heap_no_overlap;
        QCheck_alcotest.to_alcotest qcheck_engine_monotone_work;
      ] );
    ("sim.golden", [ Alcotest.test_case "golden cycles" `Quick test_golden_cycles ]);
  ]
