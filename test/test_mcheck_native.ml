(* Tests of the native-world model checking stack (the payoff of
   lib/core's ATOMIC functorization): Traced_atomic's primitives,
   Native_machine's stepping/trace contract, and Core_explore's
   exhaustive verdicts — the shipping queue functors are clean at small
   scope, the planted broken variant is caught with a replayable
   counterexample, and exploration is deterministic. *)

open Mcheck

(* ------------------------------------------------------------------ *)
(* Traced_atomic: outside a run, every primitive executes directly. *)

let test_traced_atomic_direct () =
  let a = Traced_atomic.make 1 in
  Alcotest.(check int) "get" 1 (Traced_atomic.get a);
  Traced_atomic.set a 2;
  Alcotest.(check int) "set visible" 2 (Traced_atomic.get a);
  Alcotest.(check int) "exchange returns old" 2 (Traced_atomic.exchange a 3);
  Alcotest.(check bool) "cas hit" true (Traced_atomic.compare_and_set a 3 4);
  Alcotest.(check bool) "cas miss" false (Traced_atomic.compare_and_set a 3 5);
  Alcotest.(check int) "faa returns old" 4 (Traced_atomic.fetch_and_add a 10);
  Traced_atomic.incr a;
  Traced_atomic.decr a;
  Alcotest.(check int) "incr/decr net zero" 14 (Traced_atomic.get a);
  (* relax outside a run is a no-op, not an unhandled effect *)
  Traced_atomic.relax ()

let test_traced_atomic_contended () =
  (* make_contended is plain make under tracing (no padding needed in a
     model), but must preserve the same cell semantics *)
  let a = Traced_atomic.make_contended "x" in
  Alcotest.(check string) "contended get" "x" (Traced_atomic.get a);
  Alcotest.(check bool) "contended cas" true
    (Traced_atomic.compare_and_set a "x" "y")

let test_traced_dls () =
  let key = Traced_atomic.dls_new (fun () -> ref 0) in
  let r = Traced_atomic.dls_get key in
  incr r;
  (* same slot on re-read for the same (driver) process *)
  Alcotest.(check int) "dls slot stable" 1 !(Traced_atomic.dls_get key)

(* ------------------------------------------------------------------ *)
(* Native_machine: one announce commits per step, traces render. *)

let test_machine_steps_and_trace () =
  Traced_atomic.reset_ids ();
  let a = Traced_atomic.make 0 in
  let m =
    Native_machine.start ()
      [|
        (fun () -> Traced_atomic.set a 1);
        (fun () -> ignore (Traced_atomic.get a));
      |]
  in
  Alcotest.(check (list int)) "both enabled" [ 0; 1 ] (Native_machine.enabled m);
  (* first activation suspends at the announce without executing it *)
  Alcotest.(check bool) "p0 suspends" true (Native_machine.step m 0 = `Ran);
  Alcotest.(check int) "set not yet committed" 0 (Traced_atomic.get a);
  (* the resume commits the set; the body then finishes *)
  Alcotest.(check bool) "p0 finishes" true (Native_machine.step m 0 = `Finished);
  Alcotest.(check int) "set committed" 1 (Traced_atomic.get a);
  ignore (Native_machine.step m 1);
  ignore (Native_machine.step m 1);
  Alcotest.(check bool) "all done" true (Native_machine.all_done m);
  Alcotest.(check (list string)) "trace in execution order"
    [ "p0: set c0"; "p1: get c0" ]
    (Native_machine.trace m)

let test_machine_pause_hint () =
  let m = Native_machine.start () [| (fun () -> Traced_atomic.relax ()) |] in
  (* the hint is reported at suspension, before the spin commits *)
  Alcotest.(check bool) "relax reports pause hint" true
    (Native_machine.step m 0 = `Pause_hint);
  Alcotest.(check bool) "spin commits and finishes" true
    (Native_machine.step m 0 = `Finished)

(* ------------------------------------------------------------------ *)
(* Exhaustive verdicts on the shipping queues. *)

let exhaustive_clean qname sname () =
  let q = Option.get (Core_explore.find_queue qname) in
  let s = Option.get (Core_explore.find_scenario sname) in
  let o = Core_explore.check q s in
  Alcotest.(check bool) "explored schedules" true (o.Explore.runs > 0);
  Alcotest.(check int) "no divergence" 0 o.Explore.diverged;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s violations" qname sname)
    0
    (List.length o.Explore.failures)

(* ------------------------------------------------------------------ *)
(* The bounded battery: SCQ's try_enqueue/try_dequeue at tiny
   capacities, judged by conservation plus the bounded sequential
   spec (Checker.check ~capacity). *)

let bounded_clean sname () =
  let q = Option.get (Core_explore.find_bqueue "scq") in
  let b = Option.get (Core_explore.find_bounded_scenario sname) in
  let o = Core_explore.check_bounded q b in
  Alcotest.(check bool) "explored schedules" true (o.Explore.runs > 0);
  Alcotest.(check int) "no divergence" 0 o.Explore.diverged;
  Alcotest.(check int)
    (Printf.sprintf "scq/%s violations" sname)
    0
    (List.length o.Explore.failures)

(* ------------------------------------------------------------------ *)
(* The checker checks: the planted D12 bug is caught, and its
   counterexample schedule replays to the same failure. *)

let test_broken_caught_and_replayable () =
  let s = Core_explore.pairs ~procs:2 ~ops:1 in
  let o = Core_explore.check Core_explore.broken s in
  Alcotest.(check bool) "planted bug caught" true (o.Explore.failures <> []);
  let f = List.hd o.Explore.failures in
  Alcotest.(check bool) "conservation oracle fired" true
    (String.length f.Explore.message > 0);
  Alcotest.(check bool) "operation trace recorded" true
    (f.Explore.trace <> []);
  match Core_explore.replay Core_explore.broken s f.Explore.schedule with
  | `Failed f' ->
      Alcotest.(check string) "replay reproduces the failure"
        f.Explore.message f'.Explore.message
  | `Completed | `Diverged ->
      Alcotest.fail "counterexample schedule did not reproduce the failure"

(* Same property for the bounded planted bug: SCQ without the cycle
   comparison on the slot claim deposits into an already-overrun slot
   and strands the value; one preemption in b-empty-race exposes it. *)
let test_broken_scq_caught_and_replayable () =
  let b = Option.get (Core_explore.find_bounded_scenario "b-empty-race") in
  let o = Core_explore.check_bounded Core_explore.broken_bounded b in
  Alcotest.(check bool) "planted bug caught" true (o.Explore.failures <> []);
  let f = List.hd o.Explore.failures in
  Alcotest.(check bool) "oracle message non-empty" true
    (String.length f.Explore.message > 0);
  Alcotest.(check bool) "operation trace recorded" true
    (f.Explore.trace <> []);
  match
    Core_explore.replay_bounded Core_explore.broken_bounded b
      f.Explore.schedule
  with
  | `Failed f' ->
      Alcotest.(check string) "replay reproduces the failure"
        f.Explore.message f'.Explore.message
  | `Completed | `Diverged ->
      Alcotest.fail "counterexample schedule did not reproduce the failure"

(* The length oracle reads the bound: an SCQ whose [length] over-counts
   by one is caught in b-length, where one item is live. *)
(* The planted SCQ must be the shipping one minus its bug: the body of
   [Broken_scq] against [Core.Scq_queue.Make]'s, compared as code —
   comments and blank lines dropped, probe marks and [name] skipped
   (the copy may omit them) — with the guard conjunct
   [entry_cycle r e < tcycle] deleted from the original.  An SCQ change
   that skips the planted copy fails here. *)

let strip_comments s =
  let n = String.length s and b = Buffer.create (String.length s) in
  let rec code i =
    if i < n then
      if s.[i] = '"' then begin
        Buffer.add_char b '"';
        str (i + 1)
      end
      else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then comment 1 (i + 2)
      else begin
        Buffer.add_char b s.[i];
        code (i + 1)
      end
  and str i =
    if i < n then begin
      Buffer.add_char b s.[i];
      if s.[i] = '\\' && i + 1 < n then begin
        Buffer.add_char b s.[i + 1];
        str (i + 2)
      end
      else if s.[i] = '"' then code (i + 1)
      else str (i + 1)
    end
  and comment depth i =
    if i < n then
      if s.[i] = '\n' then begin
        Buffer.add_char b '\n';
        comment depth (i + 1)
      end
      else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
        comment (depth + 1) (i + 2)
      else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      else comment depth (i + 1)
  in
  code 0;
  Buffer.contents b

let rtrim l =
  let k = ref (String.length l) in
  while !k > 0 && (l.[!k - 1] = ' ' || l.[!k - 1] = '\t') do
    decr k
  done;
  String.sub l 0 !k

(* The code lines of the module opened by [header] in [file], up to its
   column-0 [end]. *)
let code_lines ~file ~header =
  let rec after = function
    | [] -> Alcotest.failf "%s: no line %S" file header
    | l :: rest -> if l = header then rest else after rest
  in
  let rec upto acc = function
    | [] -> Alcotest.failf "%s: %S has no closing end" file header
    | "end" :: _ -> List.rev acc
    | l :: rest -> upto (l :: acc) rest
  in
  let body = upto [] (after (String.split_on_char '\n' (Specialize.read_file file))) in
  String.split_on_char '\n' (strip_comments (String.concat "\n" body))
  |> List.map rtrim
  |> List.filter (fun l ->
         let t = String.trim l in
         t <> ""
         && (not (Specialize.contains t "Locks.Probe."))
         && not (String.starts_with ~prefix:"let name =" t))

let guard = "entry_cycle r e < tcycle"

(* [lines] with the guard line deleted and the [&& ] that joined the
   next conjunct to it dropped. *)
let rec without_guard = function
  | [] -> Alcotest.failf "Scq_queue.Make: no %S conjunct line" guard
  | l :: next :: rest when String.trim l = guard ->
      let t = String.trim next in
      if not (String.starts_with ~prefix:"&& " t) then
        Alcotest.failf "the line after the guard is not a conjunct: %S" next;
      let indent = String.length next - String.length t in
      (String.make indent ' ' ^ String.sub t 3 (String.length t - 3)) :: rest
  | l :: rest -> l :: without_guard rest

let test_planted_scq_tracks_scq () =
  let shipped =
    code_lines ~file:"../lib/core/scq_queue.ml"
      ~header:"module Make (A : Atomic_intf.ATOMIC) = struct"
    |> without_guard
  in
  let planted =
    code_lines ~file:"../lib/mcheck/core_explore.ml"
      ~header:"module Broken_scq (A : Core.Atomic_intf.ATOMIC) = struct"
  in
  let rec compare_from i a b =
    match (a, b) with
    | [], [] -> ()
    | x :: a, y :: b ->
        if x <> y then
          Alcotest.failf
            "Broken_scq drifted from Scq_queue.Make at code line %d:\n\
             shipped: %s\n\
             planted: %s"
            i x y;
        compare_from (i + 1) a b
    | x :: _, [] -> Alcotest.failf "Broken_scq lacks code line %d: %s" i x
    | [], y :: _ -> Alcotest.failf "Broken_scq has extra code line %d: %s" i y
  in
  compare_from 1 shipped planted

let test_length_oracle_catches_overcount () =
  let module Q = (val Option.get (Core_explore.find_bqueue "scq")) in
  let module Over = struct
    include Q

    let length q = Q.length q + 1
  end in
  let b = Option.get (Core_explore.find_bounded_scenario "b-length") in
  let o = Core_explore.check_bounded (module Over) b in
  Alcotest.(check bool) "over-count caught" true (o.Explore.failures <> [])

(* ------------------------------------------------------------------ *)
(* Determinism: the same configuration explores the same schedule
   space, run to run — the property that makes counterexamples
   shareable. *)

let test_exploration_deterministic () =
  let q = Option.get (Core_explore.find_queue "ms") in
  let s = Option.get (Core_explore.find_scenario "enq-enq") in
  let o1 = Core_explore.check q s in
  let o2 = Core_explore.check q s in
  Alcotest.(check int) "same schedule count" o1.Explore.runs o2.Explore.runs;
  Alcotest.(check int) "same divergences" o1.Explore.diverged o2.Explore.diverged;
  Alcotest.(check int) "same failure count"
    (List.length o1.Explore.failures)
    (List.length o2.Explore.failures)

let test_random_deterministic () =
  let q = Option.get (Core_explore.find_queue "ms") in
  let s = Core_explore.pairs ~procs:3 ~ops:2 in
  let o1 = Core_explore.check_random ~runs:100 ~seed:42L q s in
  let o2 = Core_explore.check_random ~runs:100 ~seed:42L q s in
  Alcotest.(check int) "same runs" o1.Explore.runs o2.Explore.runs;
  Alcotest.(check int) "no violations" 0 (List.length o1.Explore.failures);
  Alcotest.(check int) "same failure count"
    (List.length o1.Explore.failures)
    (List.length o2.Explore.failures)

(* ------------------------------------------------------------------ *)

let battery qname =
  List.map
    (fun s ->
      let sname = s.Core_explore.sname in
      let speed =
        (* the larger pair workloads explore thousands of schedules *)
        if sname = "pairs-2x2" || sname = "pairs-3x1" then `Slow else `Quick
      in
      Alcotest.test_case
        (Printf.sprintf "%s clean under %s (exhaustive)" qname sname)
        speed
        (exhaustive_clean qname sname))
    Core_explore.scenarios

let suites =
  [
    ( "mcheck_native.traced_atomic",
      [
        Alcotest.test_case "primitives outside a run" `Quick
          test_traced_atomic_direct;
        Alcotest.test_case "make_contended semantics" `Quick
          test_traced_atomic_contended;
        Alcotest.test_case "dls slots" `Quick test_traced_dls;
      ] );
    ( "mcheck_native.machine",
      [
        Alcotest.test_case "step commits one announce" `Quick
          test_machine_steps_and_trace;
        Alcotest.test_case "relax pause hint" `Quick test_machine_pause_hint;
      ] );
    ("mcheck_native.ms", battery "ms");
    ("mcheck_native.scq", battery "scq");
    ( "mcheck_native.scq_bounded",
      List.map
        (fun b ->
          let sname = b.Core_explore.bname in
          Alcotest.test_case
            (Printf.sprintf "scq clean under %s (exhaustive, bounded spec)"
               sname)
            `Quick (bounded_clean sname))
        Core_explore.bounded_scenarios );
    ("mcheck_native.ms_counted", battery "ms-counted");
    ("mcheck_native.ms_hp", battery "ms-hp");
    ("mcheck_native.two_lock", battery "two-lock");
    ("mcheck_native.segmented", battery "segmented");
    ( "mcheck_native.oracle",
      [
        Alcotest.test_case "planted D12 bug caught and replayable" `Quick
          test_broken_caught_and_replayable;
        Alcotest.test_case "planted SCQ cycle bug caught and replayable"
          `Quick test_broken_scq_caught_and_replayable;
        Alcotest.test_case "planted SCQ is the shipping body minus its guard"
          `Quick test_planted_scq_tracks_scq;
        Alcotest.test_case "exploration deterministic" `Quick
          test_exploration_deterministic;
        Alcotest.test_case "random mode deterministic" `Quick
          test_random_deterministic;
        Alcotest.test_case "length oracle catches an over-count" `Quick
          test_length_oracle_catches_overcount;
      ] );
  ]
