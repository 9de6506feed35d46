(* Tests of the native spin locks (lib/locks): mutual exclusion over a
   deliberately non-atomic critical section, exception safety, lock
   independence, and backoff behaviour. *)

let all_locks : (string * (module Locks.Lock_intf.LOCK)) list =
  [
    ("tas", (module Locks.Tas_lock));
    ("ttas", (module Locks.Ttas_lock));
    ("ticket", (module Locks.Ticket_lock));
    ("mcs", (module Locks.Mcs_lock));
    ("clh", (module Locks.Clh_lock));
  ]

(* Mutual exclusion: racing non-atomic read-modify-write increments lose
   updates unless the lock serializes them. *)
let test_mutual_exclusion name (module L : Locks.Lock_intf.LOCK) () =
  let lock = L.create () in
  let counter = ref 0 in
  let domains = 4 and per = 5_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              L.with_lock lock (fun () ->
                  let v = !counter in
                  (* widen the race window *)
                  for _ = 1 to 5 do
                    Domain.cpu_relax ()
                  done;
                  counter := v + 1)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) (name ^ ": no lost updates") (domains * per) !counter

let test_exception_safety name (module L : Locks.Lock_intf.LOCK) () =
  let lock = L.create () in
  (try L.with_lock lock (fun () -> failwith "inside") with Failure _ -> ());
  (* if the lock leaked, this would deadlock; give it a watchdog *)
  let acquired = Atomic.make false in
  let d =
    Domain.spawn (fun () -> L.with_lock lock (fun () -> Atomic.set acquired true))
  in
  Domain.join d;
  Alcotest.(check bool) (name ^ ": released after exception") true (Atomic.get acquired)

let test_sequential_reacquire name (module L : Locks.Lock_intf.LOCK) () =
  let lock = L.create () in
  for i = 1 to 100 do
    let tok = L.acquire lock in
    if i mod 7 = 0 then ignore (Sys.opaque_identity i);
    L.release lock tok
  done;
  Alcotest.(check pass) (name ^ ": 100 acquire/release cycles") () ()

let test_independent_locks name (module L : Locks.Lock_intf.LOCK) () =
  (* holding one lock must not affect another *)
  let a = L.create () and b = L.create () in
  let tok_a = L.acquire a in
  let tok_b = L.acquire b in
  L.release a tok_a;
  L.release b tok_b;
  Alcotest.(check pass) (name ^ ": locks are independent") () ()

let test_ticket_fifo () =
  (* with a single domain repeatedly acquiring, tickets and serving stay
     in step; under domains we can at least assert progress for many
     acquisitions with handoffs *)
  let lock = Locks.Ticket_lock.create () in
  let order = ref [] in
  let mu = Mutex.create () in
  let ds =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            for k = 1 to 200 do
              Locks.Ticket_lock.with_lock lock (fun () ->
                  Mutex.lock mu;
                  order := (i, k) :: !order;
                  Mutex.unlock mu)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "every acquisition recorded" 600 (List.length !order)

let test_backoff_bounds () =
  let b = Locks.Backoff.create ~initial:4 ~limit:32 () in
  (* exercising many waits must terminate quickly (bounded growth) *)
  for _ = 1 to 100 do
    Locks.Backoff.once b
  done;
  Locks.Backoff.reset b;
  for _ = 1 to 10 do
    Locks.Backoff.once b
  done;
  Alcotest.(check pass) "bounded backoff terminates" () ()

let test_backoff_allocates_nothing () =
  let b = Locks.Backoff.create ~initial:1 ~limit:1 () in
  Locks.Backoff.once b;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Locks.Backoff.once b
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_call >= 0.01 then
    Alcotest.failf "Backoff.once allocates %.2f minor words per call" per_call

let test_backoff_invalid () =
  Alcotest.check_raises "bad params" (Invalid_argument "Backoff.create") (fun () ->
      ignore (Locks.Backoff.create ~initial:8 ~limit:4 ()))

(* The Probe disabled-path contract (see probe.mli): with no hook
   installed, [site]/[phase_begin]/[phase_end] are a single [bool ref]
   load and a branch, and [cas_retry] the same on [enabled] — no
   allocation, no table lookups, no clock reads.  Functionally: nothing
   is recorded.  Microbench-style: a disabled mark costs within noise
   of an opaque no-op call; the bound is deliberately generous (the
   point is catching an accidental hashtable or clock on the disabled
   path, which costs 10-100x, not measuring nanoseconds exactly). *)
let test_probe_disabled_functional () =
  Locks.Probe.clear_site_hook ();
  Locks.Probe.clear_profile_site_hook ();
  Locks.Probe.clear_phase_hook ();
  Locks.Probe.disable ();
  Locks.Probe.reset ();
  let before = Locks.Probe.totals () in
  for _ = 1 to 1_000 do
    Locks.Probe.site "t.disabled";
    Locks.Probe.phase_begin "t.disabled";
    Locks.Probe.phase_end "t.disabled";
    Locks.Probe.cas_retry ();
    Locks.Probe.backoff ();
    Locks.Probe.help ()
  done;
  let d = Locks.Probe.diff (Locks.Probe.totals ()) before in
  Alcotest.(check int) "no cas_retries recorded" 0 d.Locks.Probe.cas_retries;
  Alcotest.(check int) "no backoffs recorded" 0 d.Locks.Probe.backoffs;
  Alcotest.(check int) "no helps recorded" 0 d.Locks.Probe.helps

let assert_disabled_cost () =
  let n = 2_000_000 in
  let time f =
    (* best of 3: absorb scheduler preemptions on a shared core *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let noop = Sys.opaque_identity (fun () -> ()) in
  let baseline =
    time (fun () ->
        for _ = 1 to n do
          noop ()
        done)
  in
  let disabled =
    time (fun () ->
        for _ = 1 to n do
          Locks.Probe.site "t.cost";
          Locks.Probe.cas_retry ()
        done)
  in
  (* two disabled marks per iteration vs one opaque call: anything
     beyond ~20x baseline (or an absolute 100ns/iteration floor for
     very fast machines where baseline underflows timer resolution)
     means the disabled path grew real work *)
  let budget = Float.max (20. *. baseline) (100e-9 *. float_of_int n) in
  if disabled > budget then
    Alcotest.failf
      "disabled probe path too slow: %.1f ns/iter vs %.1f ns/iter baseline \
       (budget %.1f ns/iter)"
      (disabled *. 1e9 /. float_of_int n)
      (baseline *. 1e9 /. float_of_int n)
      (budget *. 1e9 /. float_of_int n)

let test_probe_disabled_cost () =
  Locks.Probe.clear_site_hook ();
  Locks.Probe.clear_profile_site_hook ();
  Locks.Probe.clear_phase_hook ();
  Locks.Probe.disable ();
  assert_disabled_cost ()

(* The flight recorder must not erode the disabled-path contract: after
   an enable/disable cycle (hooks installed into the flight slots, then
   removed) a mark must again be the single load-and-branch — the
   recompose must leave no wrapper closure, clock read or ring store
   behind.  Same budget as the plain disabled-cost test. *)
let test_flight_cycle_disabled_cost () =
  Obs.Flight.enable ();
  Locks.Probe.site "t.flight.cycle";
  Locks.Probe.phase_begin "t.flight.cycle";
  Locks.Probe.phase_end "t.flight.cycle";
  Obs.Flight.disable ();
  Locks.Probe.clear_site_hook ();
  Locks.Probe.clear_profile_site_hook ();
  Locks.Probe.clear_phase_hook ();
  Locks.Probe.disable ();
  assert_disabled_cost ()

(* Enabled side of the contract: probe marks land in the per-domain
   rings and come back out as Chrome-trace events. *)
let test_flight_records_probe_marks () =
  Obs.Flight.reset ();
  Obs.Flight.enable ();
  let before = Obs.Flight.recorded () in
  Locks.Probe.site "t.flight.site";
  Locks.Probe.phase_begin "t.flight.span";
  Locks.Probe.phase_end "t.flight.span";
  Obs.Flight.disable ();
  let n = Obs.Flight.recorded () - before in
  Alcotest.(check bool) "site + span recorded" true (n >= 3);
  match
    Obs.Json.member "traceEvents" (Obs.Flight.dump_json ~reason:"test" ())
  with
  | Some (Obs.Json.List evs) ->
      Alcotest.(check bool) "dump has events" true (List.length evs >= 3)
  | _ -> Alcotest.fail "dump has no traceEvents array"

let suites =
  let per_lock f label =
    List.map
      (fun (name, l) -> Alcotest.test_case name `Slow (f name l))
      all_locks
    |> fun cases -> (label, cases)
  in
  [
    per_lock test_mutual_exclusion "locks.mutual_exclusion";
    per_lock test_exception_safety "locks.exception_safety";
    ( "locks.basics",
      List.map
        (fun (name, l) ->
          Alcotest.test_case name `Quick (test_sequential_reacquire name l))
        all_locks
      @ List.map
          (fun (name, l) ->
            Alcotest.test_case (name ^ " independent") `Quick
              (test_independent_locks name l))
          all_locks );
    ( "locks.extras",
      [
        Alcotest.test_case "ticket all acquisitions" `Slow test_ticket_fifo;
        Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
        Alcotest.test_case "backoff allocates nothing" `Quick
          test_backoff_allocates_nothing;
        Alcotest.test_case "backoff invalid" `Quick test_backoff_invalid;
      ] );
    ( "locks.probe",
      [
        Alcotest.test_case "disabled path records nothing" `Quick
          test_probe_disabled_functional;
        Alcotest.test_case "disabled path is a single load" `Slow
          test_probe_disabled_cost;
        Alcotest.test_case "flight enable/disable leaves no residue" `Slow
          test_flight_cycle_disabled_cost;
        Alcotest.test_case "flight recorder captures probe marks" `Quick
          test_flight_records_probe_marks;
      ] );
  ]
