(* Aggregate runner: each test_* module contributes its suites. *)
let () =
  Alcotest.run "msqueue"
    (List.concat
       [
         Test_sim.suites;
         Test_squeues.suites;
         Test_core.suites;
         Test_locks.suites;
         Test_lincheck.suites;
         Test_mcheck.suites;
         Test_mcheck_native.suites;
         Test_harness.suites;
         Test_extensions.suites;
         Test_more.suites;
         Test_obs.suites;
         Test_faults.suites;
         Test_qcheck_queues.suites;
         Test_resilience.suites;
         Test_soak.suites;
         Test_fabric.suites;
         Test_telemetry.suites;
         Test_gate.suites;
       ])
