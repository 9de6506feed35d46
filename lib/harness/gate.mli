(** The acceptance gates that span several modules, each one library
    function that [msq_check], the benchmark and the tests call alike.
    Every gate returns {!Verdict.t}s; where the judgement is cheap to
    separate it is a pure function of the measurement, so a test can
    feed it a planted defect.  Gates with a single subject live next to
    it: {!Crash_experiment.dichotomy}, {!Soak.verdicts} and
    [Mcheck.Core_explore.battery]. *)

(** {1 Fabric}

    The sharded fabric's three claims: the paper's pairs workload over
    the simulated keyed fabric (p = 8) costs at least 3x less per pair
    at >= 8 shards than at 1; both runs' heatmaps show every per-shard
    line written by one shard's processor set; and open-loop Poisson
    arrivals against a native bounded fabric keep sojourn p999 within
    500 ms at each offered load — generous, because CI shares one
    hardware core: the gate catches collapse (unbounded queueing), not
    drift. *)

type load = {
  label : string;  (** the point's [load_label] in the JSON *)
  rate : float;  (** offered arrivals per second *)
  skew : float;  (** Zipf key skew (0 = unkeyed) *)
  crash : bool;  (** fail-stop producer 0 mid-schedule, then resume *)
}

type fabric = {
  shards : int;
  pairs : int;
  single : Workload.measurement;  (** the 1-shard simulated run *)
  sharded : Workload.measurement;  (** the [shards]-shard simulated run *)
  open_loop : (load * Open_loop.result) list;
}

val fabric :
  ?quantum:int ->
  ?seed:int64 ->
  shards:int ->
  native_shards:int ->
  pairs:int ->
  arrivals:int ->
  load list ->
  fabric
(** Two simulated runs of [pairs] pairs ([?seed] and [?quantum] default
    to {!Params.default}'s), then [arrivals] open-loop arrivals per load
    against a [native_shards]-shard fabric of 4,096-slot shards (seed
    [?seed], default [0xFAB]). *)

val fabric_verdicts : fabric -> Verdict.t list
(** ["sim-scaling>=3x"] (holds trivially below 8 shards),
    ["writers-disjoint"], and one ["slo-p999@<rate>/s"] per load. *)

val fabric_json : fabric -> Obs.Json.t
(** The benchmark's schema-7 [fabric] section:
    [{sim_scaling, heatmap_disjoint, open_loop}]. *)

val fabric_check_json : fabric -> Obs.Json.t
(** {!fabric_json} preceded by [shards] and [speedup]: the
    [msq_check fabric --json] artifact. *)

val pp_fabric : Format.formatter -> fabric -> unit

(** {1 Telemetry} *)

val flight_dump : seed:int64 -> path:string -> Verdict.t list
(** Arm the flight recorder's anomaly latch at [path] and soak the
    planted bug ({!Soak.self_test}): the audit's anomaly must write a
    non-empty Chrome-trace document there. *)

type timeline = {
  json : Obs.Json.t;  (** the schema-8 [timeline] section *)
  openmetrics : string;
  fabric_run : Open_loop.result;
}

val timeline : seed:int64 -> pairs:int -> arrivals:int -> timeline
(** A live 5 ms sampler watches an instrumented ms queue hammered by
    two domains ([pairs] pairs each), then a 4-shard fabric under
    [arrivals] open-loop arrivals at 50k/s. *)

val timeline_verdicts : timeline -> Verdict.t list
(** The timeline validates under the schema-8 shape, has points, and
    its OpenMetrics rendering ends in [# EOF]. *)

val overhead_pct : ?pairs:int -> unit -> float
(** Enqueue / ~30 µs think / dequeue pairs on one MS queue (default
    5,000), best of 5 runs alternating telemetry off and on (flight
    recorder plus live sampler): the enabled run's extra cost in
    percent.  Wall-clock. *)

type telemetry = { verdicts : Verdict.t list; timeline : timeline }

val telemetry : seed:int64 -> flight_out:string -> telemetry
(** The three gates at [msq_check telemetry]'s scale: the flight dump
    to [flight_out], the timeline at 30,000 pairs and 2,000 arrivals,
    the overhead at 5,000 pairs within 2%. *)

(** {1 Chaos} *)

val chaos_queues : string -> (string * (module Core.Queue_intf.S)) list
(** Every unbounded native queue (["all"]) or the one named.  Raises
    [Invalid_argument] on a key with no unbounded view. *)

val chaos :
  ?ops:int ->
  ?rounds:int ->
  ?seed:int64 ->
  (string * (module Core.Queue_intf.S)) list ->
  Verdict.t list
(** Four domains run [ops] enqueue/dequeue pairs each (default 2,000)
    on each queue under {!Obs.Chaos.Make}, [rounds] times (default 4),
    chaos seeded with [?seed] (default {!Obs.Chaos.default}'s) at 1-in-4
    sites and 96-iteration bursts.  One verdict per queue, conservation
    and per-producer FIFO, and ["delays-injected"]. *)

(** {1 Native linearizability} *)

val native_lin_queue :
  ?rounds:int ->
  ?ops:int ->
  ?chaos:bool ->
  ?seed:int64 ->
  ?batch:(module Core.Queue_intf.BATCH) ->
  name:string ->
  (module Core.Queue_intf.BOUNDED) ->
  Verdict.t list
(** [rounds] (default 25) recorded histories of two domains doing [ops]
    (default 4) try_enqueue/try_dequeue rounds each, checked against the
    FIFO spec.  The queue is created at capacity 2; a finite one gets
    two enqueues per dequeue, so full verdicts occur, and the bounded
    spec.  [?batch] adds as many rounds of 3-element batches; [?chaos]
    wraps both in {!Obs.Chaos}, reseeded by [?seed].  Inconclusive
    rounds are counted, not failed. *)

val native_lin : ?chaos:bool -> ?seed:int64 -> string -> Verdict.t list
(** {!native_lin_queue} on a registry queue and its batch view; the
    ["fabric"] key checks [Fabric.Queue_fabric.Single_key], whose total
    FIFO order is the claim. *)

(** {1 Native model checking} *)

type mcheck = {
  verdicts : Verdict.t list;
  counterexample : string option;
      (** the first battery failure: queue, scenario, message, schedule
          and operation trace *)
}

val mcheck_native :
  ?preemptions:int ->
  ?depth_limit:int ->
  ?queue:string ->
  ?scenario:string ->
  self_test:bool ->
  unit ->
  (mcheck, string) result
(** [Mcheck.Core_explore.battery], one verdict per queue and scenario,
    plus with [self_test] one per planted bug that holds only if the bug
    was caught.  [Error] on an unknown queue or scenario name. *)
