(** Comparison of two [BENCH_queues.json] documents.

    The testable core behind [msq_check bench-diff OLD NEW] (regression
    gate) and [msq_check bench-summary NEW] (GitHub step-summary
    markdown).  Accepts schema version 8 only: the one document ever
    compared against is the committed schema-8 baseline.

    The gate runs on the deterministic simulator metric
    ([net_per_pair], net cycles per enqueue/dequeue pair, lower is
    better): identical seeds and scales reproduce identical numbers,
    so any drift past the threshold is a real change.  Native
    wall-clock throughput is reported but, being scheduler noise on a
    shared core, only gates under [~gate_native:true]. *)

type doc = {
  schema_version : int;
  pairs : int;  (** total_pairs per point — the run's scale *)
  smoke : bool;
  sim : (string * float) list;
      (** ["fig3/MS non-blocking/p4" -> net_per_pair] for every
          completed figure point; lower is better *)
  native : (string * float) list;
      (** [queue name -> pairs_per_second]; higher is better *)
  memory : (string * float) list;
      (** [queue name -> bytes_per_element] from the schema-5 [memory]
          section; lower is better.  Empty without that section. *)
  p999 : (string * float) list;
      (** latency tails in ns, lower better: ["fabric/<load>" ->
          sojourn_p999_ns] from the schema-7 [fabric.open_loop] points
          and ["soak/<queue>" -> deq_p999_ns] from the soak reports *)
  slo_failures : string list;
      (** fabric open-loop points whose own [slo_ok] verdict is false —
          an absolute gate carried by the document itself, independent
          of any baseline *)
  raw : Obs.Json.t;  (** the whole parsed document *)
}

(** The fabric's deterministic sim-scaling points
    (["fabric/sim/p8/sh8" -> net_per_pair]) are folded into [sim], so
    they inherit the ±gate and the missing-key gate unchanged. *)

val of_json : Obs.Json.t -> (doc, string) result
val of_string : string -> (doc, string) result
val load : string -> (doc, string) result
(** Read and parse a file; errors carry the path. *)

val validate_timeline : Obs.Json.t -> (unit, string) result
(** Shape-check a schema-8 [timeline] section (the {!Obs.Sampler}
    export): [t0_ns], positive [period_ns], and a [series] array whose
    members each carry a [name] and well-formed, time-ordered
    [points].  Values are never gated — the p999 and sim tables cover
    regressions — but a malformed dashboard export fails here. *)

type delta = {
  key : string;
  old_value : float;
  new_value : float;
  worse_pct : float;  (** signed; positive = NEW is worse than OLD *)
  regressed : bool;  (** gated metric, comparable scales, past threshold *)
}

type comparison = {
  max_regress : float;
  gate_native : bool;
  max_p999_regress : float;
  comparable : bool;
      (** OLD and NEW ran at the same pairs/smoke scale.  When false
          every delta is shown but none gates. *)
  sim_deltas : delta list;  (** worst first *)
  native_deltas : delta list;  (** worst first *)
  memory_deltas : delta list;
      (** bytes/element drift; informational — memory cost is a design
          property worth eyeballing, not a noisy metric to gate on *)
  p999_deltas : delta list;
      (** latency-tail drift (ns, lower better), gated at
          [max_p999_regress] — wall-clock and power-of-two bucketed, so
          the gate is wide by design: it exists to catch the
          latency-under-load knee moving by orders of magnitude, not
          percent jitter *)
  slo_failures : string list;
      (** copied from [new_doc]; any entry fails the gate *)
  missing : string list;  (** sim keys in OLD absent from NEW — gates *)
  added : string list;
}

val diff :
  ?max_regress:float ->
  ?gate_native:bool ->
  ?max_p999_regress:float ->
  old_doc:doc ->
  new_doc:doc ->
  unit ->
  comparison
(** [max_regress] defaults to 10 (percent); [gate_native] to false;
    [max_p999_regress] to 400 (percent). *)

val regressions : comparison -> delta list
val ok : comparison -> bool
(** No regressions (sim, gated-native, p999), no missing sim keys, and
    no failed SLO verdicts in NEW — the CI gate. *)

val pp : Format.formatter -> comparison -> unit
(** Terminal report, one line per compared point. *)

val markdown_summary : Format.formatter -> doc -> unit
(** GitHub-flavoured markdown for [$GITHUB_STEP_SUMMARY]: headline
    native pairs/second table; the bytes-per-element and steady-state
    allocation table when the document carries the schema-5 [memory]
    section; the soak verdicts; the fabric shard-scaling and
    latency-under-offered-load tables when it carries the schema-7
    [fabric] section; the per-window telemetry quantile table when it
    carries the schema-8 [timeline] section; and the 3 hottest simulated
    cache lines per queue when it carries the
    schema-4 [profile] section. *)
