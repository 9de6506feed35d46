(* Comparison of two BENCH_queues.json documents — the testable core
   behind [msq_check bench-diff] and [msq_check bench-summary].

   The gated metric is the deterministic simulator figure data
   (net_per_pair, cycles per enqueue/dequeue pair, lower is better):
   two runs at the same seed and scale produce identical numbers, so
   any drift is a real algorithmic change, not scheduler noise.  The
   native wall-clock throughput (pairs_per_second, higher is better)
   is reported alongside but only gated under [~gate_native:true] —
   on a timeshared core it is far too noisy to fail CI on. *)

module Json = Obs.Json

type doc = {
  schema_version : int;
  pairs : int;
  smoke : bool;
  sim : (string * float) list;  (** key -> net_per_pair, lower better *)
  native : (string * float) list;  (** key -> pairs_per_second, higher better *)
  memory : (string * float) list;
      (** key -> bytes_per_element, lower better (schema 5+; empty
          before) *)
  p999 : (string * float) list;
      (** key -> p999 latency in ns, lower better (schema 7+; fabric
          open-loop sojourns and soak dequeue tails) *)
  slo_failures : string list;
      (** fabric open-loop points whose own SLO verdict is false *)
  raw : Json.t;  (** the whole document, for the summary renderer *)
}

let opt_member path json = Json.member path json

let str_or ~default j k =
  match Option.bind (opt_member k j) Json.to_string_opt with
  | Some s -> s
  | None -> default

let int_or ~default j k =
  match Option.bind (opt_member k j) Json.to_int_opt with
  | Some i -> i
  | None -> default

let float_of j k = Option.bind (opt_member k j) Json.to_float_opt

let list_of j k =
  match Option.bind (opt_member k j) Json.to_list_opt with
  | Some l -> l
  | None -> []

(* One key per measured point: "fig3/MS non-blocking/p4".  Incomplete
   points (blocked or pool-exhausted runs) have no meaningful
   net_per_pair and are skipped. *)
let sim_points json =
  List.concat_map
    (fun fig ->
      let n = int_or ~default:0 fig "figure" in
      List.concat_map
        (fun series ->
          let algo = str_or ~default:"?" series "algorithm" in
          List.filter_map
            (fun point ->
              let completed =
                Option.bind (opt_member "completed" point) Json.to_bool_opt
                |> Option.value ~default:true
              in
              match float_of point "net_per_pair" with
              | Some v when completed ->
                  let p = int_or ~default:0 point "processors" in
                  Some (Printf.sprintf "fig%d/%s/p%d" n algo p, v)
              | _ -> None)
            (list_of series "points"))
        (list_of fig "series"))
    (list_of json "figures")

let native_points json =
  List.filter_map
    (fun entry ->
      let name = str_or ~default:"?" entry "name" in
      match float_of entry "pairs_per_second" with
      | Some v -> Some (name, v)
      | None -> None)
    (list_of json "native")

let memory_points json =
  match opt_member "memory" json with
  | None -> []
  | Some memory ->
      List.filter_map
        (fun entry ->
          let name = str_or ~default:"?" entry "queue" in
          match float_of entry "bytes_per_element" with
          | Some v -> Some (name, v)
          | None -> None)
        (list_of memory "native")

(* Schema-7 fabric section.  The simulated scaling points are folded
   into the [sim] table (same determinism, same ±10% gate and
   missing-key gate as the figure data); the open-loop sojourn tails
   and the soak dequeue tails form the separate [p999] table, gated
   with a much wider tolerance since they come from wall-clock runs. *)

let fabric_member doc = opt_member "fabric" doc

let fabric_sim_points json =
  match fabric_member json with
  | None -> []
  | Some fabric ->
      List.filter_map
        (fun point ->
          let completed =
            Option.bind (opt_member "completed" point) Json.to_bool_opt
            |> Option.value ~default:true
          in
          match float_of point "net_per_pair" with
          | Some v when completed ->
              Some
                ( Printf.sprintf "fabric/sim/p%d/sh%d"
                    (int_or ~default:0 point "processors")
                    (int_or ~default:0 point "shards"),
                  v )
          | _ -> None)
        (list_of fabric "sim_scaling")

let fabric_open_loop json =
  match fabric_member json with
  | None -> []
  | Some fabric -> list_of fabric "open_loop"

let open_loop_label point =
  str_or ~default:"?" point "load_label"

let p999_points json =
  let fabric =
    List.filter_map
      (fun point ->
        match float_of point "sojourn_p999_ns" with
        | Some v when v > 0. ->
            Some (Printf.sprintf "fabric/%s" (open_loop_label point), v)
        | _ -> None)
      (fabric_open_loop json)
  in
  let soak =
    match opt_member "soak" json with
    | None -> []
    | Some soak ->
        List.filter_map
          (fun e ->
            match float_of e "deq_p999_ns" with
            | Some v when v > 0. ->
                Some
                  (Printf.sprintf "soak/%s" (str_or ~default:"?" e "queue"), v)
            | _ -> None)
          (list_of soak "native")
  in
  fabric @ soak

(* Schema-8 timeline section: the sampler's export.  Never gated on
   values — regressions in sampled series are covered by the p999 and
   sim tables — but [validate_timeline] checks the shape, so a future
   emitter change cannot silently ship an unparseable dashboard. *)

let timeline_member doc = opt_member "timeline" doc

let validate_timeline json =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match Option.bind (opt_member "t0_ns" json) Json.to_int_opt with
  | None -> err "timeline: missing t0_ns"
  | Some _ -> (
      match Option.bind (opt_member "period_ns" json) Json.to_int_opt with
      | None -> err "timeline: missing period_ns"
      | Some p when p <= 0 -> err "timeline: non-positive period_ns %d" p
      | Some _ -> (
          match Option.bind (opt_member "series" json) Json.to_list_opt with
          | None -> err "timeline: missing series"
          | Some series ->
              let check_series s =
                match Option.bind (opt_member "name" s) Json.to_string_opt with
                | None -> err "timeline: series without a name"
                | Some name -> (
                    match
                      Option.bind (opt_member "points" s) Json.to_list_opt
                    with
                    | None -> err "timeline: %s: missing points" name
                    | Some points ->
                        let rec go prev = function
                          | [] -> Ok ()
                          | pt :: rest -> (
                              match
                                ( float_of pt "t_ms",
                                  float_of pt "v" )
                              with
                              | Some t, Some _ ->
                                  if t < prev then
                                    err
                                      "timeline: %s: timestamps go backwards \
                                       (%g after %g)"
                                      name t prev
                                  else go t rest
                              | _ -> err "timeline: %s: malformed point" name)
                        in
                        go neg_infinity points)
              in
              List.fold_left
                (fun acc s ->
                  match acc with Error _ -> acc | Ok () -> check_series s)
                (Ok ()) series))

let slo_failure_points json =
  List.filter_map
    (fun point ->
      match Option.bind (opt_member "slo_ok" point) Json.to_bool_opt with
      | Some false -> Some (Printf.sprintf "fabric/%s" (open_loop_label point))
      | _ -> None)
    (fabric_open_loop json)

let schema = 8

let of_json json =
  match Option.bind (opt_member "schema_version" json) Json.to_int_opt with
  | None -> Error "missing schema_version"
  | Some v when v <> schema ->
      Error
        (Printf.sprintf "unsupported schema_version %d (supported: %d)" v
           schema)
  | Some v ->
      Ok
        {
          schema_version = v;
          pairs = int_or ~default:0 json "pairs";
          smoke =
            Option.bind (opt_member "smoke" json) Json.to_bool_opt
            |> Option.value ~default:false;
          sim = sim_points json @ fabric_sim_points json;
          native = native_points json;
          memory = memory_points json;
          p999 = p999_points json;
          slo_failures = slo_failure_points json;
          raw = json;
        }

let of_string s =
  match Json.of_string_opt s with
  | None -> Error "not valid JSON"
  | Some j -> of_json j

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
      match of_string s with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok d -> Ok d)

(* ------------------------------------------------------------------ *)
(* Diff *)

type delta = {
  key : string;
  old_value : float;
  new_value : float;
  worse_pct : float;  (** signed; positive = NEW is worse than OLD *)
  regressed : bool;
}

type comparison = {
  max_regress : float;
  gate_native : bool;
  max_p999_regress : float;
  comparable : bool;
      (** same pairs/smoke scale — net_per_pair comparisons across
          different scales are still shown but never gate *)
  sim_deltas : delta list;  (** sorted worst-first *)
  native_deltas : delta list;
  memory_deltas : delta list;  (** bytes/element; informational, never gated *)
  p999_deltas : delta list;
      (** latency tails (ns, lower better); gated at [max_p999_regress] *)
  slo_failures : string list;  (** NEW doc's own failed SLO verdicts; gate *)
  missing : string list;  (** sim keys in OLD absent from NEW *)
  added : string list;
}

let pct ~worse_when_new_is ~old_value ~new_value =
  if old_value = 0. then 0.
  else
    let change = (new_value -. old_value) /. old_value *. 100. in
    match worse_when_new_is with `Higher -> change | `Lower -> -.change

let diff ?(max_regress = 10.) ?(gate_native = false) ?(max_p999_regress = 400.)
    ~old_doc ~new_doc () =
  let comparable =
    old_doc.pairs = new_doc.pairs && old_doc.smoke = new_doc.smoke
  in
  let mk ~threshold gate worse_when_new_is (key, old_value) new_value =
    let worse_pct = pct ~worse_when_new_is ~old_value ~new_value in
    { key; old_value; new_value; worse_pct;
      regressed = gate && comparable && worse_pct > threshold }
  in
  let join ?(threshold = max_regress) gate worse old_points new_points =
    List.filter_map
      (fun ((key, _) as o) ->
        Option.map (mk ~threshold gate worse o) (List.assoc_opt key new_points))
      old_points
    |> List.sort (fun a b -> Float.compare b.worse_pct a.worse_pct)
  in
  let sim_deltas = join true `Higher old_doc.sim new_doc.sim in
  let native_deltas = join gate_native `Lower old_doc.native new_doc.native in
  let memory_deltas = join false `Higher old_doc.memory new_doc.memory in
  (* latency tails are wall-clock (bucketed to powers of two on top),
     so the relative gate is wide by default: it exists to catch
     order-of-magnitude knees, not percent drift *)
  let p999_deltas =
    join ~threshold:max_p999_regress true `Higher old_doc.p999 new_doc.p999
  in
  let missing =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k new_doc.sim then None else Some k)
      old_doc.sim
  in
  let added =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k old_doc.sim then None else Some k)
      new_doc.sim
  in
  { max_regress; gate_native; max_p999_regress; comparable; sim_deltas;
    native_deltas; memory_deltas; p999_deltas;
    slo_failures = new_doc.slo_failures; missing; added }

let regressions c =
  List.filter (fun d -> d.regressed)
    (c.sim_deltas @ c.native_deltas @ c.p999_deltas)

let ok c = regressions c = [] && c.missing = [] && c.slo_failures = []

let pp fmt c =
  let open Format in
  fprintf fmt "@[<v>";
  if not c.comparable then
    fprintf fmt
      "note: runs are at different scales (pairs/smoke differ); deltas shown \
       but not gated@ ";
  let row d =
    fprintf fmt "  %s %-38s %12.1f -> %12.1f  (%+.1f%%)@ "
      (if d.regressed then "REGRESS" else "ok     ")
      d.key d.old_value d.new_value d.worse_pct
  in
  fprintf fmt "simulated net cycles/pair (lower is better, gate %.1f%%):@ "
    c.max_regress;
  List.iter row c.sim_deltas;
  if c.native_deltas <> [] then begin
    fprintf fmt "native pairs/second (higher is better%s):@ "
      (if c.gate_native then ", gated" else ", informational");
    List.iter row c.native_deltas
  end;
  if c.memory_deltas <> [] then begin
    fprintf fmt "memory bytes/element (lower is better, informational):@ ";
    List.iter row c.memory_deltas
  end;
  if c.p999_deltas <> [] then begin
    fprintf fmt "p999 latency ns (lower is better, gate %.0f%%):@ "
      c.max_p999_regress;
    List.iter row c.p999_deltas
  end;
  List.iter
    (fun k -> fprintf fmt "  SLO-FAIL %s (NEW run missed its own SLO)@ " k)
    c.slo_failures;
  List.iter (fun k -> fprintf fmt "  MISSING %s (in OLD, absent from NEW)@ " k)
    c.missing;
  List.iter (fun k -> fprintf fmt "  new     %s@ " k) c.added;
  let r = List.length (regressions c) in
  if ok c then fprintf fmt "bench-diff: OK@ "
  else
    fprintf fmt "bench-diff: FAIL (%d regression(s), %d missing, %d SLO)@ " r
      (List.length c.missing)
      (List.length c.slo_failures);
  fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Step summary: GitHub-flavoured markdown for $GITHUB_STEP_SUMMARY.
   Headline native throughput plus, when the document carries the
   schema-4 [profile] section, the top hottest simulated cache lines
   per queue. *)

let heatmap_entries doc =
  match opt_member "profile" doc.raw with
  | None -> []
  | Some profile ->
      List.filter_map
        (fun entry ->
          let queue = str_or ~default:"?" entry "queue" in
          let procs = int_or ~default:0 entry "processors" in
          match list_of entry "lines" with
          | [] -> None
          | lines -> Some (queue, procs, lines))
        (list_of profile "sim_heatmaps")

let memory_entries doc =
  match opt_member "memory" doc.raw with
  | None -> []
  | Some memory -> list_of memory "native"

let soak_entries doc =
  match opt_member "soak" doc.raw with
  | None -> ([], [])
  | Some soak -> (list_of soak "native", list_of soak "sim")

let markdown_summary fmt doc =
  let open Format in
  let top = 3 in
  fprintf fmt "## Benchmark summary@.@.";
  fprintf fmt "schema_version %d, %d pairs/point%s@.@." doc.schema_version
    doc.pairs
    (if doc.smoke then " (smoke subset)" else "");
  if doc.native <> [] then begin
    fprintf fmt "### Native throughput (2 domains)@.@.";
    fprintf fmt "| queue | pairs/second |@.|---|---:|@.";
    List.iter
      (fun (name, v) -> fprintf fmt "| %s | %.0f |@." name v)
      (List.sort
         (fun (_, a) (_, b) -> Float.compare b a)
         doc.native);
    fprintf fmt "@."
  end;
  (match memory_entries doc with
  | [] -> ()
  | entries ->
      fprintf fmt "### Memory footprint (live heap, single domain)@.@.";
      fprintf fmt
        "| queue | bytes/element | steady alloc (words/pair) |@.|---|---:|---:|@.";
      List.iter
        (fun e ->
          let name = str_or ~default:"?" e "queue" in
          let bpe =
            Option.value ~default:0. (float_of e "bytes_per_element")
          in
          let wpp =
            Option.value ~default:0. (float_of e "steady_words_per_pair")
          in
          fprintf fmt "| %s | %.1f | %.1f |@." name bpe wpp)
        entries;
      fprintf fmt "@.");
  (match soak_entries doc with
  | [], [] -> ()
  | natives, sims ->
      fprintf fmt "### Soak (chaos storms + crash/restart)@.@.";
      if natives <> [] then begin
        fprintf fmt
          "| queue | crashes | restarts | timeouts | sheds | rejections | \
           breaker trips | recoveries | verdict |@.";
        fprintf fmt "|---|---:|---:|---:|---:|---:|---:|---:|---|@.";
        List.iter
          (fun e ->
            let o =
              Option.value ~default:(Json.Assoc []) (opt_member "outcomes" e)
            in
            let passed =
              Option.bind (opt_member "passed" e) Json.to_bool_opt
              |> Option.value ~default:false
            in
            fprintf fmt "| %s | %d | %d | %d | %d | %d | %d | %d | %s |@."
              (str_or ~default:"?" e "queue")
              (int_or ~default:0 e "crashes")
              (int_or ~default:0 e "restarts")
              (int_or ~default:0 o "timeouts")
              (int_or ~default:0 o "sheds")
              (int_or ~default:0 o "rejections")
              (int_or ~default:0 o "breaker_trips")
              (int_or ~default:0 o "breaker_recoveries")
              (if passed then "ok" else "FAILED"))
          natives;
        fprintf fmt "@."
      end;
      if sims <> [] then begin
        fprintf fmt "| simulated algorithm | crash at op | outcome | ok |@.";
        fprintf fmt "|---|---:|---|---|@.";
        List.iter
          (fun e ->
            let ok =
              Option.bind (opt_member "ok" e) Json.to_bool_opt
              |> Option.value ~default:false
            in
            fprintf fmt "| %s | %d | %s | %s |@."
              (str_or ~default:"?" e "algorithm")
              (int_or ~default:0 e "crash_after")
              (str_or ~default:"?" e "outcome")
              (if ok then "ok" else "FAILED"))
          sims;
        fprintf fmt "@."
      end);
  (match (fabric_member doc.raw, fabric_open_loop doc.raw) with
  | None, _ -> ()
  | Some fabric, open_loop ->
      fprintf fmt "### Fabric: latency under offered load (open loop)@.@.";
      (match list_of fabric "sim_scaling" with
      | [] -> ()
      | points ->
          fprintf fmt "| shards | processors | net cycles/pair |@.|---:|---:|---:|@.";
          List.iter
            (fun p ->
              fprintf fmt "| %d | %d | %.0f |@."
                (int_or ~default:0 p "shards")
                (int_or ~default:0 p "processors")
                (Option.value ~default:0. (float_of p "net_per_pair")))
            points;
          fprintf fmt "@.");
      if open_loop <> [] then begin
        fprintf fmt
          "| load | offered/s | achieved/s | enq | refused | sojourn p50 ns | \
           p99 ns | p999 ns | SLO |@.";
        fprintf fmt "|---|---:|---:|---:|---:|---:|---:|---:|---|@.";
        List.iter
          (fun p ->
            let slo =
              match Option.bind (opt_member "slo_ok" p) Json.to_bool_opt with
              | Some true -> "ok"
              | Some false -> "FAILED"
              | None -> "—"
            in
            fprintf fmt "| %s | %.0f | %.0f | %d | %d | %d | %d | %d | %s |@."
              (open_loop_label p)
              (Option.value ~default:0. (float_of p "offered_per_sec"))
              (Option.value ~default:0. (float_of p "achieved_per_sec"))
              (int_or ~default:0 p "enqueued")
              (int_or ~default:0 p "refused")
              (int_or ~default:0 p "sojourn_p50_ns")
              (int_or ~default:0 p "sojourn_p99_ns")
              (int_or ~default:0 p "sojourn_p999_ns")
              slo)
          open_loop;
        fprintf fmt "@."
      end);
  (match timeline_member doc.raw with
  | None -> ()
  | Some timeline ->
      let series = list_of timeline "series" in
      let quantile_of s =
        Option.bind (opt_member "labels" s) (fun l ->
            Option.bind (opt_member "quantile" l) Json.to_string_opt)
      in
      let vals s =
        List.filter_map (fun p -> float_of p "v") (list_of s "points")
      in
      (* group the quantile-labelled series (the windowed histograms)
         by name: one row per histogram, last-window and worst-window
         quantiles across the run *)
      let names =
        List.fold_left
          (fun acc s ->
            match
              (quantile_of s, Option.bind (opt_member "name" s) Json.to_string_opt)
            with
            | Some _, Some n when not (List.mem n acc) -> acc @ [ n ]
            | _ -> acc)
          [] series
      in
      if names <> [] then begin
        fprintf fmt "### Telemetry timeline (windowed quantiles)@.@.";
        fprintf fmt "sampled every %.1f ms, %d series total@.@."
          (float_of_int (int_or ~default:0 timeline "period_ns") /. 1e6)
          (List.length series);
        fprintf fmt
          "| series | windows | p50 (last) | p99 (last) | p999 (last) | p999 \
           (max) |@.";
        fprintf fmt "|---|---:|---:|---:|---:|---:|@.";
        List.iter
          (fun name ->
            let find q =
              List.find_opt
                (fun s ->
                  quantile_of s = Some q
                  && Option.bind (opt_member "name" s) Json.to_string_opt
                     = Some name)
                series
            in
            let last q =
              match Option.map vals (find q) with
              | Some (_ :: _ as vs) -> List.nth vs (List.length vs - 1)
              | _ -> 0.
            in
            let p999s = match Option.map vals (find "0.999") with
              | Some vs -> vs
              | None -> []
            in
            fprintf fmt "| %s | %d | %.0f | %.0f | %.0f | %.0f |@." name
              (List.length p999s) (last "0.5") (last "0.99") (last "0.999")
              (List.fold_left Float.max 0. p999s))
          names;
        fprintf fmt "@."
      end);
  (match heatmap_entries doc with
  | [] -> ()
  | entries ->
      fprintf fmt "### Hottest cache lines (simulated)@.@.";
      fprintf fmt "| queue | line | cycles | misses | invalidations |@.";
      fprintf fmt "|---|---|---:|---:|---:|@.";
      List.iter
        (fun (queue, procs, lines) ->
          List.iteri
            (fun i line ->
              if i < top then
                let label =
                  match
                    Option.bind (opt_member "label" line) Json.to_string_opt
                  with
                  | Some l -> l
                  | None ->
                      Printf.sprintf "line %d" (int_or ~default:0 line "line")
                in
                fprintf fmt "| %s (p=%d) | %s | %d | %d | %d |@."
                  queue procs label
                  (int_or ~default:0 line "cycles")
                  (int_or ~default:0 line "misses")
                  (int_or ~default:0 line "invalidations"))
            lines)
        entries;
      fprintf fmt "@.")
