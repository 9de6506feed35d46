(* The benchmark's one command:

     main.exe --workload pairs|serve|figures|verify --seed N --seconds S --trace 0|1

   Untraced (--trace 0), it runs the workload for S seconds, prints
   every metric by name and unit, then a last line of JSON holding the
   end-to-end metrics.  Traced (--trace 1), it runs the workload
   untraced and traced for S/2 each, reports the difference as the
   tracing overhead, runs the other workloads traced for S/4 each so
   that every per-layer metric is measured on its own workload, writes
   the spans as Chrome-trace JSON, and ends with the per-layer metrics.
   The exit code is 1 when any output check fails. *)

open Perfbench

let workloads =
  [
    ("pairs", Pairs.run);
    ("serve", Serve.run);
    ("figures", Figures.run);
    ("verify", Verify.run);
  ]

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Common.metric) -> Printf.printf "  %-38s %16.6f %s\n" m.name m.value m.unit_)
    ms

let print_checks name (o : Common.outcome) =
  List.iter
    (fun (c, ok) -> Printf.printf "  [%s] %s: %s\n" (if ok then "ok" else "FAILED") name c)
    o.checks

(* Shortest decimal that reads back as the same float. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 12

(* The last line of output: one JSON object, on one line. *)
let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Common.metric) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (number m.value)
              m.unit_)
          ms))

let find name ms = (List.find (fun (m : Common.metric) -> m.name = name) ms).value

let untraced ~name run ctx =
  let o = run ctx in
  let e2e = o.Common.e2e in
  Printf.printf "workload %s, seed %d, %g s, untraced\n" name ctx.Common.seed ctx.seconds;
  print_metrics "end-to-end" e2e;
  print_metrics "diagnostics" o.notes;
  print_checks name o;
  let correct = Common.correct o in
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed e2e);
  correct

let traced ~name run (ctx : Common.ctx) ~out =
  let half = { ctx with seconds = ctx.seconds /. 2. } in
  let base = run half in
  let base_e2e = base.Common.e2e in
  let spans = Spans.create ~cap:(1 lsl 20) in
  let traced = { half with spans = Some spans } in
  let own = run traced in
  let own_e2e = own.e2e in
  let passes =
    List.map
      (fun (n, r) ->
        (n, if n = name then own else r { traced with seconds = ctx.seconds /. 4. }))
      workloads
  in
  let overhead =
    List.map
      (fun (m : Common.metric) ->
        Common.metric ("trace.overhead." ^ m.name) m.unit_
          (find m.name own_e2e -. m.value))
      base_e2e
  in
  let layers =
    List.concat_map (fun (_, o) -> o.Common.layers) passes
    @ overhead
    @ [ Common.metric "trace.spans_dropped" "count" (float_of_int (Spans.dropped spans)) ]
  in
  Obs.Json.write_file out
    (Spans.to_chrome spans
       ~other:
         [
           ("workload", String name);
           ("seed", Int ctx.seed);
           ("seconds", Float ctx.seconds);
         ]);
  Printf.printf "workload %s, seed %d, %g s, traced; spans in %s\n" name ctx.seed
    ctx.seconds out;
  print_metrics "end-to-end, untraced" base_e2e;
  print_metrics "end-to-end, traced" own_e2e;
  print_metrics "per-layer" layers;
  List.iter (fun (n, o) -> print_checks n o) (("untraced " ^ name, base) :: passes);
  let outcomes = base :: List.map snd passes in
  let correct = List.for_all Common.correct outcomes in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  print_endline
    (result_line ~correct
       ~attempted:(sum (fun o -> o.Common.attempted))
       ~failed:(sum (fun o -> o.failed))
       layers);
  correct

let print_figures_reference () =
  let r =
    Figures.regenerate
      { seed = Figures.default_seed; seconds = 0.; spans = None }
      ~parent:Spans.none
      (Figures.params Figures.default_seed)
  in
  print_string
    "(* (figure, algorithm, processors, net cycles) of every point of\n\
    \   [Figures] at its default seed, as printed by\n\
    \   [main.exe --print-figures-reference]. *)\n\
     let points : (int * string * int * int) list =\n\
    \  [\n";
  List.iter
    (fun (p : Figures.point) ->
      Printf.printf "    (%d, %S, %d, %d);\n" p.fig p.algo p.procs p.net_time)
    r;
  print_string "  ]\n"

let () =
  let workload = ref "" and seed = ref Figures.default_seed in
  let seconds = ref 20. and trace = ref 0 and out = ref "" and reference = ref false in
  let usage =
    "main.exe --workload pairs|serve|figures|verify [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-out FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " pairs, serve, figures or verify");
      ("--seed", Arg.Set_int seed, " workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measurement budget (default 20)");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ( "--trace-out",
        Arg.Set_string out,
        " span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)" );
      ( "--print-figures-reference",
        Arg.Set reference,
        " print the figures reference for the default seed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !reference then print_figures_reference ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline usage;
        exit 2
    | Some run ->
        let ctx = { Common.seed = !seed; seconds = !seconds; spans = None } in
        let correct =
          if !trace = 0 then untraced ~name:!workload run ctx
          else
            let out =
              if !out <> "" then !out
              else begin
                if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
                Printf.sprintf ".bench_build/trace-%s-%d.json" !workload !seed
              end
            in
            traced ~name:!workload run ctx ~out
        in
        if not correct then exit 1
