(* The time-series sampler: a background domain that periodically
   snapshots registered sources — gauges, counter rates, windowed
   histogram quantiles — into {!Timeseries} rings, exported as the
   [timeline] section of [BENCH_queues.json] (schema 8) and as
   OpenMetrics text.

   Registration and sampling are serialized by one mutex; the sampled
   reads themselves (Counter.value, Histogram.counts, queue lengths)
   are the racy-read snapshots those primitives already permit, so the
   queues under test never see the sampler on their hot paths — the
   whole subsystem rides on reads the metrics layer was built for. *)

let default_period_ns = 5_000_000
let default_capacity = 4096

type source = {
  src_name : string;  (* for [remove ~prefix] *)
  sample : t_ns:int -> unit;
  series : Timeseries.t list;
}

let mutex = Mutex.create ()
let sources : source list ref = ref []

(* Series of removed sources: no longer sampled, still exported — a
   harness tearing down its sources must not erase the history it just
   produced.  [clear] drops these too. *)
let retired : Timeseries.t list ref = ref []

let t0 = ref 0
let period = ref default_period_ns
let stop_flag = Atomic.make false
let dom : unit Domain.t option ref = ref None

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let register_source s =
  with_lock (fun () ->
      if !t0 = 0 then t0 := Clock.now_ns ();
      sources := !sources @ [ s ])

(* A dying source (its queue torn down mid-sample) must not kill the
   sampling domain; it just stops producing points. *)
let guarded f ~t_ns = try f ~t_ns with _ -> ()

let mk ?(labels = []) ?(unit_ = "") name =
  Timeseries.create ~labels ~unit_ ~capacity:default_capacity name

let register_gauge ?labels ?unit_ name read =
  let ts = mk ?labels ?unit_ name in
  register_source
    {
      src_name = name;
      series = [ ts ];
      sample = guarded (fun ~t_ns -> Timeseries.push ts ~t_ns (read ()));
    }

let register_counter ?labels name read =
  let ts = mk ?labels ~unit_:"per_s" name in
  let prev = ref (read (), Clock.now_ns ()) in
  register_source
    {
      src_name = name;
      series = [ ts ];
      sample =
        guarded (fun ~t_ns ->
            let v = read () in
            let pv, pt = !prev in
            prev := (v, t_ns);
            let dt = t_ns - pt in
            if dt > 0 then
              Timeseries.push ts ~t_ns
                (float_of_int (v - pv) *. 1e9 /. float_of_int dt));
    }

let register_histogram ?(labels = []) ?(unit_ = "ns") name h =
  let q label = mk ~labels:(labels @ [ ("quantile", label) ]) ~unit_ name in
  let p50 = q "0.5" and p99 = q "0.99" and p999 = q "0.999" in
  let cnt = mk ~labels ~unit_:"per_window" (name ^ "_count") in
  let prev = ref (Histogram.counts h) in
  register_source
    {
      src_name = name;
      series = [ p50; p99; p999; cnt ];
      sample =
        guarded (fun ~t_ns ->
            let c = Histogram.counts h in
            let window =
              Array.init Histogram.n_buckets (fun i -> max 0 (c.(i) - !prev.(i)))
            in
            prev := c;
            let n = Array.fold_left ( + ) 0 window in
            Timeseries.push cnt ~t_ns (float_of_int n);
            if n > 0 then begin
              let push ts qv =
                match Histogram.quantile_of_counts window qv with
                | Some v -> Timeseries.push ts ~t_ns (float_of_int v)
                | None -> ()
              in
              push p50 0.5;
              push p99 0.99;
              push p999 0.999
            end);
    }

let register_metrics ?prefix (m : Metrics.t) =
  let prefix = match prefix with Some p -> p | None -> m.Metrics.name in
  let c field read = register_counter (prefix ^ "." ^ field) (fun () -> read ()) in
  c "enqueues" (fun () -> Counter.value m.Metrics.enqueues);
  c "dequeues" (fun () -> Counter.value m.Metrics.dequeues);
  c "empty_dequeues" (fun () -> Counter.value m.Metrics.empty_dequeues);
  c "full_enqueues" (fun () -> Counter.value m.Metrics.full_enqueues);
  c "cas_retries" (fun () -> Counter.value m.Metrics.cas_retries);
  c "backoffs" (fun () -> Counter.value m.Metrics.backoffs);
  c "helps" (fun () -> Counter.value m.Metrics.helps);
  register_histogram (prefix ^ ".enq_latency_ns") m.Metrics.enq_latency;
  register_histogram (prefix ^ ".deq_latency_ns") m.Metrics.deq_latency

let remove ~prefix =
  with_lock (fun () ->
      let gone, kept =
        List.partition
          (fun s -> String.starts_with ~prefix s.src_name)
          !sources
      in
      sources := kept;
      retired := !retired @ List.concat_map (fun s -> s.series) gone)

let clear () =
  with_lock (fun () ->
      sources := [];
      retired := [];
      t0 := 0)

let tick () =
  with_lock (fun () ->
      let t_ns = Clock.now_ns () in
      if !t0 = 0 then t0 := t_ns;
      List.iter (fun s -> s.sample ~t_ns) !sources)

let active () = !dom <> None

let start ?(period_ns = default_period_ns) () =
  if !dom = None then begin
    if period_ns <= 0 then invalid_arg "Sampler.start";
    (if !t0 = 0 then with_lock (fun () -> if !t0 = 0 then t0 := Clock.now_ns ()));
    period := period_ns;
    Atomic.set stop_flag false;
    dom :=
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop_flag) do
               tick ();
               Unix.sleepf (float_of_int period_ns /. 1e9)
             done))
  end

let stop () =
  match !dom with
  | None -> ()
  | Some d ->
      Atomic.set stop_flag true;
      Domain.join d;
      dom := None

let all_series () = !retired @ List.concat_map (fun s -> s.series) !sources

let timeline_json () =
  with_lock (fun () ->
      let series = all_series () in
      Json.Assoc
        [
          ("t0_ns", Json.Int !t0);
          ("period_ns", Json.Int !period);
          ( "series",
            Json.List (List.map (Timeseries.to_json ~t0:!t0) series) );
        ])

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition: last value of every series, grouped into
   one gauge family per sanitized name, "# EOF" terminated. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let to_openmetrics () =
  with_lock (fun () ->
      let series = all_series () in
      let families = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun ts ->
          match Timeseries.last ts with
          | None -> ()
          | Some (_, v) ->
              let fam = sanitize (Timeseries.name ts) in
              let line =
                let labels = Timeseries.labels ts in
                let lbl =
                  if labels = [] then ""
                  else
                    "{"
                    ^ String.concat ","
                        (List.map
                           (fun (k, v) ->
                             Printf.sprintf "%s=\"%s\"" (sanitize k)
                               (escape_label v))
                           labels)
                    ^ "}"
                in
                Printf.sprintf "%s%s %.17g" fam lbl v
              in
              (match Hashtbl.find_opt families fam with
              | None ->
                  order := fam :: !order;
                  Hashtbl.add families fam [ line ]
              | Some lines -> Hashtbl.replace families fam (line :: lines)))
        series;
      let b = Buffer.create 1024 in
      List.iter
        (fun fam ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" fam);
          List.iter
            (fun line ->
              Buffer.add_string b line;
              Buffer.add_char b '\n')
            (List.rev (Hashtbl.find families fam)))
        (List.rev !order);
      Buffer.add_string b "# EOF\n";
      Buffer.contents b)
