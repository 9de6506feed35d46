(* What every workload takes and returns. *)

type ctx = {
  seed : int;  (** the workload seed: every generated input derives from it *)
  seconds : float;  (** measurement budget of this pass *)
  spans : Spans.t option;  (** [Some] on a traced pass *)
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  checks : (string * bool) list;  (** named output checks; all must hold *)
  attempted : int;
  failed : int;  (** items that failed, counted against [attempted] *)
  e2e : metric list;  (** [time_per_item_us], [setup_s], [heap_peak_mb] *)
  layers : metric list;  (** per-layer metrics; filled on traced passes *)
  notes : metric list;  (** diagnostics: printed, never gated *)
}

let correct o = List.for_all snd o.checks

(* SplitMix64: [derive seed k] is the [k]-th independent stream seed
   drawn from the workload seed. *)
let derive seed k =
  let z = Int64.(add (of_int seed) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L)) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Interference from other tenants of a shared host comes and goes
   within a second and can double the time of the same loop, so a run
   repeats each unit of work (a trial, a point, a verdict) and times
   each unit by its fastest repetition.  Set-up is repeated once per
   round and reported as the median. *)
let rounds = 10

let fastest = function
  | [] -> invalid_arg "Common.fastest: no rounds"
  | x :: xs -> List.fold_left Float.min x xs

(* The monotonic clock every timing in the benchmark reads, in ns. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Wrap [f] in a span when the pass is traced. *)
let span ctx ~name ~parent ~item f =
  match ctx.spans with
  | None -> f Spans.none
  | Some s ->
      let id = Spans.enter s.main ~name ~parent ~item (now_ns ()) in
      let r = f id in
      Spans.leave s.main id (now_ns ());
      r

(* The process's peak major heap so far.  Workloads read it when their
   first round ends, so it covers set-up and one round of work and
   does not grow with the number of rounds a host's speed allows. *)
let heap_peak_mb () =
  metric "heap_peak_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6)
