type measurement = {
  algorithm : string;
  variant : string;
  total_ops : int;
  cycles_per_op : float;
  completed : bool;
}

let measure ~name ~variant ~total_ops eng outcome =
  {
    algorithm = name;
    variant;
    total_ops;
    cycles_per_op = float_of_int (Sim.Engine.elapsed eng) /. float_of_int total_ops;
    completed = outcome = Sim.Engine.Completed;
  }

let producer_consumer (module Q : Squeues.Intf.S) ?(processors = 8) ?(items = 16_000)
    ?(other_work = 1_200) () =
  let eng = Sim.Engine.create (Sim.Config.with_processors processors) in
  let q = Q.init eng in
  let producers = processors / 2 in
  let consumers = processors - producers in
  let consumed = ref 0 in
  let rng = Sim.Rng.create 0x50434F4EL in
  let jitter = Array.init processors (fun _ -> 1 + Sim.Rng.int rng other_work) in
  for i = 0 to producers - 1 do
    let share = (items / producers) + if i < items mod producers then 1 else 0 in
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Api.work jitter.(i);
           for k = 1 to share do
             Q.enqueue q ((i * 1_000_000) + k);
             Sim.Api.progress ();
             Sim.Api.work other_work
           done))
  done;
  (* consumers drain a shared budget of items; the counter is host-side
     state, so bumping it is free and does not perturb the simulation *)
  for i = 0 to consumers - 1 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           Sim.Api.work jitter.(producers + i);
           let rec loop () =
             if !consumed < items then begin
               (match Q.dequeue q with
               | Some _ ->
                   incr consumed;
                   Sim.Api.progress ()
               | None -> ());
               Sim.Api.work other_work;
               loop ()
             end
           in
           loop ()))
  done;
  let outcome =
    Sim.Engine.run ~max_steps:500_000_000 ~watchdog:200_000_000 eng
  in
  measure ~name:Q.name ~variant:"producer-consumer" ~total_ops:(2 * items) eng outcome

let burst (module Q : Squeues.Intf.S) ?(processors = 8) ?(bursts = 50) ?(burst = 32)
    ?(other_work = 300) () =
  let eng = Sim.Engine.create (Sim.Config.with_processors processors) in
  let q = Q.init eng in
  for i = 0 to processors - 1 do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           for b = 1 to bursts do
             for k = 1 to burst do
               Q.enqueue q ((i * 1_000_000) + (b * 1_000) + k);
               Sim.Api.progress ();
               Sim.Api.work other_work
             done;
             for _ = 1 to burst do
               ignore (Q.dequeue q);
               Sim.Api.progress ();
               Sim.Api.work other_work
             done
           done))
  done;
  let outcome =
    Sim.Engine.run ~max_steps:500_000_000 ~watchdog:200_000_000 eng
  in
  measure ~name:Q.name ~variant:"burst" eng outcome
    ~total_ops:(2 * processors * bursts * burst)

let pp_measurement fmt m =
  Format.fprintf fmt "%-18s %-18s %7.0f cycles/op%s" m.algorithm m.variant
    m.cycles_per_op
    (if m.completed then "" else " [incomplete]")

(* ------------------------------------------------------------------ *)
(* Native batched workload (real domains, wall clock).

   Unlike the measurements above this one runs on the OCaml 5 queues,
   not in the simulator: batch operations only exist natively
   ([Core.Queue_intf.BATCH]) and their payoff — one index-range claim
   amortized over the batch — is a property of real fetch-and-add
   traffic.  Every domain hammers the same queue with no think time
   (the highest-contention shape), alternating one [enqueue_batch] of
   [batch] items with [dequeue_batch]es until it has drained as many,
   so the total item count is fixed while the synchronization count
   shrinks by the batch factor.  [batch = 1] degenerates to the
   single-element API and serves as the baseline of a sweep. *)

type batch_measurement = {
  queue : string;
  batch : int;
  domains : int;
  total_items : int;  (* items enqueued (= dequeued) across all domains *)
  seconds : float;
  items_per_second : float;
}

(* The workload reduced to two closures, so the same sweep drives both
   a single [BATCH] queue and the fabric's producer-batching path
   (which is not a [BATCH] instance: its enqueue takes a routing key
   and returns refusals). *)
type batch_driver = {
  bd_name : string;
  bd_enqueue_batch : int list -> unit;
  bd_dequeue_batch : max:int -> int list;
}

let batched_driver d ?(domains = 2) ?(items = 20_000) ~batch () =
  if batch < 1 then invalid_arg "Workload_variants.batched: batch must be >= 1";
  let rounds = items / batch in
  let total_items = rounds * batch * domains in
  let gate = Atomic.make 0 in
  let body i () =
    Atomic.incr gate;
    while Atomic.get gate < domains do
      Domain.cpu_relax ()
    done;
    for r = 1 to rounds do
      let base = (i * 1_000_000_000) + (r * batch) in
      d.bd_enqueue_batch (List.init batch (fun k -> base + k));
      (* drain as many as we enqueued; a batch dequeue may come up
         short while producers are mid-publish, so loop on the rest *)
      let got = ref 0 in
      while !got < batch do
        match d.bd_dequeue_batch ~max:(batch - !got) with
        | [] -> Domain.cpu_relax ()
        | l -> got := !got + List.length l
      done
    done
  in
  let t0 = Unix.gettimeofday () in
  let ds = List.init domains (fun i -> Domain.spawn (body i)) in
  List.iter Domain.join ds;
  let seconds = Unix.gettimeofday () -. t0 in
  {
    queue = d.bd_name;
    batch;
    domains;
    total_items;
    seconds;
    items_per_second = float_of_int total_items /. seconds;
  }

let batched (module Q : Core.Queue_intf.BATCH) ?domains ?items ~batch () =
  let q = Q.create () in
  batched_driver
    {
      bd_name = Q.name;
      bd_enqueue_batch = (fun vs -> Q.enqueue_batch q vs);
      bd_dequeue_batch = (fun ~max -> Q.dequeue_batch q ~max);
    }
    ?domains ?items ~batch ()

(* Segmented shards so the batch enqueue is total and claims its range
   with one fetch-and-add, and the comparison against [segmented]
   isolates the routing+engine overhead; each domain keys its batches
   to itself, which is the fabric's intended producer-batching shape. *)
let fabric_batched ?(shards = 4) ?domains ?items ~batch () =
  let module F = Fabric.Queue_fabric in
  let config =
    {
      F.default_config with
      shards;
      kind = F.Segmented;
      resilience =
        {
          Resilience.Resilient.default with
          policy = Resilience.Resilient.Fail_fast;
          breaker_threshold = 0;
        };
    }
  in
  let fab = F.create ~config () in
  batched_driver
    {
      bd_name = Printf.sprintf "fabric-%dsh" shards;
      bd_enqueue_batch =
        (fun vs ->
          ignore (F.enqueue_batch ~key:(Domain.self () :> int) fab vs));
      bd_dequeue_batch = (fun ~max -> F.dequeue_batch fab ~max);
    }
    ?domains ?items ~batch ()

let pp_batch_measurement fmt m =
  Format.fprintf fmt "%-12s batch=%-3d domains=%d %9.0f items/s" m.queue m.batch
    m.domains m.items_per_second
