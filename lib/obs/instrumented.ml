module type S = sig
  include Core.Queue_intf.S

  val metrics : 'a t -> Metrics.t
end

module type BATCH_S = sig
  include Core.Queue_intf.BATCH

  val metrics : 'a t -> Metrics.t
end

module type BOUNDED_S = sig
  include Core.Queue_intf.BOUNDED

  val metrics : 'a t -> Metrics.t
end

(* Run [f], attributing its latency and its per-domain probe deltas
   (CAS retries, backoffs, helps) to [m].  [phase] is the
   "<queue>.enq"/"<queue>.deq" label, interned once per functor
   application: the whole operation becomes one Probe phase span,
   which Obs.Profile turns into a per-operation latency histogram
   alongside the finer in-operation phases the queues mark
   themselves. *)
let measured ~phase m latency f =
  let before = Locks.Probe.local () in
  Locks.Probe.phase_begin phase;
  let t0 = Clock.now_ns () in
  let result = f () in
  Locks.Probe.phase_end phase;
  let dt = Clock.now_ns () - t0 in
  let d = Locks.Probe.diff (Locks.Probe.local ()) before in
  Histogram.record latency dt;
  if d.Locks.Probe.cas_retries > 0 then
    Counter.add m.Metrics.cas_retries d.Locks.Probe.cas_retries;
  Histogram.record m.Metrics.retries_per_op d.Locks.Probe.cas_retries;
  if d.Locks.Probe.backoffs > 0 then
    Counter.add m.Metrics.backoffs d.Locks.Probe.backoffs;
  if d.Locks.Probe.helps > 0 then Counter.add m.Metrics.helps d.Locks.Probe.helps;
  result

(* The one instrumented body, written over [BOUNDED]: the verdicts
   are counted — a refused try_enqueue is a [full_enqueues], a [None]
   try_dequeue an [empty_dequeues].  Refusals still record a latency
   sample: on a full ring the fq dequeue's ticket burns are exactly the
   cost a caller pays to learn "full".  The wrapper record stays
   visible in this file (the mli seals it) so [Make]/[Make_batch],
   which apply the body through [Queue_intf.Unbounded], can reach
   [t.q]/[t.m]. *)
module Make_bounded (Q : Core.Queue_intf.BOUNDED) = struct
  type 'a t = { q : 'a Q.t; m : Metrics.t }

  let name = Q.name
  let enq_phase = Locks.Probe.label (Q.name ^ ".enq")
  let deq_phase = Locks.Probe.label (Q.name ^ ".deq")

  let create ?capacity () = { q = Q.create ?capacity (); m = Metrics.create Q.name }

  let metrics t = t.m
  let capacity t = Q.capacity t.q

  let try_enqueue t v =
    if not (Control.enabled ()) then Q.try_enqueue t.q v
    else begin
      Counter.incr t.m.Metrics.enqueues;
      let ok =
        measured ~phase:enq_phase t.m t.m.Metrics.enq_latency (fun () ->
            Q.try_enqueue t.q v)
      in
      if not ok then Counter.incr t.m.Metrics.full_enqueues;
      ok
    end

  let try_dequeue t =
    if not (Control.enabled ()) then Q.try_dequeue t.q
    else begin
      Counter.incr t.m.Metrics.dequeues;
      let r =
        measured ~phase:deq_phase t.m t.m.Metrics.deq_latency (fun () ->
            Q.try_dequeue t.q)
      in
      if r = None then Counter.incr t.m.Metrics.empty_dequeues;
      r
    end

  let is_empty t = Q.is_empty t.q
  let length t = Q.length t.q
end

(* An unbounded queue is instrumented as its never-refusing [BOUNDED]
   view; only the [S] operations the view lacks are delegated. *)
module Make_s (Q : Core.Queue_intf.S) = struct
  include Make_bounded (Core.Queue_intf.Unbounded (Q))

  let create () = create ()
  let enqueue t v = ignore (try_enqueue t v)
  let dequeue = try_dequeue
  let peek t = Q.peek t.q
end

module Make (Q : Core.Queue_intf.S) : S = Make_s (Q)

(* The batch calls: each is one latency sample in the corresponding
   histogram (a batch's sample covers all its elements) while the
   operation counters advance by the element count, keeping "enqueues =
   elements enqueued" true across both APIs.  Probe deltas
   (segment-transition CAS retries, poisoned-slot races) are attributed
   to the batch exactly as to a single operation. *)
module Make_batch (Q : Core.Queue_intf.BATCH) : BATCH_S = struct
  include Make_s (Q)

  let enq_batch_phase = Locks.Probe.label (Q.name ^ ".enq_batch")
  let deq_batch_phase = Locks.Probe.label (Q.name ^ ".deq_batch")

  let enqueue_batch t vs =
    if not (Control.enabled ()) then Q.enqueue_batch t.q vs
    else begin
      Counter.add t.m.Metrics.enqueues (List.length vs);
      measured ~phase:enq_batch_phase t.m t.m.Metrics.enq_latency (fun () ->
          Q.enqueue_batch t.q vs)
    end

  let dequeue_batch t ~max =
    if not (Control.enabled ()) then Q.dequeue_batch t.q ~max
    else begin
      let r =
        measured ~phase:deq_batch_phase t.m t.m.Metrics.deq_latency (fun () ->
            Q.dequeue_batch t.q ~max)
      in
      (match r with
      | [] -> Counter.incr t.m.Metrics.empty_dequeues
      | _ :: _ -> Counter.add t.m.Metrics.dequeues (List.length r));
      r
    end
end
