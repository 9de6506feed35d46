(* A lock-free MPMC FIFO of fixed-size ring segments.

   The MS queue pays one CAS (plus retries under contention) per
   operation on a single Head or Tail word — the cache-line ping-pong
   the paper measures.  Here operations instead claim a slot index with
   a fetch-and-add on a per-segment counter, which always succeeds, and
   fall back to CAS only on the cold segment-boundary transitions
   (appending a fresh segment, advancing head/tail past an exhausted
   one).  The structure follows the FAA-based descendants of the MS
   queue (Morrison & Afek's LCRQ family, Nikolaev's SCQ): segments form
   a Michael–Scott-style linked list, so the queue stays unbounded while
   each hot counter is contended by at most [segment_capacity]
   operations before the algorithm moves to fresh cache lines.

   Slot protocol.  Every slot goes through at most one transition away
   from [Empty]:

     Empty --(enqueuer's CAS)--> Value v --(owning dequeuer's store)--> Taken
     Empty --(dequeuer's CAS)--> Taken                    (slot poisoned)

   An enqueuer whose FAA claimed index [i] publishes with
   [CAS slots.(i) Empty (Value v)].  A dequeuer whose FAA claimed [i]
   normally finds [Value v] and takes it with a plain store (it is the
   unique owner of the index once its FAA returned [i]).  If the
   dequeuer arrives first — its FAA overtook an enqueuer that claimed
   [i] but has not yet published — it poisons the slot ([Empty ->
   Taken]); the enqueuer's CAS then fails and the enqueuer re-claims a
   fresh index.  No value is ever lost or duplicated because each
   constructor transition is a CAS and indices are claimed exactly once
   per side.

   Emptiness.  [dequeue] reads [deq] then [enq] of the head segment; if
   [deq >= enq] (both below capacity) the queue was linearizably empty
   at the moment [enq] was read: [deq] is monotone, so at that moment
   every enqueuer-claimed index had a dequeuer assigned, and no next
   segment can exist because one is appended only after [enq] exceeds
   the capacity.

   Probes.  Failed slot CASes and boundary-CAS races report
   [Locks.Probe.cas_retry]; helping advance a lagging head/tail pointer
   reports [Locks.Probe.help] (the segment-level analogue of the
   paper's E12/D9 fix-ups).  [Obs.Instrumented] attributes both to
   individual operations. *)

(* 256 keeps the slot array within Max_young_wosize (256 words), so
   segments are minor-heap allocations.  Larger segments land directly
   on the major heap, and with multiple domains each such allocation
   forces cross-domain GC coordination that costs milliseconds per
   segment on a timeshared core — measured at 10-15x total throughput
   loss at capacity 1024.  256 slots still amortize one boundary CAS
   over 256 FAA-claimed operations. *)
(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_enq_claim = Locks.Probe.label "seg.enq.claim"
let l_enq_publish = Locks.Probe.label "seg.enq.publish"
let l_deq_claim = Locks.Probe.label "seg.deq.claim"

let segment_capacity = 256

module type S = sig
  include Queue_intf.BATCH

  val segment_capacity : int
end

module Make (A : Atomic_intf.ATOMIC) = struct
  let segment_capacity = segment_capacity

  type 'a slot = Empty | Value of 'a | Taken

  type 'a segment = {
    slots : 'a slot A.t array;
    enq : int A.t;  (* next enqueue index to claim; may exceed capacity *)
    deq : int A.t;  (* next dequeue index to claim; may exceed capacity *)
    next : 'a segment option A.t;
  }

  type 'a t = { head : 'a segment A.t; tail : 'a segment A.t }

  let name = "segmented"

  (* A fresh segment with [vs] (at most [segment_capacity] elements)
     already published in slots 0..  Seeding at creation lets the
     boundary CAS install the first value(s) and the segment atomically,
     so an enqueuer that wins the append never retries. *)
  let make_segment vs =
    let slots = Array.init segment_capacity (fun _ -> A.make Empty) in
    let n =
      List.fold_left
        (fun i v ->
          A.set slots.(i) (Value v);
          i + 1)
        0 vs
    in
    { slots; enq = A.make n; deq = A.make 0; next = A.make None }

  let create () =
    let seg = make_segment [] in
    { head = A.make_contended seg; tail = A.make_contended seg }

  (* Move [t.tail] forward if [tail] has a successor; a failed CAS means
     someone else already advanced it, which is just as good. *)
  let advance_tail t tail =
    match A.get tail.next with
    | Some n ->
        Locks.Probe.help ();
        ignore (A.compare_and_set t.tail tail n)
    | None -> ()

  let rec enqueue t v =
    let tail = A.get t.tail in
    match A.get tail.next with
    | Some _ ->
        (* tail is lagging behind an appended segment: help and retry *)
        advance_tail t tail;
        enqueue t v
    | None ->
        Locks.Probe.site l_enq_claim;
        let i = A.fetch_and_add tail.enq 1 in
        if i < segment_capacity then begin
          (* between claiming index [i] and publishing into it: the
             window a dequeuer's poisoning CAS races against *)
          Locks.Probe.site l_enq_publish;
          if not (A.compare_and_set tail.slots.(i) Empty (Value v)) then begin
            (* a dequeuer poisoned our slot before we published *)
            Locks.Probe.cas_retry ();
            enqueue t v
          end
        end
        else begin
          (* segment exhausted: append a successor seeded with [v] *)
          let seg = make_segment [ v ] in
          if A.compare_and_set tail.next None (Some seg) then
            ignore (A.compare_and_set t.tail tail seg)
          else begin
            Locks.Probe.cas_retry ();
            advance_tail t tail;
            enqueue t v
          end
        end

  (* Take the value at [slot], which this dequeuer's FAA uniquely owns.
     [None] means the slot was still unpublished and is now poisoned. *)
  let take_slot slot =
    match A.get slot with
    | Value v ->
        A.set slot Taken; (* drop the reference; we own the index *)
        Some v
    | Empty ->
        if A.compare_and_set slot Empty Taken then begin
          Locks.Probe.cas_retry ();
          None
        end
        else begin
          (* the enqueuer published in the window between the read and
             the CAS; the value is there now *)
          match A.get slot with
          | Value v ->
              A.set slot Taken;
              Some v
          | Empty | Taken -> assert false
        end
    | Taken -> assert false (* indices are claimed exactly once per side *)

  (* Move [t.head] past the exhausted segment [head]; [false] if there is
     no successor (the queue is fully drained). *)
  let advance_head t head =
    match A.get head.next with
    | Some n ->
        Locks.Probe.help ();
        ignore (A.compare_and_set t.head head n);
        true
    | None -> false

  let rec dequeue t =
    let head = A.get t.head in
    let d = A.get head.deq in
    if d >= segment_capacity then
      if advance_head t head then dequeue t else None
    else begin
      let e = A.get head.enq in
      if d >= e then
        (* deq is monotone, so when [e] was read every claimed index had
           a dequeuer assigned, and no successor segment can exist since
           e < capacity: linearizably empty *)
        None
      else begin
        Locks.Probe.site l_deq_claim;
        let i = A.fetch_and_add head.deq 1 in
        if i >= segment_capacity then (
          (* racing dequeuers pushed the counter past the rim *)
          Locks.Probe.cas_retry ();
          dequeue t)
        else
          match take_slot head.slots.(i) with
          | Some v -> Some v
          | None -> dequeue t (* slot poisoned; the item will reappear *)
      end
    end

  let rec peek t =
    let head = A.get t.head in
    let d = A.get head.deq in
    if d >= segment_capacity then
      if advance_head t head then peek t else None
    else begin
      let e = A.get head.enq in
      if d >= e then None
      else
        match A.get head.slots.(d) with
        | Value v -> Some v
        | Taken ->
            (* the owning dequeuer already advanced [deq] past [d] *)
            peek t
        | Empty ->
            (* slot claimed but not yet published; wait for the writer *)
            A.relax ();
            peek t
    end

  let is_empty t =
    let rec go head =
      let d = A.get head.deq in
      if d >= segment_capacity then
        match A.get head.next with Some n -> go n | None -> true
      else d >= A.get head.enq
    in
    go (A.get t.head)

  let length t =
    let clamp i = min i segment_capacity in
    let rec walk seg acc =
      let e = clamp (A.get seg.enq) in
      let d = clamp (A.get seg.deq) in
      let acc = acc + max 0 (e - d) in
      match A.get seg.next with None -> acc | Some n -> walk n acc
    in
    walk (A.get t.head) 0

  (* ------------------------------------------------------------------ *)
  (* Batch operations: one FAA claims a whole index range.  *)

  let take n l =
    let rec go n acc = function
      | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go n [] l

  (* Publish [vs] into slots [i..], in order.  Returns the unplaced
     suffix: elements past the segment rim, or — when a slot CAS loses to
     a poisoning dequeuer — the element that lost together with everything
     after it.  Re-claiming the whole suffix (instead of just the loser)
     keeps the batch's elements in list order; the already-claimed slots
     left [Empty] are poisoned and skipped by whichever dequeuers reach
     them. *)
  let rec publish_from slots i vs =
    match vs with
    | [] -> []
    | v :: rest ->
        if i >= segment_capacity then vs
        else if A.compare_and_set slots.(i) Empty (Value v) then
          publish_from slots (i + 1) rest
        else begin
          Locks.Probe.cas_retry ();
          vs
        end

  let rec enqueue_batch t vs =
    match vs with
    | [] -> ()
    | [ v ] -> enqueue t v
    | _ -> (
        let tail = A.get t.tail in
        match A.get tail.next with
        | Some _ ->
            advance_tail t tail;
            enqueue_batch t vs
        | None ->
            let n = List.length vs in
            Locks.Probe.site l_enq_claim;
            let i = A.fetch_and_add tail.enq n in
            if i < segment_capacity then
              (* claimed [i .. i+n-1]; publish what fits, recurse on the
                 rest *)
              match publish_from tail.slots i vs with
              | [] -> ()
              | leftover -> enqueue_batch t leftover
            else begin
              (* the whole claim overflowed: seed a fresh segment *)
              let seed, rest = take segment_capacity vs in
              let seg = make_segment seed in
              if A.compare_and_set tail.next None (Some seg) then begin
                ignore (A.compare_and_set t.tail tail seg);
                enqueue_batch t rest
              end
              else begin
                Locks.Probe.cas_retry ();
                advance_tail t tail;
                enqueue_batch t vs
              end
            end)

  let rec dequeue_batch t ~max =
    if max <= 0 then []
    else begin
      let head = A.get t.head in
      let d = A.get head.deq in
      if d >= segment_capacity then
        if advance_head t head then dequeue_batch t ~max else []
      else begin
        let e = A.get head.enq in
        if d >= e then [] (* same linearization argument as [dequeue] *)
        else begin
          let k = min max (min e segment_capacity - d) in
          Locks.Probe.site l_deq_claim;
          let i = A.fetch_and_add head.deq k in
          if i >= segment_capacity then (
            (* racing dequeuers pushed the counter past the rim *)
            Locks.Probe.cas_retry ();
            dequeue_batch t ~max)
          else begin
            let last = min (i + k) segment_capacity - 1 in
            let out = ref [] in
            for j = last downto i do
              match take_slot head.slots.(j) with
              | Some v -> out := v :: !out
              | None -> () (* poisoned; that item will reappear later *)
            done;
            !out
          end
        end
      end
    end
end

include Make (Atomic_intf.Stdlib_atomic)
