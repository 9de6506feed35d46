(* Nikolaev's SCQ (arXiv 1908.04511): a bounded MPMC FIFO over a
   power-of-two ring with no per-element allocation — the memory-optimal
   successor to the paper's free-list discipline.

   One SCQ ring stores small integer indices.  Claims are fetch-and-add
   tickets on [head]/[tail]; ticket [t] maps to slot [t mod 2n] in cycle
   [t / 2n].  Each slot packs ⟨cycle, safe, index⟩ into a single
   immediate int, so compare_and_set is value equality and the
   monotonically growing cycle rules out ABA.  The ring holds at most
   [n] live indices in [2n] slots, which is what makes a slot whose
   cycle is behind a ticket's cycle provably reusable.  Livelock on
   empty is bounded by the [threshold] counter (3n−1, the paper's bound
   on dequeue tickets that can be burned while the queue is non-empty);
   dequeuers that overrun the tail push it forward ([catchup]) so
   abandoned tickets never strand an enqueuer in the past, and mark
   overtaken full slots unsafe instead of destroying them.

   A bounded queue of arbitrary values is then two rings and a data
   array (the paper's own construction): [fq] holds the free indices
   (initially 0..n−1) and [aq] the allocated ones (initially empty).
   [try_enqueue] takes an index from [fq] — no index there is an exact
   full verdict, because [fq] is empty iff all [n] indices are checked
   out — writes the value, and publishes the index through [aq];
   [try_dequeue] reverses the path.  Index ownership is exclusive
   between the rings, so the plain [data] accesses are published by the
   ring atomics (the CAS that deposits index [i] happens-before the
   read that consumes it).  The data array is untyped and holds each
   value as itself, with a private sentinel in free slots, and a ring
   hands out an index as a bare int: an enqueue;dequeue pair allocates
   only the [Some] that [try_dequeue] returns.

   The paper's [cache_remap] (spreading consecutive slots across cache
   lines) is deliberately omitted: it permutes slots without changing
   the algorithm, and a straight layout keeps the model-checked text
   minimal.  See EXPERIMENTS.md "Living under a memory budget" for the
   measured footprint. *)

module type S = sig
  include Queue_intf.BOUNDED

  val maybe_nonempty : 'a t -> bool
end

(* Probe labels, bound outside [Make] so that every instance shares them. *)
let l_ring_deposit = Locks.Probe.label "scq.ring.deposit"
let l_ring_consume = Locks.Probe.label "scq.ring.consume"
let l_enq = Locks.Probe.label "scq.enq"
let l_enq_publish = Locks.Probe.label "scq.enq.publish"
let l_deq = Locks.Probe.label "scq.deq"
let l_deq_recycle = Locks.Probe.label "scq.deq.recycle"

module Make (A : Atomic_intf.ATOMIC) = struct
  (* One index ring of [2^order] slots.  Entry packing: bits [0,order)
     hold the index with all-ones as ⊥ (valid indices stop at
     [2^(order-1) - 1]), bit [order] the safe flag, and the remaining
     high bits the (signed) cycle — [asr] recovers the cycle −1 used by
     slots of a prefilled ring that start one lap behind. *)
  type ring = {
    entries : int A.t array;
    head : int A.t;
    tail : int A.t;
    threshold : int A.t;
    order : int;
  }

  type 'a t = {
    aq : ring; (* allocated indices: carries the FIFO order *)
    fq : ring; (* free indices: carries the capacity accounting *)
    data : Obj.t array; (* slot i holds an ['a] while index i is in [aq] *)
    cap : int;
  }

  let name = "scq"

  (* A free slot: a private block that no caller can enqueue, so a slot
     read before its write is published fails loudly; it is not a
     float, so the array is never a float array, and it keeps no
     dequeued value alive. *)
  let free = Obj.repr (ref ())

  (* [deq_ring]'s "no index": the ring was observed empty. *)
  let no_index = -1

  let imask r = (1 lsl r.order) - 1 (* index field mask; also ⊥ *)
  let safe_bit r = 1 lsl r.order

  let pack r ~cycle ~safe ~idx =
    (cycle lsl (r.order + 1)) lor (if safe then safe_bit r else 0) lor idx

  let entry_cycle r e = e asr (r.order + 1)
  let entry_idx r e = e land imask r
  let entry_safe r e = e land safe_bit r <> 0

  (* The paper's 3n−1 where n is the queue capacity [2^(order-1)]:
     ring size + capacity − 1. *)
  let threshold3 r = (1 lsl r.order) + (1 lsl (r.order - 1)) - 1

  let make_ring ~order ~prefill =
    let n2 = 1 lsl order in
    let bottom = n2 - 1 in
    let entries =
      Array.init n2 (fun j ->
          if j < prefill then
            (* cycle 0, safe, index j *)
            A.make ((1 lsl order) lor j)
          else
            (* cycle −1, safe, ⊥: one lap behind, so cycle-0 tickets
               can claim the slot *)
            A.make (((-1) lsl (order + 1)) lor (1 lsl order) lor bottom))
    in
    {
      entries;
      head = A.make_contended 0;
      tail = A.make_contended prefill;
      threshold =
        A.make_contended (if prefill > 0 then n2 + (n2 / 2) - 1 else -1);
      order;
    }

  (* Deposit [idx] into the ring.  Never fails — the caller owns an
     index, so the ring holds < n live entries and a usable slot exists
     within boundedly many tickets — but may abandon tickets whose slot
     is still occupied by an unconsumed older entry (or was marked
     unsafe by an overrunning dequeuer that has since receded). *)
  let rec enq_ring r idx =
    let t = A.fetch_and_add r.tail 1 in
    let tcycle = t lsr r.order in
    let j = t land imask r in
    deposit r idx ~t ~tcycle ~j (A.get r.entries.(j))

  and deposit r idx ~t ~tcycle ~j e =
    if
      entry_cycle r e < tcycle
      && entry_idx r e = imask r
      && (entry_safe r e || A.get r.head <= t)
    then begin
      Locks.Probe.site l_ring_deposit;
      if A.compare_and_set r.entries.(j) e (pack r ~cycle:tcycle ~safe:true ~idx)
      then begin
        (* a value is visible again: re-arm the empty detector *)
        let thr = threshold3 r in
        if A.get r.threshold <> thr then A.set r.threshold thr
      end
      else begin
        Locks.Probe.cas_retry ();
        deposit r idx ~t ~tcycle ~j (A.get r.entries.(j))
      end
    end
    else begin
      (* ticket abandoned: take a fresh one *)
      Locks.Probe.cas_retry ();
      enq_ring r idx
    end

  (* Keep [tail] from falling behind a receding [head], so tickets
     handed to future enqueuers are never in dequeuers' past. *)
  let rec catchup r ~tail ~head =
    if not (A.compare_and_set r.tail tail head) then begin
      let head = A.get r.head in
      let tail = A.get r.tail in
      if tail < head then catchup r ~tail ~head
    end

  (* The empty verdict from two loads, before any ticket is claimed:
     [head] first, then [tail].  [head] only grows, so [tail <= h] at
     the second load means every enqueue ticket handed out by then had
     been met by a dequeue ticket: the ring was empty at that moment —
     the test [consume] makes after burning a ticket, without the
     burn.  Read the other way round, an enqueue and a dequeue between
     the two loads make a ring that never emptied look empty. *)
  let ring_empty r = let h = A.get r.head in A.get r.tail <= h

  let rec deq_ring r =
    if A.get r.threshold < 0 then no_index (* certainly empty *)
    else begin
      let h = A.fetch_and_add r.head 1 in
      let hcycle = h lsr r.order in
      let j = h land imask r in
      consume r ~h ~hcycle ~j (A.get r.entries.(j))
    end

  and consume r ~h ~hcycle ~j e =
    let ecycle = entry_cycle r e in
    if ecycle = hcycle && entry_idx r e <> imask r then begin
      (* our cycle's index is here: take it (index := ⊥, cycle and
         safe bit kept).  The CAS can lose only to a later dequeuer
         marking the entry unsafe, so it converges. *)
      Locks.Probe.site l_ring_consume;
      if A.compare_and_set r.entries.(j) e (e lor imask r) then entry_idx r e
      else begin
        Locks.Probe.cas_retry ();
        consume r ~h ~hcycle ~j (A.get r.entries.(j))
      end
    end
    else begin
      let advanced =
        if ecycle < hcycle then begin
          (* an older entry: advance an empty slot to our cycle, or
             mark an unconsumed value unsafe (its owner keeps it;
             enqueuers must not clobber it) *)
          let desired =
            if entry_idx r e = imask r then
              pack r ~cycle:hcycle ~safe:(entry_safe r e) ~idx:(imask r)
            else e land lnot (safe_bit r)
          in
          if desired = e then true
          else if A.compare_and_set r.entries.(j) e desired then true
          else begin
            Locks.Probe.cas_retry ();
            false
          end
        end
        else true (* a later cycle overtook the slot: nothing to fix *)
      in
      if not advanced then
        (* the entry changed under us — it may now hold our cycle's
           deposit, so re-dispatch the full test *)
        consume r ~h ~hcycle ~j (A.get r.entries.(j))
      else begin
        (* ticket burned without a value: decide empty vs. retry *)
        let t = A.get r.tail in
        if t <= h + 1 then begin
          Locks.Probe.help ();
          catchup r ~tail:t ~head:(h + 1);
          ignore (A.fetch_and_add r.threshold (-1));
          no_index
        end
        else if A.fetch_and_add r.threshold (-1) <= 0 then no_index
        else deq_ring r
      end
    end

  let default_capacity = 1024

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then
      invalid_arg "Scq_queue.create: capacity must be >= 1";
    let rec order_for k = if 1 lsl k >= capacity then k else order_for (k + 1) in
    let cap_order = order_for 0 in
    let cap = 1 lsl cap_order in
    let order = cap_order + 1 in
    {
      aq = make_ring ~order ~prefill:0;
      fq = make_ring ~order ~prefill:cap;
      data = Array.make cap free;
      cap;
    }

  let capacity t = t.cap

  let try_enqueue t v =
    Locks.Probe.phase_begin l_enq;
    let i = deq_ring t.fq in
    (* no free index: exact full verdict *)
    let ok = i <> no_index in
    if ok then begin
      t.data.(i) <- Obj.repr v;
      Locks.Probe.site l_enq_publish;
      (* the CAS that deposits [i] publishes the slot write above *)
      enq_ring t.aq i
    end;
    Locks.Probe.phase_end l_enq;
    ok

  let try_dequeue t =
    Locks.Probe.phase_begin l_deq;
    let i = deq_ring t.aq in
    let r =
      if i = no_index then None
      else begin
        let v = t.data.(i) in
        assert (v != free);
        (* clear before recycling the index, so dequeued items are
           not retained by the ring *)
        t.data.(i) <- free;
        Locks.Probe.site l_deq_recycle;
        enq_ring t.fq i;
        Some (Obj.obj v)
      end
    in
    Locks.Probe.phase_end l_deq;
    r

  let maybe_nonempty t = not (ring_empty t.aq)

  (* Exact at quiescence.  A racy fold is not a snapshot: one load per
     slot lets an index counted at one slot be dequeued, recycled
     through [fq] and deposited at a later slot before the fold reaches
     it, so it can be counted twice.  Clamping to [cap] keeps the
     [0 <= length <= capacity] bound of [BOUNDED.length]. *)
  let length t =
    min t.cap
      (Array.fold_left
         (fun acc e ->
           if entry_idx t.aq (A.get e) <> imask t.aq then acc + 1 else acc)
         0 t.aq.entries)

  let is_empty t = length t = 0
end

include Make (Atomic_intf.Stdlib_atomic)
