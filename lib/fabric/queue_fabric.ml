(* Sharded MPMC fabric.  See the .mli for the architecture; the code
   below is deliberately thin — all the hard concurrency lives in the
   shard primitives (Scq_queue, Segmented_queue) and the policy engine
   (Resilient.Engine).  The one novel protocol here is Elastic's
   close-and-append ring chain; its safety argument is spelled out
   inline. *)

module R = Resilience.Resilient

type shard_kind = Bounded | Elastic | Segmented

type config = {
  shards : int;
  shard_capacity : int;
  kind : shard_kind;
  batch : int;
  resilience : R.config;
}

let default_config =
  {
    shards = 8;
    shard_capacity = 1024;
    kind = Bounded;
    batch = 16;
    resilience = R.default;
  }

let kind_to_string = function
  | Bounded -> "bounded"
  | Elastic -> "elastic"
  | Segmented -> "segmented"

type error = R.error

module type S = sig
  type 'a t

  module Elastic : sig
    type 'a q

    val create : ring_capacity:int -> unit -> 'a q
    val enqueue : 'a q -> 'a -> unit
    val dequeue : 'a q -> 'a option
    val length : 'a q -> int
    val is_empty : 'a q -> bool
    val rings : 'a q -> int
  end

  val name : string
  val create : ?config:config -> unit -> 'a t
  val config : 'a t -> config
  val shard_count : 'a t -> int
  val try_enqueue : ?key:int -> 'a t -> 'a -> (unit, error) result
  val try_dequeue : 'a t -> ('a, error) result
  val enqueue_batch : ?key:int -> 'a t -> 'a list -> 'a list
  val dequeue_batch : 'a t -> max:int -> 'a list
  val drain_one : 'a t -> 'a option
  val peek_any : 'a t -> 'a option
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val shard_lengths : 'a t -> int array

  module Producer : sig
    type 'a handle

    val create : ?key:int -> ?batch:int -> 'a t -> 'a handle
    val push : 'a handle -> 'a -> 'a list
    val flush : 'a handle -> 'a list
    val pending : 'a handle -> int
  end

  val shard_outcomes : 'a t -> R.outcomes array
  val outcomes : 'a t -> R.outcomes
  val enq_breaker_states : 'a t -> R.breaker_state array
  val dequeue_metrics : 'a t -> Obs.Metrics.t
  val register_telemetry : ?prefix:string -> 'a t -> unit
  val to_json : 'a t -> Obs.Json.t
end

module Make (A : Core.Atomic_intf.ATOMIC) : S = struct
  module Scq = Core.Scq_queue.Make (A)
  module Seg = Core.Segmented_queue.Make (A)

  (* ---------------------------------------------------------------- *)
  (* Elastic: an unbounded chain of bounded SCQ rings (LSCQ-style
     queue-of-queues).  Enqueuers deposit into the tail ring; when it
     is full they CLOSE it (a one-way flag), append a fresh ring with a
     helping CAS, and retry there.  Dequeuers drain the head ring and
     retire it once it is closed, quiesced and empty.

     The [inflight] counter makes retirement safe: an enqueuer
     increments it BEFORE reading [closed] and decrements it only after
     its deposit attempt resolved.  Under OCaml's sequentially
     consistent atomics, a dequeuer that observes [closed = true] and
     then [inflight = 0] knows every enqueuer that read [closed =
     false] has finished — any later arrival must observe [closed =
     true] and move on — so an emptiness check AFTER that observation
     is permanent, and advancing head past the ring cannot strand a
     value. *)
  module Elastic = struct
    type 'a node = {
      ring : 'a Scq.t;
      closed : bool A.t;
      inflight : int A.t;
      next : 'a node option A.t;
    }

    type 'a q = {
      head : 'a node A.t;
      tail : 'a node A.t;
      ring_capacity : int;
    }

    let fresh_node cap =
      {
        ring = Scq.create ~capacity:cap ();
        closed = A.make false;
        inflight = A.make_contended 0;
        next = A.make None;
      }

    let create ~ring_capacity () =
      let cap = max 1 ring_capacity in
      let n = fresh_node cap in
      { head = A.make_contended n; tail = A.make_contended n; ring_capacity = cap }

    let advance_tail q n nxt = ignore (A.compare_and_set q.tail n nxt)

    (* Ensure [n] has a successor and the tail points past [n]; any
       number of enqueuers may help, exactly one append CAS wins. *)
    let rec grow q n =
      match A.get n.next with
      | Some nxt -> advance_tail q n nxt
      | None ->
          let fresh = fresh_node q.ring_capacity in
          if A.compare_and_set n.next None (Some fresh) then
            advance_tail q n fresh
          else grow q n

    let rec enqueue q v =
      let n = A.get q.tail in
      match A.get n.next with
      | Some nxt ->
          (* stale tail: help it along, as in the MS queue's E12 *)
          advance_tail q n nxt;
          enqueue q v
      | None ->
          ignore (A.fetch_and_add n.inflight 1);
          if A.get n.closed then begin
            ignore (A.fetch_and_add n.inflight (-1));
            grow q n;
            enqueue q v
          end
          else if Scq.try_enqueue n.ring v then
            ignore (A.fetch_and_add n.inflight (-1))
          else begin
            (* full: close this ring for good and move the chain on *)
            ignore (A.fetch_and_add n.inflight (-1));
            A.set n.closed true;
            grow q n;
            enqueue q v
          end

    let rec deq_node q n =
      match Scq.try_dequeue n.ring with
      | Some _ as r -> r
      | None -> (
          if not (A.get n.closed) then
            (* open ring observed empty: the chain holds nothing past
               an open ring, so the queue was empty at that point *)
            None
          else
            match A.get n.next with
            | None ->
                (* closed and last: [next] transitions None -> Some
                   exactly once, so nothing existed beyond this ring
                   when the (earlier) emptiness verdict was read *)
                None
            | Some nxt ->
                if A.get n.inflight = 0 then
                  (* quiesced (see the module comment): one more
                     emptiness check is now permanent *)
                  match Scq.try_dequeue n.ring with
                  | Some _ as r -> r
                  | None ->
                      ignore (A.compare_and_set q.head n nxt);
                      deq_node q nxt
                else
                  (* in-flight enqueuers may still deposit here; their
                     ops overlap ours, so skipping ahead is
                     linearizable — but the ring must not be retired *)
                  deq_node q nxt)

    let dequeue q = deq_node q (A.get q.head)

    let fold_nodes q f acc =
      let rec go acc n =
        let acc = f acc n in
        match A.get n.next with None -> acc | Some nxt -> go acc nxt
      in
      go acc (A.get q.head)

    let length q = fold_nodes q (fun acc n -> acc + Scq.length n.ring) 0
    let is_empty q = length q = 0
    let rings q = fold_nodes q (fun acc _ -> acc + 1) 0
  end

  (* ---------------------------------------------------------------- *)
  (* Shards: one closure record per shard so the hot paths are a single
     indirect call, whatever the kind.  [s_enqueue_batch_total] is the
     batch path that cannot refuse (segmented range claims, elastic
     growth); [None] for bounded shards, which go element-by-element
     through the policy engine instead. *)

  type 'a shard = {
    s_try_enqueue : 'a -> bool;
    s_try_dequeue : unit -> 'a option;
    s_enqueue_batch_total : ('a list -> unit) option;
    s_dequeue_batch : max:int -> 'a list;
    s_length : unit -> int;
    s_peek : unit -> 'a option;
  }

  let collect try_deq max =
    let rec go acc k =
      if k = 0 then List.rev acc
      else
        match try_deq () with
        | None -> List.rev acc
        | Some v -> go (v :: acc) (k - 1)
    in
    go [] max

  let segmented_shard () =
    let q = Seg.create () in
    {
      s_try_enqueue = (fun v -> Seg.enqueue q v; true);
      s_try_dequeue = (fun () -> Seg.dequeue q);
      s_enqueue_batch_total = Some (fun vs -> Seg.enqueue_batch q vs);
      s_dequeue_batch = (fun ~max -> Seg.dequeue_batch q ~max);
      s_length = (fun () -> Seg.length q);
      s_peek = (fun () -> Seg.peek q);
    }

  (* A dequeue claims a ticket only when the ring's two-load test says
     it may hold an item, so polling an empty shard writes no shared
     line and records no probe mark.  The test is here, on the polling
     path, and not in [Scq.try_dequeue]: two more loads before every
     FAA slowed two domains sharing one ring by 7-11%. *)
  let bounded_shard q =
    let poll () = if Scq.maybe_nonempty q then Scq.try_dequeue q else None in
    {
      s_try_enqueue = (fun v -> Scq.try_enqueue q v);
      s_try_dequeue = poll;
      s_enqueue_batch_total = None;
      s_dequeue_batch = (fun ~max -> collect poll max);
      s_length = (fun () -> Scq.length q);
      s_peek = (fun () -> None);
    }

  let elastic_shard cfg =
    let q = Elastic.create ~ring_capacity:cfg.shard_capacity () in
    {
      s_try_enqueue = (fun v -> Elastic.enqueue q v; true);
      s_try_dequeue = (fun () -> Elastic.dequeue q);
      s_enqueue_batch_total = Some (fun vs -> List.iter (Elastic.enqueue q) vs);
      s_dequeue_batch = (fun ~max -> collect (fun () -> Elastic.dequeue q) max);
      s_length = (fun () -> Elastic.length q);
      s_peek = (fun () -> None);
    }

  (* Whether any ring's two-load empty test fails: a direct loop, so a
     test allocates nothing. *)
  let rec any_nonempty qs k =
    k < Array.length qs && (Scq.maybe_nonempty qs.(k) || any_nonempty qs (k + 1))

  (* The shards, and the dequeue engine's hint, built once: only SCQ
     rings answer empty from two loads, so Segmented and Elastic shards
     give none and their dequeue retries spin blind. *)
  let make_shards cfg =
    match cfg.kind with
    | Bounded ->
        let qs =
          Array.init cfg.shards (fun _ -> Scq.create ~capacity:cfg.shard_capacity ())
        in
        (Array.map bounded_shard qs, Some (fun () -> any_nonempty qs 0))
    | Segmented -> (Array.init cfg.shards (fun _ -> segmented_shard ()), None)
    | Elastic -> (Array.init cfg.shards (fun _ -> elastic_shard cfg), None)

  type 'a t = {
    cfg : config;
    shards : 'a shard array;
    engines : R.Engine.t array;  (* per-shard, enqueue direction *)
    deq_eng : R.Engine.t;  (* fabric-level, sweep attempts *)
    split_enq : int A.t;
    split_deq : int A.t;
  }

  let name = "fabric"

  let create ?(config = default_config) () =
    if config.shards < 1 then
      invalid_arg "Queue_fabric.create: shards must be >= 1";
    let shards, deq_hint = make_shards config in
    {
      cfg = config;
      shards;
      engines =
        Array.init config.shards (fun i ->
            R.Engine.create ~config:config.resilience
              ~name:(Printf.sprintf "fabric.shard%d" i) ());
      deq_eng =
        R.Engine.create ~config:config.resilience ?deq_hint ~name:"fabric.deq" ();
      split_enq = A.make_contended 0;
      split_deq = A.make_contended 0;
    }

  let config t = t.cfg
  let shard_count t = Array.length t.shards

  let route t = function
    | Some key -> (key land max_int) mod Array.length t.shards
    | None ->
        A.fetch_and_add t.split_enq 1 land max_int mod Array.length t.shards

  let try_enqueue ?key t v =
    let i = route t key in
    let s = t.shards.(i) in
    R.Engine.enqueue t.engines.(i) (fun () ->
        if s.s_try_enqueue v then Some () else None)

  (* One attempt: every shard once, from [start].  A top-level loop, not
     a local one, which would be a closure built at every retry. *)
  let rec sweep_from t start n k =
    if k = n then None
    else
      match t.shards.((start + k) mod n).s_try_dequeue () with
      | Some _ as r -> r
      | None -> sweep_from t start n (k + 1)

  let sweep t start = sweep_from t start (Array.length t.shards) 0

  let try_dequeue t =
    let start =
      A.fetch_and_add t.split_deq 1 land max_int mod Array.length t.shards
    in
    R.Engine.dequeue t.deq_eng (fun () -> sweep t start)

  let drain_one t = sweep t 0

  let enqueue_batch ?key t vs =
    match vs with
    | [] -> []
    | _ -> (
        let i = route t key in
        let s = t.shards.(i) in
        let eng = t.engines.(i) in
        match s.s_enqueue_batch_total with
        | Some f -> (
            match R.Engine.enqueue eng (fun () -> f vs; Some ()) with
            | Ok () -> []
            | Error _ -> vs (* unreachable: the attempt cannot refuse *))
        | None ->
            (* bounded shards: element-wise through the policy engine,
               keeping accepted elements in order and returning the
               refused ones in order *)
            List.filter
              (fun v ->
                match
                  R.Engine.enqueue eng (fun () ->
                      if s.s_try_enqueue v then Some () else None)
                with
                | Ok () -> false
                | Error _ -> true)
              vs)

  let dequeue_batch t ~max =
    let n = Array.length t.shards in
    let start = A.fetch_and_add t.split_deq 1 land max_int mod n in
    let acc = ref [] in
    let got = ref 0 in
    for k = 0 to n - 1 do
      if !got < max then begin
        match t.shards.((start + k) mod n).s_dequeue_batch ~max:(max - !got) with
        | [] -> ()
        | l ->
            acc := l :: !acc;
            got := !got + List.length l
      end
    done;
    List.concat (List.rev !acc)

  let peek_any t =
    let n = Array.length t.shards in
    let rec go k =
      if k = n then None
      else
        match t.shards.(k).s_peek () with
        | Some _ as r -> r
        | None -> go (k + 1)
    in
    go 0

  let shard_lengths t = Array.map (fun s -> s.s_length ()) t.shards
  let length t = Array.fold_left (fun acc s -> acc + s.s_length ()) 0 t.shards
  let is_empty t = Array.for_all (fun s -> s.s_length () = 0) t.shards

  module Producer = struct
    type 'a handle = {
      fab : 'a t;
      key : int option;
      batch : int;
      mutable buf : 'a list;  (* newest first *)
      mutable n : int;
    }

    let create ?key ?batch fab =
      let batch =
        match batch with Some b -> max 1 b | None -> max 1 fab.cfg.batch
      in
      { fab; key; batch; buf = []; n = 0 }

    let pending h = h.n

    let flush h =
      match h.buf with
      | [] -> []
      | buf ->
          let vs = List.rev buf in
          h.buf <- [];
          h.n <- 0;
          enqueue_batch ?key:h.key h.fab vs

    let push h v =
      h.buf <- v :: h.buf;
      h.n <- h.n + 1;
      if h.n >= h.batch then flush h else []
  end

  let shard_outcomes t = Array.map R.Engine.outcomes t.engines

  let add_outcomes (a : R.outcomes) (b : R.outcomes) =
    R.
      {
        timeouts = a.timeouts + b.timeouts;
        sheds = a.sheds + b.sheds;
        rejections = a.rejections + b.rejections;
        breaker_trips = a.breaker_trips + b.breaker_trips;
        breaker_recoveries = a.breaker_recoveries + b.breaker_recoveries;
      }

  let outcomes t =
    Array.fold_left
      (fun acc e -> add_outcomes acc (R.Engine.outcomes e))
      (R.Engine.outcomes t.deq_eng)
      t.engines

  let enq_breaker_states t =
    Array.map (fun e -> R.Engine.breaker_state e `Enq) t.engines

  let dequeue_metrics t = R.Engine.metrics t.deq_eng

  (* Per-shard depth and breaker-state gauges (Closed=0, Half_open=1,
     Open=2) plus the dequeue engine's metrics, all under [prefix] so
     one [Obs.Sampler.remove ~prefix] tears them down. *)
  let register_telemetry ?(prefix = "fabric") t =
    Obs.Sampler.register_gauge (prefix ^ ".length") (fun () ->
        float_of_int (length t));
    Array.iteri
      (fun i shard ->
        let labels = [ ("shard", string_of_int i) ] in
        Obs.Sampler.register_gauge ~labels
          (Printf.sprintf "%s.shard_depth.%d" prefix i)
          (fun () -> float_of_int (shard.s_length ()));
        Obs.Sampler.register_gauge ~labels
          (Printf.sprintf "%s.breaker_open.%d" prefix i)
          (fun () ->
            match R.Engine.breaker_state t.engines.(i) `Enq with
            | R.Closed -> 0.
            | R.Half_open -> 1.
            | R.Open -> 2.))
      t.shards;
    Obs.Sampler.register_metrics
      ~prefix:(prefix ^ ".dequeue")
      (R.Engine.metrics t.deq_eng)

  let to_json t =
    let module J = Obs.Json in
    J.Assoc
      [
        ("shards", J.Int (Array.length t.shards));
        ("kind", J.String (kind_to_string t.cfg.kind));
        ("shard_capacity", J.Int t.cfg.shard_capacity);
        ( "lengths",
          J.List (Array.to_list (Array.map (fun l -> J.Int l) (shard_lengths t)))
        );
        ("outcomes", R.outcomes_json (outcomes t));
        ("dequeue", R.Engine.to_json t.deq_eng);
        ( "shard_engines",
          J.List (Array.to_list (Array.map R.Engine.to_json t.engines)) );
      ]
end

include Make (Core.Atomic_intf.Stdlib_atomic)

(* The registry adapter: segmented shards (enqueue total, peek exists),
   domain-keyed routing (per-producer FIFO), Fail_fast with the breaker
   off (exact dequeue/length at quiescence — the generic suites' model
   comparisons depend on it). *)
let adapter_config =
  {
    default_config with
    shards = 4;
    kind = Segmented;
    batch = 1;
    resilience =
      { R.default with policy = R.Fail_fast; breaker_threshold = 0 };
  }

module As_queue = struct
  type nonrec 'a t = 'a t

  let name = "fabric"
  let create () = create ~config:adapter_config ()

  let enqueue q v =
    match try_enqueue ~key:(Domain.self () :> int) q v with
    | Ok () -> ()
    | Error _ -> assert false (* segmented shards cannot refuse *)

  let dequeue q =
    match try_dequeue q with Ok v -> Some v | Error _ -> None

  let peek = peek_any
  let is_empty = is_empty
  let length = length
end

module Single_key = struct
  type nonrec 'a t = 'a t

  let name = "fabric:key0"
  let create () = create ~config:adapter_config ()

  let enqueue q v =
    match try_enqueue ~key:0 q v with
    | Ok () -> ()
    | Error _ -> assert false

  let dequeue q =
    match try_dequeue q with Ok v -> Some v | Error _ -> None

  let peek = peek_any
  let is_empty = is_empty
  let length = length
end
