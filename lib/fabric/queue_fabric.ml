(* Sharded MPMC fabric.  See the .mli for the architecture; the code
   below is deliberately thin and has no protocol of its own — all the
   hard concurrency lives in the shard primitives (Scq_queue,
   Segmented_queue) and the policy engine (Resilient.Engine). *)

module R = Resilience.Resilient

type shard_kind = Bounded | Segmented

type config = {
  shards : int;
  shard_capacity : int;
  kind : shard_kind;
  resilience : R.config;
}

let default_config =
  { shards = 8; shard_capacity = 1024; kind = Bounded; resilience = R.default }

let kind_to_string = function Bounded -> "bounded" | Segmented -> "segmented"

type error = R.error

module type S = sig
  type 'a t

  val name : string
  val create : ?config:config -> unit -> 'a t
  val try_enqueue : ?key:int -> 'a t -> 'a -> (unit, error) result
  val try_dequeue : 'a t -> ('a, error) result
  val enqueue_batch : ?key:int -> 'a t -> 'a list -> 'a list
  val dequeue_batch : 'a t -> max:int -> 'a list
  val drain_one : 'a t -> 'a option
  val peek_any : 'a t -> 'a option
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val outcomes : 'a t -> R.outcomes
  val register_telemetry : ?prefix:string -> 'a t -> unit
  val to_json : 'a t -> Obs.Json.t
end

module Make (A : Core.Atomic_intf.ATOMIC) : S = struct
  module Scq = Core.Scq_queue.Make (A)
  module Seg = Core.Segmented_queue.Make (A)

  (* ---------------------------------------------------------------- *)
  (* Shards: one closure record per shard so the hot paths are a single
     indirect call, whatever the kind.  [s_enqueue_batch_total] is the
     batch path that cannot refuse (segmented range claims); [None] for
     bounded shards, which go element-by-element through the policy
     engine instead. *)

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

  (* Whether any ring's two-load empty test fails: a direct loop, so a
     test allocates nothing. *)
  let rec any_nonempty qs k =
    k < Array.length qs && (Scq.maybe_nonempty qs.(k) || any_nonempty qs (k + 1))

  (* The shards, and the dequeue engine's hint, built once.  Segmented
     shards give no hint, so their dequeue retries spin blind. *)
  let make_shards cfg =
    match cfg.kind with
    | Bounded ->
        let qs =
          Array.init cfg.shards (fun _ -> Scq.create ~capacity:cfg.shard_capacity ())
        in
        (Array.map bounded_shard qs, Some (fun () -> any_nonempty qs 0))
    | Segmented -> (Array.init cfg.shards (fun _ -> segmented_shard ()), None)

  type 'a t = {
    cfg : config;
    shards : 'a shard array;
    engines : R.Engine.t array;  (* per-shard, enqueue direction *)
    deq_eng : R.Engine.t;  (* fabric-level, sweep attempts *)
    split_enq : int A.t;
    split_deq : int A.t;
  }

  let name = "fabric"

  (* The dequeue engine runs without a breaker: both shard kinds answer
     an empty poll from loads alone (SCQ's two-load test, Segmented's
     [deq >= enq]), so a breaker would protect nothing and only turn an
     idle consumer's next polls into [Rejected] for a cooldown. *)
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
        R.Engine.create
          ~config:{ config.resilience with breaker_threshold = 0 }
          ?deq_hint ~name:"fabric.deq" ();
      split_enq = A.make_contended 0;
      split_deq = A.make_contended 0;
    }

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
