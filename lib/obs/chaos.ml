(* One stream per domain row from [Locks.Backoff]'s SplitMix64 bank
   (padding discipline as in [Locks.Probe]), each seeded from the global
   seed plus the row index, so the delay sequence any domain sees is a
   pure function of (seed, domain id). *)

type config = { seed : int64; one_in : int; max_delay : int }

let default = { seed = 0x6368616F73L (* "chaos" *); one_in = 4; max_delay = 96 }
let config = ref default
let streams = Locks.Backoff.streams default.seed
let reseed () = Locks.Backoff.reseed_streams streams !config.seed

let configure ?seed ?one_in ?max_delay () =
  let c = !config in
  let c = match seed with Some s -> { c with seed = s } | None -> c in
  let c =
    match one_in with
    | Some n when n >= 1 -> { c with one_in = n }
    | Some n -> invalid_arg (Printf.sprintf "Chaos.configure: one_in %d < 1" n)
    | None -> c
  in
  let c =
    match max_delay with
    | Some d when d >= 1 -> { c with max_delay = d }
    | Some d -> invalid_arg (Printf.sprintf "Chaos.configure: max_delay %d < 1" d)
    | None -> c
  in
  config := c;
  reseed ()

let current () = !config

let hit_count = Atomic.make 0
let hits () = Atomic.get hit_count
let reset_hits () = Atomic.set hit_count 0

let on = ref false
let enabled () = !on

(* The perturbation itself: usually a short relax burst, occasionally
   (1/16th of the delays) a long one standing in for a preemption. *)
let perturb () =
  let c = !config in
  let bits = Locks.Backoff.draw streams in
  if bits mod c.one_in = 0 then begin
    Atomic.incr hit_count;
    let scale = if (bits / c.one_in) mod 16 = 0 then 16 * c.max_delay else c.max_delay in
    let d = 1 + ((bits / 256) mod scale) in
    for _ = 1 to d do
      Domain.cpu_relax ()
    done
  end

let maybe_delay _label = if !on then perturb ()

let enable () =
  on := true;
  Locks.Probe.set_site_hook maybe_delay

let disable () =
  on := false;
  Locks.Probe.clear_site_hook ()

let with_enabled ?seed f =
  (match seed with Some s -> configure ~seed:s () | None -> ());
  let was = !on in
  enable ();
  Fun.protect ~finally:(fun () -> if not was then disable ()) f

(* The wrappers' two delay sites: [enter] before every call into the
   queue, [leave] on its way out.  The one perturbed body is
   [Make_bounded]; [Make]/[Make_batch] apply it through
   [Queue_intf.Unbounded] ('a t = 'a Q.t stays visible in this file;
   the mli seals it) and delegate the rest. *)
let enter () = maybe_delay "wrap.pre"

let leave r =
  maybe_delay "wrap.post";
  r

module Make_bounded (Q : Core.Queue_intf.BOUNDED) = struct
  type 'a t = 'a Q.t

  let name = Q.name ^ "+chaos"
  let create = Q.create
  let capacity = Q.capacity

  let try_enqueue q v =
    enter ();
    leave (Q.try_enqueue q v)

  let try_dequeue q =
    enter ();
    leave (Q.try_dequeue q)

  let is_empty = Q.is_empty
  let length = Q.length
end

module Make_s (Q : Core.Queue_intf.S) = struct
  include Make_bounded (Core.Queue_intf.Unbounded (Q))

  let create () = Q.create ()
  let enqueue q v = ignore (try_enqueue q v)
  let dequeue = try_dequeue
  let peek = Q.peek
end

module Make (Q : Core.Queue_intf.S) : Core.Queue_intf.S = Make_s (Q)

module Make_batch (Q : Core.Queue_intf.BATCH) : Core.Queue_intf.BATCH = struct
  include Make_s (Q)

  let enqueue_batch q vs =
    enter ();
    leave (Q.enqueue_batch q vs)

  let dequeue_batch q ~max =
    enter ();
    leave (Q.dequeue_batch q ~max)
end
