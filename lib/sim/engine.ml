type pid = int

type proc_state =
  | Runnable
  | Stalled of int  (* absolute cycle at which the stall ends *)
  | Finished
  | Killed

type process = {
  pid : pid;
  cpu : int;
  mutable k : Op.reply -> Api.step;
  mutable reply : Op.reply;
  mutable state : proc_state;
  mutable finish_time : int;
  mutable planned_stalls : (int * int) list;  (* (at, duration), at-ordered *)
  mutable ops_executed : int;
  mutable crash_after : int option;  (* fail-stop after this many ops *)
  mutable restart : (int * (unit -> unit)) option;
      (* (delay, body): when the crash fires, spawn [body] on the same
         processor [delay] cycles later — crash+restart instead of
         fail-stop forever *)
}

type processor = {
  id : int;
  mutable clock : int;
  mutable busy : int;  (* cycles spent executing ops and switching *)
  runq : process Queue.t;
  mutable live : int;
      (* processes of [runq] neither finished nor killed: the processor
         is eligible to run iff this is positive *)
  mutable quantum_left : int;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  cache : Cache.t;
  hp : Heap.t;
  processors : processor array;
  procs : (pid, process) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable next_pid : int;
  mutable next_cpu : int;  (* round-robin spawn assignment *)
  mutable remaining : int;  (* spawned, not finished, not killed *)
  mutable steps : int;
  mutable context_switches : int;
  mutable failure : exn option;
  mutable trace : Trace.t option;
  (* watchdog bookkeeping: [max_clock] is the global high-water clock,
     [last_progress] the value it had when some process last made
     progress (Op.Progress, finishing, or a legitimate idle sleep). *)
  mutable max_clock : int;
  mutable last_progress : int;
  mutable blocked : blocked_info option;
  mutable revivals : (int * int * (unit -> unit)) list;
      (* (at_cycle, cpu, body): replacement processes waiting to join
         after a crash+restart; fired by [run] *)
}

and process_view = {
  view_pid : pid;
  view_cpu : int;
  view_state : string;  (* "runnable" | "stalled" *)
  view_ops : int;
}

and blocked_info = {
  at_cycle : int;
  progress_cycle : int;  (* [max_clock] when progress last happened *)
  watchdog_cycles : int;
  live : process_view list;
  tails : (pid * Trace.event list) list;
      (* last trace events of each live process, newest last; empty
         unless tracing was enabled on the engine *)
}

type outcome =
  | Completed
  | Step_limit
  | Blocked

let create (cfg : Config.t) =
  let mem = Memory.create ~n_processors:cfg.n_processors in
  {
    cfg;
    mem;
    cache = Cache.create cfg;
    hp = Heap.create ~line_words:cfg.line_words mem;
    processors =
      Array.init cfg.n_processors (fun id ->
          {
            id;
            clock = 0;
            busy = 0;
            runq = Queue.create ();
            live = 0;
            quantum_left = cfg.quantum;
          });
    procs = Hashtbl.create 64;
    counters = Hashtbl.create 16;
    next_pid = 0;
    next_cpu = 0;
    remaining = 0;
    steps = 0;
    context_switches = 0;
    failure = None;
    trace = None;
    max_clock = 0;
    last_progress = 0;
    blocked = None;
    revivals = [];
  }

let memory t = t.mem
let heap t = t.hp
let config t = t.cfg

let setup_alloc ?label t n =
  let addr = Heap.alloc t.hp n in
  (match label with
  | Some l -> Cache.label_range t.cache ~addr ~words:n l
  | None -> ());
  addr

let poke t addr v = Memory.poke t.mem addr v
let peek t addr = Memory.peek t.mem addr
let enable_line_stats t = Cache.enable_line_stats t.cache
let label t ~addr ~words name = Cache.label_range t.cache ~addr ~words name
let line_report t = Cache.line_report t.cache
let line_of_addr t addr = Cache.line t.cache addr

let spawn ?cpu t body =
  let cpu =
    match cpu with
    | Some c ->
        if c < 0 || c >= t.cfg.n_processors then invalid_arg "Engine.spawn: bad cpu";
        c
    | None ->
        let c = t.next_cpu in
        t.next_cpu <- (t.next_cpu + 1) mod t.cfg.n_processors;
        c
  in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let start = Api.reify body in
  let p =
    {
      pid;
      cpu;
      k = (fun _reply -> start ());
      reply = Op.Unit;
      state = Runnable;
      finish_time = -1;
      planned_stalls = [];
      ops_executed = 0;
      crash_after = None;
      restart = None;
    }
  in
  Hashtbl.add t.procs pid p;
  let c = t.processors.(cpu) in
  Queue.push p c.runq;
  c.live <- c.live + 1;
  t.remaining <- t.remaining + 1;
  pid

let find_process t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)

(* [p] stops for good: it no longer counts toward [remaining] nor toward
   its processor's [live]. *)
let retire t p (state : proc_state) =
  p.state <- state;
  t.remaining <- t.remaining - 1;
  let cpu = t.processors.(p.cpu) in
  cpu.live <- cpu.live - 1

let stall t pid cycles =
  if cycles < 0 then invalid_arg "Engine.stall: negative duration";
  let p = find_process t pid in
  match p.state with
  | Runnable -> p.state <- Stalled (t.processors.(p.cpu).clock + cycles)
  | Stalled until -> p.state <- Stalled (max until (t.processors.(p.cpu).clock + cycles))
  | Finished | Killed -> ()

let plan_stall t pid ~at ~duration =
  if at < 0 || duration <= 0 then invalid_arg "Engine.plan_stall";
  let p = find_process t pid in
  p.planned_stalls <-
    List.sort (fun (a, _) (b, _) -> compare a b) ((at, duration) :: p.planned_stalls)

let kill t pid =
  let p = find_process t pid in
  match p.state with
  | Finished | Killed -> ()
  | Runnable | Stalled _ -> retire t p Killed

let plan_crash t pid ~after_ops =
  if after_ops < 0 then invalid_arg "Engine.plan_crash: negative operation index";
  let p = find_process t pid in
  p.crash_after <- Some after_ops

let plan_crash_restart t pid ~after_ops ~restart_after body =
  if after_ops < 0 then
    invalid_arg "Engine.plan_crash_restart: negative operation index";
  if restart_after < 0 then
    invalid_arg "Engine.plan_crash_restart: negative restart delay";
  let p = find_process t pid in
  p.crash_after <- Some after_ops;
  p.restart <- Some (restart_after, body)

let ops_executed t pid = (find_process t pid).ops_executed

let bump_counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> incr r
  | None -> Hashtbl.add t.counters name (ref 1)

(* Progress happened "now" in global time: credit the watchdog window
   from the high-water clock, not the (possibly lagging) local clock, so
   a slow processor's progress mark cannot re-arm an already-elapsed
   window. *)
let mark_progress t (cpu : processor) =
  t.last_progress <- max t.last_progress (max t.max_clock cpu.clock)

(* Execute one operation for process [p] on processor [cpu]; returns the
   cycle cost and the reply fed back to the process.  A memory operation
   runs before its cache cost is charged: [Memory] rejects an address
   outside memory before the coherence directory ever sees it. *)
let exec_op t (cpu : processor) (p : process) (op : Op.t) : int * Op.reply =
  let proc = cpu.id in
  match op with
  | Op.Read a ->
      let w = Memory.read t.mem ~proc a in
      (Cache.read_cost t.cache ~proc ~addr:a, Op.Word w)
  | Op.Write (a, v) ->
      Memory.write t.mem ~proc a v;
      (Cache.write_cost t.cache ~proc ~addr:a, Op.Unit)
  | Op.Cas { addr; expected; desired } ->
      let ok = Memory.cas t.mem ~proc addr ~expected ~desired in
      (Cache.rmw_cost t.cache ~proc ~addr, Op.Bool ok)
  | Op.Fetch_and_add (a, d) ->
      let old = Memory.fetch_and_add t.mem ~proc a d in
      (Cache.rmw_cost t.cache ~proc ~addr:a, Op.Word old)
  | Op.Swap (a, v) ->
      let old = Memory.swap t.mem ~proc a v in
      (Cache.rmw_cost t.cache ~proc ~addr:a, Op.Word old)
  | Op.Test_and_set a ->
      let won = Memory.test_and_set t.mem ~proc a in
      (Cache.rmw_cost t.cache ~proc ~addr:a, Op.Bool won)
  | Op.Load_linked a ->
      let w = Memory.load_linked t.mem ~proc a in
      (Cache.read_cost t.cache ~proc ~addr:a, Op.Word w)
  | Op.Store_conditional (a, v) ->
      let ok = Memory.store_conditional t.mem ~proc a v in
      (Cache.rmw_cost t.cache ~proc ~addr:a, Op.Bool ok)
  | Op.Alloc n -> (t.cfg.alloc_cost, Op.Int (Heap.alloc t.hp n))
  | Op.Free { addr; size } ->
      Heap.free t.hp ~addr ~size;
      (t.cfg.alloc_cost, Op.Unit)
  | Op.Work n -> (n, Op.Unit)
  | Op.Yield -> (1, Op.Unit)
  | Op.Count name ->
      bump_counter t name;
      (0, Op.Unit)
  | Op.Progress ->
      mark_progress t cpu;
      (0, Op.Unit)
  | Op.Now -> (0, Op.Int cpu.clock)
  | Op.Self -> (0, Op.Int p.pid)
  | Op.Phase_begin _ | Op.Phase_end _ -> (0, Op.Unit)

let context_switch t (cpu : processor) =
  cpu.clock <- cpu.clock + t.cfg.context_switch_cost;
  cpu.busy <- cpu.busy + t.cfg.context_switch_cost;
  cpu.quantum_left <- t.cfg.quantum;
  t.context_switches <- t.context_switches + 1;
  Memory.clear_reservation t.mem ~proc:cpu.id

(* Drop finished/killed processes from the front, skip over stalled ones
   (charging one context switch if we had to pass any), and return the
   process to run next on [cpu] — or how long the processor must idle. *)
let rec select t (cpu : processor) ~rotated =
  if Queue.is_empty cpu.runq then `Idle_forever
  else
    let p = Queue.peek cpu.runq in
    match p.state with
    | Finished | Killed ->
        ignore (Queue.pop cpu.runq);
        select t cpu ~rotated
    | Runnable ->
        if rotated > 0 then context_switch t cpu;
        `Run p
    | Stalled until when until <= cpu.clock ->
        p.state <- Runnable;
        if rotated > 0 then context_switch t cpu;
        `Run p
    | Stalled _ ->
        if rotated >= Queue.length cpu.runq then begin
          (* Everyone on this processor is stalled: idle to the earliest
             wake-up.  [until] of the current front is not necessarily the
             minimum, so scan. *)
          let earliest =
            Queue.fold
              (fun acc q ->
                match q.state with Stalled u -> min acc u | _ -> acc)
              max_int cpu.runq
          in
          `Idle_until earliest
        end
        else begin
          ignore (Queue.pop cpu.runq);
          Queue.push p cpu.runq;
          select t cpu ~rotated:(rotated + 1)
        end

(* The index of the eligible processor (one with a live process) whose
   clock is lowest, the lowest index on a tie; -1 if none is eligible. *)
let pick_processor t =
  let best = ref (-1) and best_clock = ref 0 in
  for i = 0 to Array.length t.processors - 1 do
    let cpu = t.processors.(i) in
    if cpu.live > 0 && (!best < 0 || cpu.clock < !best_clock) then begin
      best := i;
      best_clock := cpu.clock
    end
  done;
  !best

let step_processor t (cpu : processor) =
  match select t cpu ~rotated:0 with
  | `Idle_forever -> ()
  | `Idle_until c ->
      cpu.clock <- max cpu.clock c;
      (* every process of this processor is legitimately asleep — that is
         scheduling, not deadlock, so it re-arms the watchdog window *)
      mark_progress t cpu
  | `Run p -> (
      match p.crash_after with
      | Some n when p.ops_executed >= n ->
          (* fail-stop: the last operation's memory effect stands but the
             process never runs another instruction — a lock it holds
             stays held forever, a half-linked node stays half-linked *)
          retire t p Killed;
          ignore (Queue.pop cpu.runq);
          (match p.restart with
          | Some (delay, body) ->
              (* crash+restart: a replacement process re-joins on the
                 same processor after [delay] cycles.  It is a NEW
                 process (fresh pid, no memory of the crash) — whatever
                 the victim left half-done stays half-done. *)
              t.revivals <- (cpu.clock + delay, p.cpu, body) :: t.revivals
          | None -> ())
      | _ -> (
      match p.planned_stalls with
      | (at, duration) :: rest when at <= cpu.clock ->
          (* a planned delay fires between two operations *)
          p.planned_stalls <- rest;
          p.state <- Stalled (cpu.clock + duration)
      | _ ->
      (* Preempt at quantum expiry when someone else is waiting. *)
      if cpu.quantum_left <= 0 then
        if Queue.length cpu.runq > 1 then begin
          ignore (Queue.pop cpu.runq);
          Queue.push p cpu.runq;
          context_switch t cpu
          (* Re-selection happens on the next global step; the clock moved,
             so another processor may now be due first. *)
        end
        else cpu.quantum_left <- t.cfg.quantum
      else
        match p.k p.reply with
        | Api.Done ->
            retire t p Finished;
            p.finish_time <- cpu.clock;
            ignore (Queue.pop cpu.runq);
            mark_progress t cpu
        | Api.Raised e ->
            retire t p Finished;
            p.finish_time <- cpu.clock;
            ignore (Queue.pop cpu.runq);
            mark_progress t cpu;
            if t.failure = None then t.failure <- Some e
        | Api.Pending (op, k) ->
            let start = cpu.clock in
            let cost, reply = exec_op t cpu p op in
            p.ops_executed <- p.ops_executed + 1;
            cpu.clock <- cpu.clock + cost;
            cpu.busy <- cpu.busy + cost;
            (match t.trace with
            | Some tr ->
                let hit =
                  if Trace.is_memory_op op then Some (Cache.last_hit t.cache)
                  else None
                in
                Trace.record tr
                  {
                    Trace.time = cpu.clock;
                    start;
                    cpu = cpu.id;
                    pid = p.pid;
                    op;
                    reply;
                    hit;
                  }
            | None -> ());
            cpu.quantum_left <- cpu.quantum_left - cost;
            t.steps <- t.steps + 1;
            p.k <- k;
            p.reply <- reply;
            match op with
            | Op.Yield when Queue.length cpu.runq > 1 ->
                ignore (Queue.pop cpu.runq);
                Queue.push p cpu.runq;
                context_switch t cpu
            | _ -> ()))

(* The structured verdict of a watchdog expiry: which processes were
   still alive, what they were doing (their trace tails, when tracing is
   enabled), and the cycle window that elapsed without progress. *)
let build_blocked_info t ~watchdog =
  let live =
    Hashtbl.fold
      (fun _ p acc ->
        match p.state with
        | Runnable ->
            { view_pid = p.pid; view_cpu = p.cpu; view_state = "runnable";
              view_ops = p.ops_executed }
            :: acc
        | Stalled _ ->
            { view_pid = p.pid; view_cpu = p.cpu; view_state = "stalled";
              view_ops = p.ops_executed }
            :: acc
        | Finished | Killed -> acc)
      t.procs []
    |> List.sort (fun a b -> compare a.view_pid b.view_pid)
  in
  let tail_of pid =
    match t.trace with
    | None -> []
    | Some tr ->
        let events = Trace.by_pid tr pid in
        let n = List.length events in
        if n <= 12 then events else List.filteri (fun i _ -> i >= n - 12) events
  in
  {
    at_cycle = t.max_clock;
    progress_cycle = t.last_progress;
    watchdog_cycles = watchdog;
    live;
    tails = List.map (fun v -> (v.view_pid, tail_of v.view_pid)) live;
  }

let run ?(max_steps = 1_000_000_000) ?watchdog t =
  let outcome = ref Completed in
  (* the watchdog window opens at the current high-water clock, not at
     whatever [last_progress] was left over from a previous [run] call *)
  (match watchdog with
  | Some w when w <= 0 -> invalid_arg "Engine.run: watchdog must be positive"
  | Some _ -> t.last_progress <- max t.last_progress t.max_clock
  | None -> ());
  (* Replacement processes planned by crash+restart join the system the
     first time the global clock reaches their revival cycle.  Firing
     counts as progress (it is externally scheduled activity, like a
     legitimate sleep). *)
  let fire_due_revivals () =
    let due, later =
      List.partition (fun (at, _, _) -> at <= t.max_clock) t.revivals
    in
    if due <> [] then begin
      t.revivals <- later;
      List.iter
        (fun (_, cpu, body) ->
          ignore (spawn ~cpu t body);
          t.last_progress <- max t.last_progress t.max_clock)
        due
    end
  in
  (try
     while t.remaining > 0 || t.revivals <> [] do
       if t.remaining = 0 then begin
         (* everyone alive finished before a pending restart: idle the
            system forward to the earliest revival cycle *)
         let at =
           List.fold_left (fun acc (a, _, _) -> min acc a) max_int t.revivals
         in
         t.max_clock <- max t.max_clock at;
         t.last_progress <- max t.last_progress t.max_clock
       end;
       (match t.revivals with [] -> () | _ -> fire_due_revivals ());
       if t.steps >= max_steps then begin
         outcome := Step_limit;
         raise Exit
       end;
       (match watchdog with
       | Some w when t.max_clock - t.last_progress > w ->
           t.blocked <- Some (build_blocked_info t ~watchdog:w);
           outcome := Blocked;
           raise Exit
       | _ -> ());
       let i = pick_processor t in
       (* remaining > 0 but nobody eligible: impossible by construction,
          since killed/finished decrement [remaining] with [live] *)
       assert (i >= 0);
       let cpu = t.processors.(i) in
       step_processor t cpu;
       if cpu.clock > t.max_clock then t.max_clock <- cpu.clock
     done
   with Exit -> ());
  (match t.failure with
  | Some e ->
      t.failure <- None;
      raise e
  | None -> ());
  !outcome

let blocked t = t.blocked

let elapsed t =
  Array.fold_left (fun acc cpu -> max acc cpu.clock) 0 t.processors

let finish_time t pid =
  let p = find_process t pid in
  if p.finish_time < 0 then invalid_arg "Engine.finish_time: process not finished";
  p.finish_time

let enable_trace ?limit t =
  match t.trace with
  | Some tr -> tr
  | None ->
      let tr = Trace.create ?limit () in
      t.trace <- Some tr;
      tr

let trace t = t.trace

let stats t =
  {
    Stats.elapsed = elapsed t;
    steps = t.steps;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    invalidations = Cache.invalidations t.cache;
    context_switches = t.context_switches;
    counters =
      Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    per_cpu =
      Array.to_list (Array.map (fun cpu -> (cpu.clock, cpu.busy)) t.processors);
  }
