type op =
  | Enq of int
  | Deq of int option
  | Try_enq of int * bool

type entry = { proc : int; op : op; start : int; finish : int }

type t = entry list

(* Entries go into per-proc buckets (newest first) so recording needs
   no lock; only the stamp counter is shared. *)
type recorder = {
  stamp : int Atomic.t;
  buckets : (int, entry list ref) Hashtbl.t;
  buckets_lock : Mutex.t;
}

let create_recorder () =
  { stamp = Atomic.make 0; buckets = Hashtbl.create 16; buckets_lock = Mutex.create () }

let bucket r proc =
  Mutex.lock r.buckets_lock;
  let b =
    match Hashtbl.find_opt r.buckets proc with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add r.buckets proc b;
        b
  in
  Mutex.unlock r.buckets_lock;
  b

let record r ~proc f =
  let b = bucket r proc in
  let start = Atomic.fetch_and_add r.stamp 1 in
  let op = f () in
  let finish = Atomic.fetch_and_add r.stamp 1 in
  b := { proc; op; start; finish } :: !b

let record_many r ~proc f =
  let b = bucket r proc in
  let start = Atomic.fetch_and_add r.stamp 1 in
  let ops = f () in
  let finish = Atomic.fetch_and_add r.stamp 1 in
  List.iter (fun op -> b := { proc; op; start; finish } :: !b) ops

(* Oldest first, a batch's elements in batch order: the checker tries
   operations in this order, so a sequential history linearizes on its
   first path instead of exploring every wrong permutation of each
   batch first.  The sort is stable, and reversing a bucket restores
   batch order among entries sharing one start stamp. *)
let history r =
  Mutex.lock r.buckets_lock;
  let entries =
    Hashtbl.fold (fun _ b acc -> List.rev_append !b acc) r.buckets []
  in
  Mutex.unlock r.buckets_lock;
  List.stable_sort (fun a b -> compare a.start b.start) entries

let pp_op fmt = function
  | Enq v -> Format.fprintf fmt "enq %d" v
  | Deq None -> Format.fprintf fmt "deq -> empty"
  | Deq (Some v) -> Format.fprintf fmt "deq -> %d" v
  | Try_enq (v, true) -> Format.fprintf fmt "try_enq %d -> ok" v
  | Try_enq (v, false) -> Format.fprintf fmt "try_enq %d -> full" v

let pp_entry fmt e =
  Format.fprintf fmt "p%d [%d,%d] %a" e.proc e.start e.finish pp_op e.op
