type entry = { key : string; algo : (module Squeues.Intf.S) }

let all =
  [
    { key = "single-lock"; algo = (module Squeues.Single_lock_queue) };
    { key = "mc"; algo = (module Squeues.Mc_queue) };
    { key = "valois"; algo = (module Squeues.Valois_queue) };
    { key = "two-lock"; algo = (module Squeues.Two_lock_queue) };
    { key = "plj"; algo = (module Squeues.Plj_queue) };
    { key = "ms"; algo = (module Squeues.Ms_queue) };
  ]

let extras =
  [
    { key = "stone"; algo = (module Squeues.Stone_queue) };
    { key = "stone-ring"; algo = (module Squeues.Stone_ring_queue) };
    { key = "hb"; algo = (module Squeues.Hb_queue) };
    { key = "scq"; algo = (module Squeues.Scq_queue) };
    { key = "fabric"; algo = (module Squeues.Fabric_queue) };
  ]

let keys = List.map (fun e -> e.key) all
let nonblocking = [ "valois"; "plj"; "ms" ]

let find key =
  match List.find_opt (fun e -> e.key = key) (all @ extras) with
  | Some e -> e.algo
  | None ->
      raise
        (Invalid_argument
           (Printf.sprintf "unknown algorithm %S (available: %s)" key
              (String.concat ", " (List.map (fun e -> e.key) (all @ extras)))))

(* ------------------------------------------------------------------ *)
(* Native queues *)

type native_entry = {
  key : string;
  queue : (module Core.Queue_intf.BOUNDED);
  unbounded : (module Core.Queue_intf.S) option;
  batch : (module Core.Queue_intf.BATCH) option;
}

let unbounded key (module Q : Core.Queue_intf.S) =
  {
    key;
    queue = (module Core.Queue_intf.Unbounded (Q));
    unbounded = Some (module Q);
    batch = None;
  }

let native =
  [
    unbounded "ms" (module Core.Ms_queue);
    unbounded "ms-counted" (module Core.Ms_queue_counted);
    unbounded "ms-hp" (module Core.Ms_queue_hp);
    {
      (unbounded "segmented" (module Core.Segmented_queue)) with
      batch = Some (module Core.Segmented_queue);
    };
    unbounded "two-lock" (module Core.Two_lock_queue);
    unbounded "single-lock" (module Baselines.Single_lock_queue);
    unbounded "mc" (module Baselines.Mc_queue);
    unbounded "plj" (module Baselines.Plj_queue);
    unbounded "fabric" (module Fabric.Queue_fabric.As_queue);
    {
      key = "scq";
      queue = (module Core.Scq_queue);
      unbounded = None;
      batch = None;
    };
  ]

let native_keys = List.map (fun e -> e.key) native

let find_native key =
  match List.find_opt (fun e -> e.key = key) native with
  | Some e -> e
  | None ->
      raise
        (Invalid_argument
           (Printf.sprintf "unknown native queue %S (available: %s)" key
              (String.concat ", " native_keys)))
