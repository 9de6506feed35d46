(* The default instances and the model checker's mutants are compiled
   from their functors' own text (tools/specialize): the specializer and
   the mutant generator on fixture files, and a guard that the shipped
   native modules are the specialized copies rather than
   [Make (Stdlib_atomic)]. *)

(* ------------------------------------------------------------------ *)
(* The specializer on fixture files. *)

let with_fixture text f =
  let path = Filename.temp_file "specialize" ".ml" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let specialize path =
  match Specialize.text ~file:path (Specialize.read_file path) with
  | Ok out -> out
  | Error msg -> Alcotest.failf "refused: %s" msg

(* The compiler's view of [out]: each line that is not a directive,
   with the source line number its directives give it. *)
let mapped out =
  let next = ref 1 in
  List.filter_map
    (fun l ->
      match Scanf.sscanf_opt l "# %d %S%!" (fun n _ -> n) with
      | Some n ->
          next := n;
          None
      | None ->
          let r = (!next, l) in
          incr next;
          Some r)
    (String.split_on_char '\n' out)

let plain =
  {|(* a queue *)
let width = 4

module Make (A : Atomic_intf.ATOMIC) = struct
  module HP = Hazard_pointers.Make (A)
  module Both = Pair (Core.Scq_queue.Make (A)) (Core.Segmented_queue.Make (A))
  module Other = Foo.Make (B)
  module Two = Make_generic (A) (Spin)

  let get = A.get
end

include Make (Atomic_intf.Stdlib_atomic)

let after = width
|}

let constrained =
  {|module type S = sig
  val get : int Atomic.t -> int
end

module Make (A : Core.Atomic_intf.ATOMIC) : S = struct
  let get = A.get
end

include Make (Core.Atomic_intf.Stdlib_atomic)
|}

let no_marker =
  {|module Make (A : Atomic_intf.ATOMIC) = struct
  let get = A.get
end

module Default = Make_lock (Ttas)
|}

let test_passthrough () =
  with_fixture no_marker @@ fun path ->
  Alcotest.(check string) "unchanged, byte for byte" no_marker (specialize path)

let test_plain_header () =
  with_fixture plain @@ fun path ->
  let out = specialize path in
  let expected =
    Printf.sprintf
      {|# 1 "%s"
(* a queue *)
let width = 4

module Make (A : Atomic_intf.ATOMIC) = struct
  module HP = Hazard_pointers.Make (A)
  module Both = Pair (Core.Scq_queue.Make (A)) (Core.Segmented_queue.Make (A))
  module Other = Foo.Make (B)
  module Two = Make_generic (A) (Spin)

  let get = A.get
end

include struct module A = Atomic_intf.Stdlib_atomic
# 5 "%s"
  module HP = Hazard_pointers
  module Both = Pair (Core.Scq_queue) (Core.Segmented_queue)
  module Other = Foo.Make (B)
  module Two = Make_generic (A) (Spin)

  let get = A.get
end
# 14 "%s"

let after = width
|}
      path path path
  in
  Alcotest.(check string) "functor kept, body emitted again" expected out

let test_constrained_header () =
  with_fixture constrained @@ fun path ->
  let out = specialize path in
  let expected =
    Printf.sprintf
      {|# 1 "%s"
module type S = sig
  val get : int Atomic.t -> int
end

module Make (A : Core.Atomic_intf.ATOMIC) : S = struct
  let get = A.get
end

include (struct module A = Core.Atomic_intf.Stdlib_atomic
# 6 "%s"
  let get = A.get
end : S)
# 10 "%s"
|}
      path path path
  in
  Alcotest.(check string) "signature kept on the emitted body" expected out

let test_nested_rewrite () =
  let rw = Specialize.rewrite ~param:"A" in
  Alcotest.(check (pair string (list string)))
    "one" ("  module HP = Hazard_pointers", [ "Hazard_pointers" ])
    (rw "  module HP = Hazard_pointers.Make (A)");
  Alcotest.(check (pair string (list string)))
    "two on a line, qualified"
    ("F (Core.Scq_queue) (Core.Segmented_queue)", [ "Core.Scq_queue"; "Core.Segmented_queue" ])
    (rw "F (Core.Scq_queue.Make (A)) (Core.Segmented_queue.Make (A))");
  List.iter
    (fun l -> Alcotest.(check (pair string (list string))) l (l, []) (rw l))
    [ "module B = Foo.Make (B)"; "include Make_generic (A) (Spin)"; "Make (A)"; "x.Make (A)" ]

(* Every emitted line sits at its source line: the body up to the
   rewrites, the rest verbatim; only the opening [include struct] (at
   the marker's line) and the [end : S)] differ. *)
let test_directives_map_lines () =
  List.iter
    (fun (name, src) ->
      with_fixture src @@ fun path ->
      let lines = Specialize.lines_of src in
      let out = specialize path in
      let site =
        match Specialize.find ~file:path lines with
        | Ok (Some s) -> s
        | _ -> Alcotest.failf "%s: no site" name
      in
      let in_body n = n > site.header + 1 && n <= site.stop in
      List.iteri
        (fun i (n, l) ->
          let source = lines.(n - 1) in
          let ok =
            l = source
            || (in_body n && l = fst (Specialize.rewrite ~param:"A" source))
            || (n = site.marker + 1 && String.starts_with ~prefix:"include" l)
            || (n = site.stop + 1 && l = "end : S)")
          in
          if not ok then
            Alcotest.failf "%s: output line %d maps to source line %d: %S vs %S" name (i + 1) n
              l source)
        (mapped out))
    [ ("plain", plain); ("constrained", constrained) ]

let no_header =
  {|let x = 1

module Make (A : Atomic_intf.ATOMIC) =
struct
  let get = A.get
end

include Make (Atomic_intf.Stdlib_atomic)
|}

let no_end =
  {|module Make (A : Atomic_intf.ATOMIC) = struct
  let get = A.get
  end

include Make (Atomic_intf.Stdlib_atomic)
|}

let test_refusals () =
  List.iter
    (fun (name, src) ->
      with_fixture src @@ fun path ->
      match Specialize.text ~file:path src with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error msg ->
          if not (Specialize.contains msg path) then Alcotest.failf "%s: %S does not name the file" name msg)
    [ ("no one-line header", no_header); ("no closing end", no_end) ]

(* A mutant of [plain]: its lines above the marker, [A.get] replaced by
   [A.set] on the one line that has it, each line at its source line. *)
let test_mutant_lines () =
  with_fixture plain @@ fun path ->
  let lines = Specialize.lines_of plain in
  match Specialize.mutant ~name:"plain-set" ~file:path ~text:"A.get" ~by:"A.set" plain with
  | Error msg -> Alcotest.failf "refused: %s" msg
  | Ok out -> (
      match mapped out with
      | (_, "module Plain_set = struct open Core") :: rest -> (
          match List.rev rest with
          | (_, "end") :: body ->
              Alcotest.(check int) "every line above the marker" 12 (List.length body);
              List.iter
                (fun (n, l) ->
                  let source = lines.(n - 1) in
                  let want = if n = 10 then "  let get = A.set" else source in
                  if l <> want then Alcotest.failf "line mapped to %d: %S, want %S" n l want)
                body
          | _ -> Alcotest.failf "no closing end:\n%s" out)
      | _ -> Alcotest.failf "no module header:\n%s" out)

(* [after] occurs only below the marker, [Core.] twice on one line
   above it. *)
let mutant_refusals =
  [
    ("absent", plain, "A.fetch_and_add");
    ("only below the marker", plain, "after");
    ("twice", plain, "Core.");
    ("no marker", no_marker, "A.get");
  ]

let test_mutant_refusals () =
  List.iter
    (fun (name, src, text) ->
      with_fixture src @@ fun path ->
      match Specialize.mutant ~name:"the-entry" ~file:path ~text ~by:"x" src with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error msg ->
          if not (Specialize.contains msg "the-entry" && Specialize.contains msg path) then
            Alcotest.failf "%s: %S does not name the entry and the file" name msg)
    mutant_refusals

(* The built tools, not just the library: a refused file exits non-zero
   and names itself on stderr, so the build stops. *)
let tool name =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "tools"; "specialize"; name ]

let run exe args =
  let err = Filename.temp_file "specialize" ".err" in
  let out_fd = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let msg = Specialize.read_file err in
  Sys.remove err;
  (status, msg)

let test_tool_exit () =
  let refused exe name src args =
    with_fixture src @@ fun path ->
    match run (tool exe) (args path) with
    | Unix.WEXITED 0, _ -> Alcotest.failf "%s: %s exited 0" name exe
    | Unix.WEXITED _, msg when Specialize.contains msg path -> ()
    | _, msg -> Alcotest.failf "%s: %s said %S" name exe msg
  in
  List.iter
    (fun (name, src) -> refused "pp.exe" name src (fun path -> [ path ]))
    [ ("no one-line header", no_header); ("no closing end", no_end) ];
  List.iter
    (fun (name, src, text) ->
      refused "mutate.exe" name src (fun path -> [ "the-entry"; path; text; "x" ]))
    mutant_refusals;
  with_fixture plain @@ fun path ->
  List.iter
    (fun (exe, args) ->
      match run (tool exe) args with
      | Unix.WEXITED 0, _ -> ()
      | _, msg -> Alcotest.failf "%s refused a good file: %S" exe msg)
    [ ("pp.exe", [ path ]); ("mutate.exe", [ "plain-set"; path; "A.get"; "A.set" ]) ]

(* ------------------------------------------------------------------ *)
(* The shipped native modules are the specialized copies: same results
   as [Make (Stdlib_atomic)] applied here, and strictly fewer minor words
   per enqueue;dequeue pair (a closure inside the generic functor also
   carries the functor's argument). *)

type op = Enq of int | Deq | Peek | Length

let ops =
  let rng = Random.State.make [| 19 |] in
  List.init 2_000 (fun i ->
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> Enq i
      | 5 | 6 | 7 -> Deq
      | 8 -> Peek
      | _ -> Length)

let show = function None -> "-" | Some v -> string_of_int v

type subject = {
  run : op list -> string list;
  words : unit -> float;  (** minor words per pair, with a backlog *)
}

let words_per_pair enq deq =
  for i = 1 to 64 do
    enq i
  done;
  let pair i =
    enq i;
    ignore (deq ())
  in
  for i = 1 to 1_000 do
    pair i
  done;
  let n = 20_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    pair i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let unbounded (module Q : Core.Queue_intf.S) =
  {
    run =
      (fun ops ->
        let q = Q.create () in
        List.map
          (function
            | Enq v ->
                Q.enqueue q v;
                "+"
            | Deq -> show (Q.dequeue q)
            | Peek -> show (Q.peek q)
            | Length -> string_of_int (Q.length q))
          ops);
    words =
      (fun () ->
        let q = Q.create () in
        words_per_pair (Q.enqueue q) (fun () -> Q.dequeue q));
  }

let stack (module S : Core.Treiber_stack.S) =
  {
    run =
      (fun ops ->
        let s = S.create () in
        List.map
          (function
            | Enq v ->
                S.push s v;
                "+"
            | Deq -> show (S.pop s)
            | Peek -> show (S.peek s)
            | Length -> string_of_int (S.length s))
          ops);
    words =
      (fun () ->
        let s = S.create () in
        words_per_pair (S.push s) (fun () -> S.pop s));
  }

let fabric (module F : Fabric.Queue_fabric.S) =
  let show_result = function Ok v -> string_of_int v | Error _ -> "refused" in
  {
    run =
      (fun ops ->
        let f = F.create () in
        List.map
          (function
            | Enq v -> (
                match F.try_enqueue ~key:(v mod 5) f v with Ok () -> "+" | Error _ -> "full")
            | Deq -> show_result (F.try_dequeue f)
            | Peek -> show (F.peek_any f)
            | Length -> string_of_int (F.length f))
          ops);
    words =
      (fun () ->
        let f = F.create () in
        words_per_pair
          (fun v -> ignore (F.try_enqueue f v))
          (fun () -> F.try_dequeue f));
  }

module Stdlib_atomic = Core.Atomic_intf.Stdlib_atomic

let native_cases =
  [
    ( "ms",
      unbounded (module Core.Ms_queue),
      unbounded (module Core.Ms_queue.Make (Stdlib_atomic)) );
    ( "ms-counted",
      unbounded (module Core.Ms_queue_counted),
      unbounded (module Core.Ms_queue_counted.Make (Stdlib_atomic)) );
    ( "ms-hp",
      unbounded (module Core.Ms_queue_hp),
      unbounded (module Core.Ms_queue_hp.Make (Stdlib_atomic)) );
    ( "treiber",
      stack (module Core.Treiber_stack),
      stack (module Core.Treiber_stack.Make (Stdlib_atomic)) );
    ( "fabric",
      fabric (module Fabric.Queue_fabric),
      fabric (module Fabric.Queue_fabric.Make (Stdlib_atomic)) );
  ]

let test_native (name, native, generic) () =
  Alcotest.(check (list string)) (name ^ ": same results") (generic.run ops) (native.run ops);
  let n = native.words () and g = generic.words () in
  if not (n < g) then
    Alcotest.failf
      "%s: %.2f minor words per pair natively, %.2f through Make (Stdlib_atomic): \
       the shipped module is not the specialized copy"
      name n g

let suites =
  [
    ( "specialize.tool",
      [
        Alcotest.test_case "no marker passes through" `Quick test_passthrough;
        Alcotest.test_case "plain header" `Quick test_plain_header;
        Alcotest.test_case "constrained header" `Quick test_constrained_header;
        Alcotest.test_case "nested X.Make (A) rewrite" `Quick test_nested_rewrite;
        Alcotest.test_case "directives map lines" `Quick test_directives_map_lines;
        Alcotest.test_case "refusals name the file" `Quick test_refusals;
        Alcotest.test_case "mutant lines map to the source" `Quick test_mutant_lines;
        Alcotest.test_case "mutant refusals name entry and file" `Quick test_mutant_refusals;
        Alcotest.test_case "tool exits non-zero" `Quick test_tool_exit;
      ] );
    ( "specialize.native",
      List.map
        (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_native case))
        native_cases );
  ]
