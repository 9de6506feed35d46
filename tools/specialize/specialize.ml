(* Without flambda, [include Make (Stdlib_atomic)] reaches every
   [A.get], [A.compare_and_set] and [A.fetch_and_add] through the
   functor argument: an indirect call into an out-of-line wrapper.
   Emitting the body again with [A] bound by a module alias lets
   ocamlopt see the primitives, so a load is inline and a CAS or FAA is
   a direct runtime call, while the checker keeps exploring the one
   text through [Make].  The format is in the interface. *)

type site = {
  header : int;
  stop : int;
  marker : int;
  param : string;
  signature : string option;
  atomic : string;
}

let ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_module_path s =
  s <> ""
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all (fun c -> ident_char c || c = '.') s

let ends_with_component ~name p =
  p = name || String.ends_with ~suffix:("." ^ name) p

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let marker_prefix = "include Make ("

(* [include Make (P)] with [P] ending in [Stdlib_atomic]: [Some P]. *)
let marker line =
  let n = String.length line and k = String.length marker_prefix in
  if n > k + 1 && String.starts_with ~prefix:marker_prefix line && line.[n - 1] = ')'
  then
    let p = String.sub line k (n - k - 1) in
    if is_module_path p && ends_with_component ~name:"Stdlib_atomic" p then Some p
    else None
  else None

let header_prefix = "module Make ("

(* [module Make (A : T) = struct] or [module Make (A : T) : S = struct]
   with [T] ending in [ATOMIC]: [Some (A, S)]. *)
let header line =
  let k = String.length header_prefix in
  if not (String.starts_with ~prefix:header_prefix line) then None
  else
    match String.index_from_opt line k ')' with
    | None -> None
    | Some close -> (
        let param = String.sub line k (close - k) in
        let rest = String.trim (String.sub line (close + 1) (String.length line - close - 1)) in
        match String.split_on_char ':' param with
        | [ a; t ] ->
            let a = String.trim a and t = String.trim t in
            if not (is_module_path a && is_module_path t && ends_with_component ~name:"ATOMIC" t)
            then None
            else if rest = "= struct" then Some (a, None)
            else if
              String.starts_with ~prefix:":" rest && String.ends_with ~suffix:"= struct" rest
            then
              let s = String.trim (String.sub rest 1 (String.length rest - 9)) in
              if is_module_path s then Some (a, Some s) else None
            else None
        | _ -> None)

(* Every [X.Make (A)] in [line] becomes [X]; the rewritten line and the
   [X]s in order.  Sound only for a functor whose applications share
   nothing, so that [X] can stand for [X.Make (A)]. *)
let rewrite ~param line =
  let needle = ".Make (" ^ param ^ ")" in
  let nl = String.length needle and n = String.length line in
  let b = Buffer.create n in
  let rec go from i acc =
    if i + nl > n then begin
      Buffer.add_substring b line from (n - from);
      (Buffer.contents b, List.rev acc)
    end
    else if String.sub line i nl = needle then begin
      let start = ref i in
      while !start > 0 && (ident_char line.[!start - 1] || line.[!start - 1] = '.') do
        decr start
      done;
      let path = String.sub line !start (i - !start) in
      if is_module_path path then begin
        Buffer.add_substring b line from (i - from);
        go (i + nl) (i + nl) (path :: acc)
      end
      else go from (i + 1) acc
    end
    else go from (i + 1) acc
  in
  go 0 0 []

let find ~file lines =
  let markers = ref [] in
  Array.iteri (fun i l -> if marker l <> None then markers := i :: !markers) lines;
  match !markers with
  | [] -> Ok None
  | _ :: _ :: _ -> Error (Printf.sprintf "%s: more than one `include Make (...Stdlib_atomic)` line" file)
  | [ m ] -> (
      let rec back i =
        if i < 0 then None
        else match header lines.(i) with Some h -> Some (i, h) | None -> back (i - 1)
      in
      match back (m - 1) with
      | None ->
          Error
            (Printf.sprintf
               "%s:%d: `include Make (...Stdlib_atomic)` has no one-line \
                `module Make (A : ...ATOMIC) = struct` header above it"
               file (m + 1))
      | Some (h, (param, signature)) -> (
          let rec fwd i = if i >= m then None else if lines.(i) = "end" then Some i else fwd (i + 1) in
          match fwd (h + 1) with
          | None ->
              Error
                (Printf.sprintf
                   "%s:%d: functor `Make` has no closing `end` at column 0 before \
                    its default instance at line %d"
                   file (h + 1) (m + 1))
          | Some stop ->
              Ok
                (Some
                   {
                     header = h;
                     stop;
                     marker = m;
                     param;
                     signature;
                     atomic = Option.get (marker lines.(m));
                   })))

let directive ~file line = Printf.sprintf "# %d \"%s\"" line file
let closing s = match s.signature with None -> "end" | Some sg -> "end : " ^ sg ^ ")"

let emit ~file lines s =
  let range a b = Array.to_list (Array.sub lines a (b - a)) in
  let opening = match s.signature with None -> "include struct" | Some _ -> "include (struct" in
  String.concat "\n"
    ((directive ~file 1 :: range 0 s.marker)
    @ [ Printf.sprintf "%s module %s = %s" opening s.param s.atomic; directive ~file (s.header + 2) ]
    @ List.map (fun l -> fst (rewrite ~param:s.param l)) (range (s.header + 1) s.stop)
    @ [ closing s; directive ~file (s.marker + 2) ]
    @ range (s.marker + 1) (Array.length lines))

let lines_of text = Array.of_list (String.split_on_char '\n' text)

let text ~file src =
  let lines = lines_of src in
  match find ~file lines with
  | Error _ as e -> e
  | Ok None -> Ok src
  | Ok (Some s) -> Ok (emit ~file lines s)

(* A planted bug compiled from the shipping text, so the two cannot
   drift: a text that no longer occurs once is a build error, not a
   stale copy. *)
let mutant ~name ~file ~text ~by src =
  let lines = lines_of src and k = String.length text in
  let refuse fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "mutant %s: %s" name m)) fmt in
  match find ~file lines with
  | Error msg -> refuse "%s" msg
  | Ok None -> refuse "%s: no `include Make (...Stdlib_atomic)` line to copy above" file
  | Ok (Some s) -> (
      let hits n =
        List.filter_map
          (fun i -> if String.sub lines.(n) i k = text then Some (n, i) else None)
          (List.init (max 0 (String.length lines.(n) - k + 1)) Fun.id)
      in
      match List.concat_map hits (List.init s.marker Fun.id) with
      | [ (n, i) ] ->
          let copy = Array.sub lines 0 s.marker and l = lines.(n) in
          copy.(n) <- String.sub l 0 i ^ by ^ String.sub l (i + k) (String.length l - i - k);
          let m = String.capitalize_ascii (String.map (function '-' -> '_' | c -> c) name) in
          Ok
            (String.concat "\n"
               ((Printf.sprintf "module %s = struct open Core" m :: directive ~file 1 :: Array.to_list copy)
               @ [ "end" ]))
      | hits ->
          refuse "%s: %S occurs %d times above the default instance at line %d, not exactly once"
            file text (List.length hits) (s.marker + 1))

let read_file path = In_channel.with_open_bin path In_channel.input_all
