(* Specialization coverage: [coverage.exe FILE...] takes a library
   directory's sources with their preprocessed copies ([x.ml] and
   [x.pp.ml], the file the compiler reads), lists every module whose
   default instance was specialized, and exits 1 when

   - a source has no preprocessed copy;
   - a source applies [Make] to [...Stdlib_atomic] other than on its
     marker line, or a compiled copy still does: a default instance
     left generic;
   - an emitted body is not its functor's body, line for line, up to
     the [X.Make (A)] -> [X] rewrites;
   - a source without the marker was not passed through unchanged. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("FAIL " ^ msg))
    fmt

(* The 1-based lines of [text] where a functor named [Make] is applied
   to a path ending in [Stdlib_atomic], however the application is
   spaced or broken across lines. *)
let generic_instances text =
  let n = String.length text in
  let rec skip i = if i < n && String.contains " \n\t" text.[i] then skip (i + 1) else i in
  let line_of i =
    let l = ref 1 in
    for k = 0 to i - 1 do
      if text.[k] = '\n' then incr l
    done;
    !l
  in
  let rec from i acc =
    match String.index_from_opt text i 'M' with
    | None -> List.rev acc
    | Some i ->
        let o = skip (i + 4) in
        let applied =
          i + 4 <= n
          && String.sub text i 4 = "Make"
          && (i = 0 || not (Specialize.ident_char text.[i - 1]))
          && o < n
          && text.[o] = '('
          &&
          match String.index_from_opt text o ')' with
          | Some c ->
              Specialize.ends_with_component ~name:"Stdlib_atomic"
                (String.trim (String.sub text (o + 1) (c - o - 1)))
          | None -> false
        in
        from (i + 1) (if applied then line_of i :: acc else acc)
  in
  from 0 []

(* The index just past the [# n "src"] directive that opens the emitted
   body of functor line [n]. *)
let body_start out ~src n =
  let rec go i =
    if i >= Array.length out then None
    else
      match Scanf.sscanf_opt out.(i) "# %d %S%!" (fun n f -> (n, f)) with
      | Some (m, f) when m = n && Filename.basename f = Filename.basename src -> Some (i + 1)
      | _ -> go (i + 1)
  in
  go 0

(* Compare the emitted body with the functor's lines; on success, say
   what was specialized. *)
let check_body ~src ~pp lines out (s : Specialize.site) =
  let first = s.header + 1 in
  match body_start out ~src (first + 1) with
  | None -> fail "%s: no emitted body for the functor at line %d" pp (s.header + 1)
  | Some o ->
      let len = s.stop - first in
      let line k = if o + k < Array.length out then out.(o + k) else "<end of file>" in
      let rec compare k rewrites =
        if k = len then Some (List.rev rewrites)
        else
          let want, paths = Specialize.rewrite ~param:s.param lines.(first + k) in
          if line k = want then compare (k + 1) (List.rev_append paths rewrites)
          else begin
            fail "%s:%d: emitted body differs from the functor's line\n  functor: %s\n  emitted: %s"
              src (first + k + 1) want (line k);
            None
          end
      in
      match compare 0 [] with
      | None -> ()
      | Some _ when line len <> Specialize.closing s ->
          fail "%s: the emitted body of %s does not end where the functor does" pp src
      | Some rewrites ->
          let applied p = Printf.sprintf "%s.Make (%s) -> %s" p s.param p in
          let still_generic =
            List.filter
              (fun l -> Specialize.contains l ("(" ^ s.param ^ ")"))
              (List.init len (fun k -> String.trim (line k)))
          in
          Printf.printf "specialized %s: Make (%s) lines %d-%d with %s = %s%s%s\n" src s.param
            (first + 1) s.stop s.param s.atomic
            (String.concat "" (List.map (fun p -> "; " ^ applied p) rewrites))
            (String.concat "" (List.map (fun l -> "; generic inside: " ^ l) still_generic))

let check files src =
  let pp = Filename.remove_extension src ^ ".pp.ml" in
  if not (List.mem pp files) then
    fail "%s: no preprocessed copy %s; the library's dune stanza must run the specializer" src pp
  else begin
    let text = Specialize.read_file src and emitted = Specialize.read_file pp in
    let lines = Specialize.lines_of text and out = Specialize.lines_of emitted in
    List.iter
      (fun n ->
        if Specialize.marker lines.(n - 1) = None then
          fail "%s:%d: a default instance left generic: %s" src n (String.trim lines.(n - 1)))
      (generic_instances text);
    List.iter
      (fun n ->
        fail "%s:%d: the compiled copy still applies the functor: %s" pp n (String.trim out.(n - 1)))
      (generic_instances emitted);
    match Specialize.find ~file:src lines with
    | Error msg -> fail "%s" msg
    | Ok None -> if emitted <> text then fail "%s: no marker, yet %s differs from it" src pp
    | Ok (Some s) -> check_body ~src ~pp lines out s
  end

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  List.iter (check files)
    (List.filter
       (fun f -> Filename.check_suffix f ".ml" && not (Filename.check_suffix f ".pp.ml"))
       files);
  if !failures > 0 then exit 1
