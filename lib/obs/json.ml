type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec pp fmt t =
  match t with
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_string fmt (if b then "true" else "false")
  | Int i -> Format.pp_print_int fmt i
  | Float f ->
      if not (Float.is_finite f) then
        Format.pp_print_string fmt "null" (* nan/inf are not JSON *)
      else Format.pp_print_string fmt (float_repr f)
  | String s -> Format.fprintf fmt "\"%s\"" (escape s)
  | List l ->
      Format.fprintf fmt "@[<hv 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") pp)
        l
  | Assoc kvs ->
      Format.fprintf fmt "@[<hv 1>{%a}@]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
           (fun fmt (k, v) -> Format.fprintf fmt "@[<hv 2>\"%s\":@ %a@]" (escape k) pp v))
        kvs

let to_string t = Format.asprintf "%a" pp t

(* Indented pretty-printing: every non-empty list/object breaks onto its
   own lines at a fixed 2-space indent, so the artifacts written for
   humans (timelines, flight-recorder dumps, soak reports) diff and
   review cleanly.  [pp] above stays the compact form for logs and
   round-trip tests. *)

let rec emit_pretty b indent t =
  let pad n = String.make (2 * n) ' ' in
  let scalar t = Buffer.add_string b (to_string t) in
  match t with
  | Null | Bool _ | Int _ | Float _ | String _ -> scalar t
  | List [] -> Buffer.add_string b "[]"
  | Assoc [] -> Buffer.add_string b "{}"
  | List l ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 1));
          emit_pretty b (indent + 1) v)
        l;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Assoc kvs ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 1));
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          emit_pretty b (indent + 1) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'

let to_string_pretty t =
  let b = Buffer.create 1024 in
  emit_pretty b 0 t;
  Buffer.contents b

let write_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string_pretty t);
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing: a small recursive-descent parser, enough for round-trip
   tests and schema checks on our own emitters. *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let peek_char c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek_char c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek_char c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek_char c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek_char c with
        | Some '"' -> Buffer.add_char b '"'; c.pos <- c.pos + 1; go ()
        | Some '\\' -> Buffer.add_char b '\\'; c.pos <- c.pos + 1; go ()
        | Some '/' -> Buffer.add_char b '/'; c.pos <- c.pos + 1; go ()
        | Some 'n' -> Buffer.add_char b '\n'; c.pos <- c.pos + 1; go ()
        | Some 'r' -> Buffer.add_char b '\r'; c.pos <- c.pos + 1; go ()
        | Some 't' -> Buffer.add_char b '\t'; c.pos <- c.pos + 1; go ()
        | Some 'b' -> Buffer.add_char b '\b'; c.pos <- c.pos + 1; go ()
        | Some 'f' -> Buffer.add_char b '\012'; c.pos <- c.pos + 1; go ()
        | Some 'u' ->
            if c.pos + 5 > String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s (c.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
            in
            (* ASCII only — our own emitter never writes higher escapes *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
            c.pos <- c.pos + 5;
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char b ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek_char c with Some ch when is_num_char ch -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek_char c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      c.pos <- c.pos + 1;
      String (parse_string_body c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek_char c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek_char c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail c "expected , or ]"
        in
        items []
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek_char c = Some '}' then begin
        c.pos <- c.pos + 1;
        Assoc []
      end
      else
        let member () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws c;
          match peek_char c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members (kv :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Assoc (List.rev (kv :: acc))
          | _ -> fail c "expected , or }"
        in
        members []
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key t =
  match t with Assoc kvs -> List.assoc_opt key kvs | _ -> None

let to_list_opt t = match t with List l -> Some l | _ -> None

let to_int_opt t =
  match t with Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None

let to_string_opt t = match t with String s -> Some s | _ -> None

let to_float_opt t =
  match t with Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_bool_opt t = match t with Bool b -> Some b | _ -> None
