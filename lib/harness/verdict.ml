type t = { name : string; ok : bool; detail : string }

let v name ok detail = { name; ok; detail }

let pp fmt t =
  Format.fprintf fmt "  %s %s: %s" (if t.ok then "PASS" else "FAIL") t.name
    t.detail

let report ?(fmt = Format.std_formatter) gate vs =
  List.iter (Format.fprintf fmt "%a@." pp) vs;
  match List.filter (fun t -> not t.ok) vs with
  | [] ->
      Format.fprintf fmt "%s: every verdict held@." gate;
      0
  | failed ->
      Format.fprintf fmt "%s: %d failure(s): %s@." gate (List.length failed)
        (String.concat ", " (List.map (fun t -> t.name) failed));
      1
