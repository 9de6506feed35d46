(* The preprocessor: [pp.exe FILE] prints FILE with its ATOMIC functor's
   default instance specialized (see {!Specialize}), or FILE unchanged
   when it has none.  Exits 1 with the reason, naming FILE, when the
   marker is there but its functor cannot be found. *)

let () =
  match Sys.argv with
  | [| _; file |] -> (
      match Specialize.text ~file (Specialize.read_file file) with
      | Ok out -> print_string out
      | Error msg ->
          prerr_endline msg;
          exit 1)
  | _ ->
      prerr_endline "usage: pp.exe FILE";
      exit 2
