(* The mutant generator: [mutate.exe (NAME FILE TEXT BY)...] prints one
   module per entry (see {!Specialize.mutant}).  Exits 1 with the
   reason, naming the entry and FILE, when TEXT does not occur exactly
   once above FILE's default instance, so drift stops the build. *)

let () =
  let rec emit = function
    | [] -> ()
    | name :: file :: text :: by :: rest -> (
        match Specialize.mutant ~name ~file ~text ~by (Specialize.read_file file) with
        | Ok m ->
            print_endline m;
            emit rest
        | Error msg ->
            prerr_endline msg;
            exit 1)
    | _ ->
        prerr_endline "usage: mutate.exe (NAME FILE TEXT BY)...";
        exit 2
  in
  emit (List.tl (Array.to_list Sys.argv))
