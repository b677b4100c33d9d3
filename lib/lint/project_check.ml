(* Project-shape checks that no single parsetree can see:

   - mli-required: every implementation under lib/ must publish an
     interface, otherwise everything it defines is exported and the
     unused-export analysis (and the human reader) loses the boundary.
   - unused-export: a value declared in an .mli but never referenced
     outside its own .ml/.mli pair is dead API surface (advisory by
     default, an error under --strict).  Reference detection is textual
     (token `Module.value` with identifier boundaries), which matches
     both same-library siblings (`Module.value`) and wrapped-library
     consumers (`Lib.Module.value` contains the token) and deliberately
     errs on the side of silence. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let has_component path name =
  List.exists (String.equal name) (String.split_on_char '/' path)

(* Executable-only trees: modules there are roots, an .mli would be
   ceremony. *)
let mli_exempt path =
  has_component path "bin"
  || has_component path "bench"
  || has_component path "examples"

let mli_required ~ml_files =
  List.filter_map
    (fun ml ->
      if mli_exempt ml then None
      else
        let mli = Filename.remove_extension ml ^ ".mli" in
        if Sys.file_exists mli then None
        else
          Some
            (Finding.make ~file:ml ~line:1 ~rule:"mli-required"
               ~severity:(Rules.severity_of "mli-required")
               (Printf.sprintf
                  "missing %s: modules under lib/ must declare their \
                   interface"
                  (Filename.basename mli))))
    ml_files

(* --- unused exports ------------------------------------------------- *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Does [hay] contain [needle] as a module-path token?  The character
   before must not extend an identifier (a preceding '.' is fine: that
   is the wrapping library prefix) and the character after must not
   extend the value name. *)
let contains_token hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec search from =
    if from + nn > nh then false
    else
      match String.index_from_opt hay from needle.[0] with
      | None -> false
      | Some i when i + nn > nh -> false
      | Some i ->
          if
            String.sub hay i nn = needle
            && (i = 0 || not (is_ident_char hay.[i - 1]))
            && (i + nn = nh || not (is_ident_char hay.[i + nn]))
          then true
          else search (i + 1)
  in
  nn > 0 && search 0

let module_name_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let exported_values ~file signature =
  List.filter_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          let name = vd.Parsetree.pval_name.txt in
          (* Operators cannot be matched textually; leave them alone. *)
          if name <> "" && is_ident_char name.[0] then
            Some (name, vd.Parsetree.pval_loc.Location.loc_start.Lexing.pos_lnum)
          else None
      | _ -> None)
    signature
  |> fun vals -> (file, module_name_of_file file, vals)

let unused_export ~parse_interface ~lib_dirs ~search_files =
  (* Load every searchable file once. *)
  let corpus =
    List.map (fun f -> (f, try read_file f with Sys_error _ -> "")) search_files
  in
  List.concat_map
    (fun (_lib_dir, mli_files) ->
      List.concat_map
        (fun mli ->
          match parse_interface mli with
          | Error _ -> []
          | Ok signature ->
              let file, modname, vals = exported_values ~file:mli signature in
              (* Only the defining .ml/.mli pair is excluded from the
                 search: an export that no sibling, test, bench or
                 binary mentions is dead surface even inside its own
                 library. *)
              let stem = Filename.remove_extension mli in
              let outside =
                List.filter
                  (fun (f, _) -> Filename.remove_extension f <> stem)
                  corpus
              in
              List.filter_map
                (fun (value, line) ->
                  let needle = modname ^ "." ^ value in
                  if
                    List.exists
                      (fun (_, text) -> contains_token text needle)
                      outside
                  then None
                  else
                    Some
                      (Finding.make ~file ~line ~rule:"unused-export"
                         ~severity:(Rules.severity_of "unused-export")
                         (Printf.sprintf
                            "%s is exported but never referenced outside %s"
                            needle
                            (Filename.basename mli))))
                vals)
        mli_files)
    lib_dirs
