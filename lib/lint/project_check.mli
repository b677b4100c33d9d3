(** Project-shape checks: interface coverage and dead exported API. *)

val mli_required : ml_files:string list -> Finding.t list
(** One [mli-required] finding per .ml without a sibling .mli.  Files
    under bin/, bench/ or examples/ components are exempt (executable
    roots). *)

val unused_export :
  parse_interface:(string -> (Parsetree.signature, string) result) ->
  lib_dirs:(string * string list) list ->
  search_files:string list ->
  Finding.t list
(** [unused_export ~parse_interface ~lib_dirs ~search_files] reports an
    advisory [unused-export] warning for every value declared in one of
    a library's .mli files ([lib_dirs] maps a library directory to its
    .mli paths) that is never referenced, as a [Module.value] token,
    in any of [search_files] outside that library directory. *)
