(** The alloc-hot contract: functions declared
    [(* lint: hot <name> -- <reason> *)] are scanned for allocation
    constructs and for the polymorphic [Stdlib.max]/[min]/[compare]
    (which box float arguments), and [hot-coverage] verifies each
    annotation names a binding the file defines and its interface
    exports.

    Exempt subtrees: conditionals guarded by [Invariant.enabled] and
    error exits ([invalid_arg]/[failwith]/[raise]/[assert]).  Partial
    application is not detectable syntactically and is out of scope. *)

val check :
  file:string ->
  hots:Annot.hot list ->
  interface:Parsetree.signature option ->
  Parsetree.structure ->
  Finding.t list
(** [check ~file ~hots ~interface ast] returns the [alloc-hot] and
    [hot-coverage] findings for one implementation file.  [interface]
    is the parsed sibling [.mli] when one exists; without one, a
    defined binding counts as exported. *)
