(** The project's one JSON codec: a document builder and a parser, with
    no dependency, shared by the runner's reports and the linter's
    [--json]/SARIF output.

    Floats are printed with the shortest decimal representation that
    round-trips, so two runs producing bit-identical numbers produce
    byte-identical JSON; non-finite floats serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Verbatim of string
      (** A pre-serialized JSON fragment, emitted as-is.  Lets a
          resumable sweep splice rows persisted by an earlier process
          into a new document byte-exactly. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {2 Parsing}

    Recursive-descent reader for the documents this module emits (and
    standard JSON generally), so tooling — e.g. the bench-trend gate —
    can read its own output back without an external dependency. *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON document; raises {!Parse_error} on malformed input
    or trailing characters.  Numbers with a fraction or exponent come
    back as [Float], others as [Int]; [Verbatim] is never produced. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_float_opt : t -> float option
(** [Float] or [Int] as a float. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option
