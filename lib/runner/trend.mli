(** Comparability model of the perf-trend gate.

    `make bench-trend` compares the checked-in BENCH_scale.json /
    BENCH_hostile.json against a history of earlier runs, but a history
    line is only a valid baseline when it measured the same thing:
    same scenario duration and seed, and — for documents that record a
    ["cores"] field (parallel-speedup numbers do) — the same machine
    core count.  This module owns the document shape and the decision,
    so the bench gate and the unit suite agree on exactly when (and
    why) a line is skipped. *)

type doc = {
  duration : float;  (** The document's ["duration_s"] field. *)
  seed : float;
  cores : int option;
      (** ["cores"] when recorded; [None] means the numbers do not
          depend on the machine's parallelism and gate everywhere. *)
  scenarios : (string * float) list;  (** (name, events per second). *)
}

val doc_of_json : Json.t -> (doc, string) result
(** Parse one benchmark document; [Error] names the missing or
    malformed field. *)

type classification =
  | Comparable
  | Skip_cores of { recorded : int; machine : int }
      (** The line pins a core count and this machine differs:
          parallel-speedup numbers from another machine are noise, not
          a baseline. *)
  | Skip_params
      (** Duration or seed differ from the current document. *)

val classify : current:doc -> machine_cores:int -> doc -> classification
(** How a history line relates to the current document on a
    [machine_cores]-core machine.  The cores check wins over the
    parameter check, so a foreign-machine line is reported as such
    even when its parameters also differ. *)

val skip_reason : classification -> string option
(** Human-readable reason a line is excluded; [None] for
    [Comparable].  The [Skip_cores] text names both core counts — the
    bench gate prints it verbatim and the unit suite asserts it. *)
