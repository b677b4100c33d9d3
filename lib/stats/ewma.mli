(** Exponentially-weighted moving average.

    Used throughout the RLA: smoothed round-trip times, the moving
    average of the congestion window ([awnd]), and per-receiver averages
    of congestion-signal intervals (rule 6 of the algorithm). *)

type t

val create : weight:float -> t
(** [create ~weight] with [0 < weight <= 1]: each update moves the
    average by [weight] towards the new sample.  The first sample
    initialises the average directly. *)

val update : t -> float -> unit

val value : t -> float
(** Current average; 0 before any sample. *)

val value_opt : t -> float option
(** [None] before any sample. *)

val samples : t -> int
(** Number of samples absorbed. *)

val reset : t -> unit
