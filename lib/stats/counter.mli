(** Event counter with optional warm-up discarding.

    Experiments discard the first 100 s of a run (as the paper does);
    a counter frozen until [enable_after] only counts events past the
    warm-up boundary. *)

type t

val create : ?enable_after:float -> unit -> t
(** [enable_after] defaults to 0 (count everything). *)

val incr : t -> now:float -> unit

val add : t -> now:float -> int -> unit

val value : t -> int

val rate : t -> now:float -> float
(** Events per second since the enable time. *)

val reset : t -> unit
