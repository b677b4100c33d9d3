(* A hot-annotated function that calls the polymorphic max: both
   floats are boxed for the generic comparison. *)

(* lint: hot clamp -- fixture: this fast path must stay allocation-free *)
let clamp lo x = Stdlib.max lo (x *. 2.0)
