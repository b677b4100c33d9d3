(* The poly_firing.ml clamp written with an explicit [if]: same result,
   including on NaN and -0, and no allocation. *)

(* lint: hot clamp -- fixture: this fast path must stay allocation-free *)
let clamp lo x =
  if lo >= x *. 2.0 then lo else x *. 2.0
