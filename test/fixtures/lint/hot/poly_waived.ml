(* The poly_firing.ml call under an explicit waiver. *)

(* lint: hot clamp -- fixture: this fast path must stay allocation-free *)
let clamp lo x =
  (* lint: allow alloc-hot -- fixture: NaN ordering of the generic compare is wanted *)
  Stdlib.max lo (x *. 2.0)
