(* The floats sit in a record of floats only, which OCaml stores flat,
   so [update] writes a raw double; as mutable fields of a record that
   also holds the int count, every write would box a fresh float. *)
type floats = { weight : float; mutable avg : float }

type t = { f : floats; mutable samples : int }

let create ~weight =
  if weight <= 0.0 || weight > 1.0 then
    invalid_arg "Ewma.create: weight must be in (0, 1]";
  { f = { weight; avg = 0.0 }; samples = 0 }

(* [@inline] so the sample is not boxed at the call. *)
let[@inline] update t x =
  let f = t.f in
  if t.samples = 0 then f.avg <- x
  else f.avg <- f.avg +. (f.weight *. (x -. f.avg));
  t.samples <- t.samples + 1

let value t = t.f.avg

let value_opt t = if t.samples = 0 then None else Some t.f.avg

let samples t = t.samples

let reset t =
  t.f.avg <- 0.0;
  t.samples <- 0
