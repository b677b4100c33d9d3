(* The moments sit in a record of floats only, which OCaml stores
   flat, so [add] writes raw doubles; as mutable fields of a record
   that also holds the int count, every write would box a fresh float. *)
type moments = {
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

type t = { mutable n : int; m : moments }

let moments ~mean ~m2 ~min ~max = { mean; m2; min; max }

let create () =
  { n = 0; m = moments ~mean:0.0 ~m2:0.0 ~min:infinity ~max:neg_infinity }

(* [@inline] so the sample is not boxed at the call. *)
let[@inline] add t x =
  let m = t.m in
  t.n <- t.n + 1;
  let delta = x -. m.mean in
  m.mean <- m.mean +. (delta /. float_of_int t.n);
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if x < m.min then m.min <- x;
  if x > m.max then m.max <- x

let count t = t.n

let mean t = t.m.mean

let variance t = if t.n < 2 then 0.0 else t.m.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.m.min

let max t = t.m.max

let copy t = { n = t.n; m = { t.m with mean = t.m.mean } }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let a_m = a.m and b_m = b.m in
    let delta = b_m.mean -. a_m.mean in
    let mean = a_m.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a_m.m2 +. b_m.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n
          /. float_of_int n)
    in
    {
      n;
      m =
        moments ~mean ~m2
          ~min:(Stdlib.min a_m.min b_m.min)
          ~max:(Stdlib.max a_m.max b_m.max);
    }
  end
