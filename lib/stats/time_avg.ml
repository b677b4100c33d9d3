(* A record of floats only, which OCaml stores flat: updates write raw
   doubles and allocate nothing. *)
type t = {
  mutable start : float;
  mutable last_time : float;
  mutable last_value : float;
  mutable weighted_sum : float;
}

let create ~start ~value =
  { start; last_time = start; last_value = value; weighted_sum = 0.0 }

let[@inline never] backwards () =
  invalid_arg "Time_avg.update: time moves backwards"

(* [@inline] so [time] and [value] are not boxed at the call. *)
let[@inline] update t ~time ~value =
  if time < t.last_time then backwards ();
  t.weighted_sum <- t.weighted_sum +. (t.last_value *. (time -. t.last_time));
  t.last_time <- time;
  t.last_value <- value

let average t ~upto =
  let upto = Stdlib.max upto t.last_time in
  let total = t.weighted_sum +. (t.last_value *. (upto -. t.last_time)) in
  let span = upto -. t.start in
  if span <= 0.0 then t.last_value else total /. span

let current t = t.last_value

let reset t ~start ~value =
  t.start <- start;
  t.last_time <- start;
  t.last_value <- value;
  t.weighted_sum <- 0.0
