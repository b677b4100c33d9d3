(* The estimator's floats sit in a record of floats only, which OCaml
   stores flat, so a sample writes raw doubles; as mutable fields of a
   record that also holds the int counters every write would box. *)
type est = {
  min_rto : float;
  max_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
}

type t = {
  e : est;
  mutable shift : int;  (* exponential backoff: timeout is scaled by 2^shift *)
  mutable samples : int;
}

let create ?(min_rto = 1.0) ?(max_rto = 60.0) () =
  { e = { min_rto; max_rto; srtt = 0.0; rttvar = 0.0 }; shift = 0; samples = 0 }

let[@inline never] negative_rtt () = invalid_arg "Rto.sample: negative RTT"

let sample ?(rexmitted = false) t m =
  if m < 0.0 then negative_rtt ();
  (* Karn's algorithm: a measurement taken over a retransmitted
     sequence range is ambiguous (the ack may answer either
     transmission), so it must neither update the estimator nor relax
     an in-force backoff.  The timestamp echo makes most samples
     unambiguous; callers flag the ones that are not. *)
  if not rexmitted then begin
    let e = t.e in
    if t.samples = 0 then begin
      e.srtt <- m;
      e.rttvar <- m /. 2.0
    end
    else begin
      let err = m -. e.srtt in
      e.srtt <- e.srtt +. (err /. 8.0);
      e.rttvar <- e.rttvar +. ((abs_float err -. e.rttvar) /. 4.0)
    end;
    t.samples <- t.samples + 1;
    t.shift <- 0
  end

let srtt t = t.e.srtt

let rttvar t = t.e.rttvar

(* Explicit [if]s rather than [Stdlib.max]/[Stdlib.min], which box
   both floats; same results, including on NaN and -0. *)
let[@inline] base_timeout t =
  if t.samples = 0 then 3.0 (* conservative default before any sample *)
  else
    let e = t.e in
    let v = e.srtt +. (4.0 *. e.rttvar) in
    if e.min_rto >= v then e.min_rto else v

(* [@inline]: callers pass the result straight to the scheduler, and a
   float returned from a call that is not inlined is boxed. *)
let[@inline] timeout t =
  let v = base_timeout t *. (2.0 ** float_of_int t.shift) in
  if v <= t.e.max_rto then v else t.e.max_rto

(* The shift only grows while it still changes the clamped timeout, so
   the cap is enforced structurally: once [timeout t = max_rto] the
   shift freezes and [2.0 ** shift] can never overflow. *)
let backoff t = if timeout t < t.e.max_rto then t.shift <- t.shift + 1

let at_max t = timeout t >= t.e.max_rto

let backoff_shift t = t.shift

let has_sample t = t.samples > 0
