(* Splitmix64: tiny, fast, and passes BigCrush for our purposes.  State
   is a single 64-bit counter, which makes [split] trivial. *)

(* The counter lives in an 8-byte buffer rather than a [mutable state :
   int64] field: an int64 field is a pointer to a boxed custom block,
   so every draw would allocate a fresh one, while the native compiler
   reads and writes [Bytes] int64s unboxed.  With [mix]/[bits64]/
   [uniform] inlined, a draw allocates nothing. *)
type t = Bytes.t

let[@inline] get t = Bytes.get_int64_ne t 0

let[@inline] set t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = of_state (mix (Int64.of_int seed))

(* The whole generator is one 64-bit counter, so the explicit state API
   is exact: a generator rebuilt from [state t] continues [t]'s
   sequence bit-for-bit. *)
let state t = get t

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t =
  let seed = bits64 t in
  of_state (mix seed)

let copy t = Bytes.copy t

(* 53 uniformly random mantissa bits -> float in [0, 1). *)
let[@inline] uniform t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] float t bound = uniform t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p = uniform t < p

let exponential t mean =
  let u = uniform t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let range t lo hi = lo +. (uniform t *. (hi -. lo))
