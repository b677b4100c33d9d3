type t = { enable_after : float; mutable count : int }

let create ?(enable_after = 0.0) () = { enable_after; count = 0 }

let add t ~now n = if now >= t.enable_after then t.count <- t.count + n

let incr t ~now = add t ~now 1

let value t = t.count

let rate t ~now =
  let span = now -. t.enable_after in
  if span <= 0.0 then 0.0 else float_of_int t.count /. span

let reset t = t.count <- 0
