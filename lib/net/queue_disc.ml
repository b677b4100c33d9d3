type kind = Droptail | Red_gateway of Red.params | Bernoulli_loss of float

type impl = Tail | Red_state of Red.t | Lossy of float * Sim.Rng.t

type t = { kind : kind; capacity : int; impl : impl }

let create kind ~capacity ~rng =
  if capacity <= 0 then invalid_arg "Queue_disc.create: capacity must be positive";
  let impl =
    match kind with
    | Droptail -> Tail
    | Red_gateway params -> Red_state (Red.create params ~rng)
    | Bernoulli_loss p ->
        if p < 0.0 || p >= 1.0 then
          invalid_arg "Queue_disc.create: loss probability out of range";
        Lossy (p, rng)
  in
  { kind; capacity; impl }

let kind t = t.kind

let set_registry t reg ~id =
  match t.impl with
  | Tail | Lossy _ -> ()
  | Red_state red -> Red.set_registry red reg ~id

let capacity t = t.capacity

let[@inline never] check_occupancy t ~qlen =
  Sim.Invariant.require
    (qlen >= 0 && qlen <= t.capacity)
    (fun () ->
      Printf.sprintf "Queue_disc.on_arrival: occupancy %d outside [0, %d]" qlen
        t.capacity)

(* [on_arrival] and [on_empty] run on every link arrival and every
   idle transition; [@inline] keeps [now] unboxed into [Red]. *)
let[@inline] on_arrival t ~now ~qlen =
  if !Sim.Invariant.enabled then check_occupancy t ~qlen;
  if qlen >= t.capacity then `Drop
  else
    match t.impl with
    | Tail -> `Admit
    | Red_state red -> Red.decide red ~now ~qlen
    | Lossy (p, rng) -> if Sim.Rng.bernoulli rng p then `Drop else `Admit

let[@inline] on_empty t ~now =
  match t.impl with
  | Tail | Lossy _ -> ()
  | Red_state red -> Red.note_empty red ~now

let avg_queue t =
  match t.impl with
  | Tail | Lossy _ -> nan
  | Red_state red -> Red.avg_queue red
