type params = {
  min_th : float;
  max_th : float;
  w_q : float;
  max_p : float;
  mean_pkt_time : float;
  ecn : bool;
}

let default_params ~mean_pkt_time =
  {
    min_th = 5.0;
    max_th = 15.0;
    w_q = 0.002;
    max_p = 0.1;
    mean_pkt_time;
    ecn = false;
  }

type taps = {
  avg_s : Obs.Series.t;
  early_drops_c : Obs.Registry.counter;
  marks_c : Obs.Registry.counter;
}

(* The float state is a record of floats only, which OCaml stores flat:
   as mutable fields of the mixed record [t] each write would box. *)
type floats = {
  mutable avg : float;
  mutable q_time : float;  (* start of the current idle period *)
}

type t = {
  p : params;
  rng : Sim.Rng.t;
  f : floats;
  mutable count : int;  (* packets since last drop while between thresholds *)
  mutable idle : bool;
  mutable drops : int;
  mutable marks : int;
  mutable taps : taps option;
}

let create p ~rng =
  {
    p;
    rng;
    f = { avg = 0.0; q_time = 0.0 };
    count = -1;
    idle = true;
    drops = 0;
    marks = 0;
    taps = None;
  }

let set_registry t reg ~id =
  t.taps <-
    Option.map
      (fun r ->
        {
          avg_s = Obs.Registry.series r (Printf.sprintf "red.%s.avg_queue" id);
          early_drops_c =
            Obs.Registry.counter r (Printf.sprintf "red.%s.early_drops" id);
          marks_c = Obs.Registry.counter r (Printf.sprintf "red.%s.marks" id);
        })
      reg

let avg_queue t = t.f.avg

let[@inline] note_empty t ~now =
  t.idle <- true;
  t.f.q_time <- now

(* Age the average across an idle period as if m small packets had been
   serviced, per the RED paper. *)
let[@inline] update_avg t ~now ~qlen =
  let f = t.f in
  if t.idle && qlen = 0 then begin
    let m = (now -. f.q_time) /. t.p.mean_pkt_time in
    (* [Stdlib.max 0.0 m], without the polymorphic call. *)
    let m = if 0.0 >= m then 0.0 else m in
    f.avg <- f.avg *. ((1.0 -. t.p.w_q) ** m)
  end
  else f.avg <- ((1.0 -. t.p.w_q) *. f.avg) +. (t.p.w_q *. float_of_int qlen)

let record_drop t =
  t.drops <- t.drops + 1;
  match t.taps with None -> () | Some taps -> Obs.Registry.incr taps.early_drops_c

let record_mark t =
  t.marks <- t.marks + 1;
  match t.taps with None -> () | Some taps -> Obs.Registry.incr taps.marks_c

let[@inline never] check_avg t =
  Sim.Invariant.require
    (Float.is_finite t.f.avg && t.f.avg >= 0.0)
    (fun () ->
      Printf.sprintf "Red.decide: average queue %g is not a sane occupancy"
        t.f.avg)

(* [@inline] (through [Queue_disc.on_arrival] into [Link.send]) so the
   arrival time and the drop probability stay unboxed. *)
let[@inline] decide t ~now ~qlen =
  update_avg t ~now ~qlen;
  if !Sim.Invariant.enabled then check_avg t;
  (match t.taps with
  | None -> ()
  | Some taps -> Obs.Series.add taps.avg_s ~time:now t.f.avg);
  t.idle <- false;
  let avg = t.f.avg in
  if avg < t.p.min_th then begin
    t.count <- -1;
    `Admit
  end
  else if avg >= t.p.max_th then begin
    t.count <- 0;
    record_drop t;
    `Drop
  end
  else begin
    t.count <- t.count + 1;
    let p_b =
      t.p.max_p *. (avg -. t.p.min_th) /. (t.p.max_th -. t.p.min_th)
    in
    let denom = 1.0 -. (float_of_int t.count *. p_b) in
    let p_a = if denom <= 0.0 then 1.0 else p_b /. denom in
    if Sim.Rng.bernoulli t.rng p_a then begin
      t.count <- 0;
      if t.p.ecn then begin
        record_mark t;
        `Mark
      end
      else begin
        record_drop t;
        `Drop
      end
    end
    else `Admit
  end

let drops t = t.drops

let marks t = t.marks
