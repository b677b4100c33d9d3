type config = {
  bandwidth_bps : float;
  prop_delay : float;
  queue : Queue_disc.kind;
  capacity : int;
  phase_jitter : bool;
}

type stats = {
  offered : int;
  dropped : int;
  delivered : int;
  bytes_delivered : int;
  marked : int;
}

(* The link owns one packet reference for everything it holds (buffer,
   in service, on the wire) and settles it on every exit path: drops
   release back to the pool, deliveries transfer the reference to the
   [deliver] callback.

   Event closures are shared, not per-packet: the link is strictly FIFO
   (the delivery clamp in [propagate] plus in-order event ids), so the
   next tx completion always concerns [in_service] and the next
   delivery always concerns the front of the [wire_pkts] ring.  One
   [tx_thunk] and one delivery lane per link replace a closure (and a
   ref cell) per packet; the lane also keeps all but the front delivery
   out of the scheduler's heap.

   The per-packet path allocates nothing: "nothing in service" and "no
   tx event" are sentinels (the pool's dummy packet, id -1) rather than
   options, and the link's float state sits in [times], a record of
   floats only, which OCaml stores flat — a mutable float field of the
   mixed record [t] would box a fresh float on every write. *)
type times = {
  mutable down_since : float;
  mutable downtime_acc : float;
  mutable last_delivery : float;
}

type t = {
  id : string;
  sched : Sim.Scheduler.t;
  rng : Sim.Rng.t;
  pool : Packet.Pool.t;
  mutable config : config;
  disc : Queue_disc.t;
  buffer : Packet.t Ring.t;
  deliver : Packet.t -> unit;
  (* Packets past serialization in delivery order; [wire] holds their
     delivery events, one per packet, in the same order. *)
  wire : Sim.Scheduler.Lane.t;
  wire_pkts : Packet.t Ring.t;
  mutable tx_thunk : unit -> unit;
  mutable busy : bool;
  mutable in_service : Packet.t;  (* [no_packet] when idle *)
  mutable tx_event : Sim.Scheduler.event_id;  (* [no_event] when idle *)
  mutable up : bool;
  times : times;
  mutable offered : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable bytes_delivered : int;
  mutable marked : int;
  mutable drop_hook : (Packet.t -> unit) option;
  mutable taps : taps option;
}

and taps = {
  reg : Obs.Registry.t;
  src : string;  (* cached "link.<id>" so emits never build strings *)
  qlen_s : Obs.Series.t;  (* occupancy sampled on every arrival *)
  drops_c : Obs.Registry.counter;
  marks_c : Obs.Registry.counter;
  delivered_c : Obs.Registry.counter;
}

let no_packet = Packet.Pool.dummy_pkt

let no_event = -1

let id t = t.id

let config t = t.config

let qlen t = Ring.length t.buffer

let in_flight t = Ring.length t.wire_pkts

let busy t = t.busy

let is_up t = t.up

let service_time t size = float_of_int (size * 8) /. t.config.bandwidth_bps

let stats t =
  {
    offered = t.offered;
    dropped = t.dropped;
    delivered = t.delivered;
    bytes_delivered = t.bytes_delivered;
    marked = t.marked;
  }

let reset_stats t =
  t.offered <- 0;
  t.dropped <- 0;
  t.delivered <- 0;
  t.bytes_delivered <- 0;
  t.marked <- 0

let set_drop_hook t hook = t.drop_hook <- Some hook

let avg_queue t = Queue_disc.avg_queue t.disc

let downtime t =
  t.times.downtime_acc
  +. if t.up then 0.0 else Sim.Scheduler.now t.sched -. t.times.down_since

let count_drop t pkt =
  t.dropped <- t.dropped + 1;
  (match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.drops_c;
      Obs.Registry.emit taps.reg
        ~time:(Sim.Scheduler.now t.sched)
        ~source:taps.src
        ~event:"drop"
        ~value:(float_of_int (Ring.length t.buffer)));
  (match t.drop_hook with None -> () | Some hook -> hook pkt);
  Packet.Pool.release t.pool pkt

(* Deliver after propagation (+ optional phase jitter of up to one
   service time, section 3.1 of the paper).  The jitter is drawn
   independently per packet, so a small packet chasing a large one
   could otherwise overtake it; clamping each delivery to the link's
   last scheduled delivery keeps the link FIFO (ties fire in
   scheduling order, preserving arrival order).  The clamp also covers
   runtime reconfiguration: shrinking [prop_delay] or growing
   [bandwidth_bps] mid-run cannot schedule a delivery before one
   already on the wire. *)
let[@inline never] empty_wire t =
  invalid_arg (Printf.sprintf "Link %s: delivery fired with an empty wire" t.id)

let deliver_front t =
  if Ring.is_empty t.wire_pkts then empty_wire t;
  t.deliver (Ring.take t.wire_pkts)

let[@inline never] check_fifo t ~at =
  let now = Sim.Scheduler.now t.sched in
  Sim.Invariant.require
    (at >= t.times.last_delivery && at >= now)
    (fun () ->
      Printf.sprintf
        "Link %s: delivery at %g would overtake last delivery %g (now %g)" t.id
        at t.times.last_delivery now)

let propagate t pkt =
  let jitter =
    if t.config.phase_jitter then
      Sim.Rng.float t.rng (service_time t pkt.Packet.size)
    else 0.0
  in
  (* [if] rather than [Stdlib.max]: the polymorphic max boxes both
     floats, and [Float.max] differs on NaN and -0. *)
  let earliest = Sim.Scheduler.now t.sched +. t.config.prop_delay +. jitter in
  let last = t.times.last_delivery in
  let at = if earliest >= last then earliest else last in
  if !Sim.Invariant.enabled then check_fifo t ~at;
  t.times.last_delivery <- at;
  Sim.Scheduler.Lane.push t.wire at;
  Ring.push t.wire_pkts pkt

let[@inline never] nothing_in_service t =
  invalid_arg
    (Printf.sprintf "Link %s: tx completion with nothing in service" t.id)

let rec complete_tx t =
  let pkt = t.in_service in
  if pkt == no_packet then nothing_in_service t;
  t.tx_event <- no_event;
  t.in_service <- no_packet;
  t.delivered <- t.delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + pkt.Packet.size;
  (match t.taps with
  | None -> ()
  | Some taps -> Obs.Registry.incr taps.delivered_c);
  propagate t pkt;
  start_transmission t

and start_transmission t =
  if Ring.is_empty t.buffer then begin
    t.busy <- false;
    Queue_disc.on_empty t.disc ~now:(Sim.Scheduler.now t.sched)
  end
  else begin
    let pkt = Ring.take t.buffer in
    t.busy <- true;
    t.in_service <- pkt;
    let tx = service_time t pkt.Packet.size in
    t.tx_event <- Sim.Scheduler.schedule_after t.sched tx t.tx_thunk
  end

let create ~sched ~rng ~pool ~id config ~deliver =
  if config.bandwidth_bps <= 0.0 then
    invalid_arg "Link.create: bandwidth must be positive";
  if config.prop_delay < 0.0 then
    invalid_arg "Link.create: negative propagation delay";
  let t =
    {
      id;
      sched;
      rng;
      pool;
      config;
      disc = Queue_disc.create config.queue ~capacity:config.capacity ~rng;
      buffer = Ring.create ~dummy:Packet.Pool.dummy_pkt;
      deliver;
      wire = Sim.Scheduler.Lane.create sched;
      wire_pkts = Ring.create ~dummy:Packet.Pool.dummy_pkt;
      tx_thunk = ignore;
      busy = false;
      in_service = no_packet;
      tx_event = no_event;
      up = true;
      times = { down_since = 0.0; downtime_acc = 0.0; last_delivery = 0.0 };
      offered = 0;
      dropped = 0;
      delivered = 0;
      bytes_delivered = 0;
      marked = 0;
      drop_hook = None;
      taps = None;
    }
  in
  t.tx_thunk <- (fun () -> complete_tx t);
  Sim.Scheduler.Lane.set_action t.wire (fun () -> deliver_front t);
  t

let set_registry t reg =
  t.taps <-
    Option.map
      (fun r ->
        {
          reg = r;
          src = Printf.sprintf "link.%s" t.id;
          qlen_s = Obs.Registry.series r (Printf.sprintf "link.%s.qlen" t.id);
          drops_c = Obs.Registry.counter r (Printf.sprintf "link.%s.drops" t.id);
          marks_c = Obs.Registry.counter r (Printf.sprintf "link.%s.marks" t.id);
          delivered_c =
            Obs.Registry.counter r (Printf.sprintf "link.%s.delivered" t.id);
        })
      reg;
  Queue_disc.set_registry t.disc reg ~id:t.id

let[@inline never] require_occupancy t =
  Sim.Invariant.require
    (Ring.length t.buffer <= Queue_disc.capacity t.disc)
    (fun () ->
      Printf.sprintf "Link %s: occupancy %d exceeds capacity %d" t.id
        (Ring.length t.buffer)
        (Queue_disc.capacity t.disc))

let check_occupancy t = if !Sim.Invariant.enabled then require_occupancy t

(* lint: hot send -- per-packet enqueue on every hop; event closures
   are shared per link and idle state uses sentinels (see the type
   comment), so the admit and drop paths allocate nothing without a
   registry *)
let send t pkt =
  t.offered <- t.offered + 1;
  if not t.up then
    (* A down link rejects every offer outright: the packet is counted
       as dropped (never silently lost) and the queue discipline is
       bypassed — no RED state update, no RNG draw. *)
    count_drop t pkt
  else begin
    let now = Sim.Scheduler.now t.sched in
    let decision =
      Queue_disc.on_arrival t.disc ~now ~qlen:(Ring.length t.buffer)
    in
    (match t.taps with
    | None -> ()
    | Some taps -> (
        Obs.Series.add taps.qlen_s ~time:now
          (float_of_int (Ring.length t.buffer));
        match decision with
        | `Drop ->
            Obs.Registry.incr taps.drops_c;
            Obs.Registry.emit taps.reg ~time:now ~source:taps.src
              ~event:"drop"
              ~value:(float_of_int (Ring.length t.buffer))
        | `Mark ->
            Obs.Registry.incr taps.marks_c;
            Obs.Registry.emit taps.reg ~time:now ~source:taps.src
              ~event:"mark"
              ~value:(float_of_int (Ring.length t.buffer))
        | `Admit -> ()));
    match decision with
    | `Drop -> begin
        t.dropped <- t.dropped + 1;
        (match t.drop_hook with None -> () | Some hook -> hook pkt);
        Packet.Pool.release t.pool pkt
      end
    | `Admit ->
        Ring.push t.buffer pkt;
        check_occupancy t;
        if not t.busy then start_transmission t
    | `Mark ->
        t.marked <- t.marked + 1;
        (* Mark in place when this link is the sole owner; a packet
           shared by a multicast fan-out gets a private marked copy
           (same uid) so sibling branches keep the unmarked original. *)
        let marked_pkt =
          if pkt.Packet.refs = 1 then begin
            pkt.Packet.ecn <- true;
            pkt
          end
          else begin
            let c = Packet.Pool.acquire_copy t.pool pkt in
            c.Packet.ecn <- true;
            Packet.Pool.release t.pool pkt;
            c
          end
        in
        Ring.push t.buffer marked_pkt;
        check_occupancy t;
        if not t.busy then start_transmission t
  end

(* --- runtime reconfiguration (fault injection) --------------------- *)

let set_bandwidth t bps =
  if bps <= 0.0 then invalid_arg "Link.set_bandwidth: must be positive";
  (* The packet in service keeps its already-scheduled completion (it
     started serializing at the old rate); later packets use the new
     one.  FIFO holds: completions are strictly sequential and
     deliveries are clamped in [propagate]. *)
  t.config <- { t.config with bandwidth_bps = bps }

let set_delay t delay =
  if delay < 0.0 then invalid_arg "Link.set_delay: negative delay";
  t.config <- { t.config with prop_delay = delay }

let set_down t =
  if t.up then begin
    t.up <- false;
    t.times.down_since <- Sim.Scheduler.now t.sched;
    (* The packet being serialized is aborted and lost; packets already
       past serialization (propagating) are on the wire and still
       arrive. *)
    if t.tx_event <> no_event then begin
      Sim.Scheduler.cancel t.sched t.tx_event;
      t.tx_event <- no_event
    end;
    let was_busy = t.busy in
    let pkt = t.in_service in
    if pkt != no_packet then begin
      t.in_service <- no_packet;
      count_drop t pkt
    end;
    t.busy <- false;
    (* Everything queued behind it is flushed into the drop count. *)
    while not (Ring.is_empty t.buffer) do
      count_drop t (Ring.take t.buffer)
    done;
    if was_busy then Queue_disc.on_empty t.disc ~now:(Sim.Scheduler.now t.sched)
  end

let set_up t =
  if not t.up then begin
    t.up <- true;
    t.times.downtime_acc <-
      t.times.downtime_acc +. (Sim.Scheduler.now t.sched -. t.times.down_since)
  end
