type params = {
  init_cwnd : float;
  init_ssthresh : float;
  dupthresh : int;
  max_burst : int;
  max_cwnd : float;
  data_size : int;
  min_rto : float;
  limit : int option;
  handshake : bool;
  wscale : int;
  window : Receiver.window option;
  karn : bool;
}

let default_params =
  {
    init_cwnd = 1.0;
    init_ssthresh = 64.0;
    dupthresh = 3;
    max_burst = 4;
    max_cwnd = 128.0;
    data_size = Wire.data_size;
    min_rto = 1.0;
    limit = None;
    handshake = false;
    wscale = 0;
    window = None;
    karn = false;
  }

(* Persist-timer probes back off like the RTO but cap at NS2's 60 s. *)
let persist_max = 60.0

(* Cached observability handles (see [Obs.Registry]); sampling happens
   at ack/timeout processing points only, never from scheduled events,
   so instrumented and bare runs are bit-identical. *)
type taps = {
  reg : Obs.Registry.t;
  source : string;
  cwnd_s : Obs.Series.t;
  bytes_s : Obs.Series.t;
  srtt_s : Obs.Series.t;
  cuts_c : Obs.Registry.counter;
  ssthresh_g : Obs.Registry.gauge;
}

(* The congestion window's floats sit in a record of floats only, which
   OCaml stores flat: as mutable fields of the mixed record [t], every
   window update on every ack would box a fresh float. *)
type window = { mutable cwnd : float; mutable ssthresh : float }

(* [timer] holds [no_timer] when unarmed: re-armed on every delivering
   ack, it would otherwise allocate a [Some] cell each time. *)
let no_timer = -1

type t = {
  net : Net.Network.t;
  params : params;
  src : Net.Packet.addr;
  dst : Net.Packet.addr;
  flow : Net.Packet.flow;
  sb : Scoreboard.t;
  rto : Rto.t;
  receiver : Receiver.t;
  w : window;
  mutable in_recovery : bool;
  mutable recover_point : int;
  mutable timer : Sim.Scheduler.event_id;  (* [no_timer] when unarmed *)
  (* One shared closure for every RTO (re)arm — the timer is re-armed
     on each delivering ack, so a per-arm closure is hot-path litter. *)
  mutable timeout_thunk : unit -> unit;
  (* connection establishment (params.handshake) *)
  mutable established : bool;
  mutable syn_sent : int;
  mutable neg_wscale : int;
  (* flow control: last advertised window field; Wire.no_rwnd = none *)
  mutable rwnd_field : int;
  mutable persist_timer : Sim.Scheduler.event_id option;
  mutable persist_thunk : unit -> unit;
  mutable persist_shift : int;
  mutable zero_window_probes : int;
  (* RFC 5961-style validation: acks for never-sent data, dropped *)
  mutable ghost_acks : int;
  (* statistics *)
  cwnd_avg : Stats.Time_avg.t;
  rtt : Stats.Welford.t ref;
  mutable sent_new : int;
  mutable retransmits : int;
  mutable window_cuts : int;
  mutable timeouts : int;
  (* measurement baseline (reset_measurement) *)
  mutable meas_time : float;
  mutable meas_delivered : int;
  mutable meas_sent_new : int;
  mutable meas_retransmits : int;
  mutable meas_window_cuts : int;
  mutable meas_timeouts : int;
  mutable completed_at : float option;
  mutable taps : taps option;
}

let flow t = t.flow

let cwnd t = t.w.cwnd

let ssthresh t = t.w.ssthresh

let in_recovery t = t.in_recovery

let delivered t = Scoreboard.high_ack t.sb

let window_cuts t = t.window_cuts

let timeouts t = t.timeouts

let retransmits t = t.retransmits

let sent_new t = t.sent_new

let rtt_stats t = !(t.rtt)

let receiver t = t.receiver

let established t = t.established

let syn_sent t = t.syn_sent

let negotiated_wscale t = t.neg_wscale

let ghost_acks t = t.ghost_acks

let zero_window_probes t = t.zero_window_probes

let now t = Net.Network.now t.net

let local_options t =
  Options.make
    ~mss:(Stdlib.min t.params.data_size 0xFFFF)
    ~wscale:t.params.wscale ~sack_ok:true

(* Peer receive window in packets; no advertisement means unlimited
   (the pre-hardening behavior, and the honest default). *)
let rwnd_pkts t =
  if t.rwnd_field = Wire.no_rwnd then max_int
  else t.rwnd_field lsl t.neg_wscale

(* lint: hot ack_in_window -- runs once per received ack before any
   scoreboard work; pure integer compares, no allocation *)
let ack_in_window t ~cum_ack = cum_ack <= Scoreboard.next_seq t.sb

(* Clamped to [1, max_cwnd] with explicit [if]s: [Stdlib.max]/[min]
   are polymorphic and box both floats.  Same results, NaN included. *)
let set_cwnd t value =
  let max_cwnd = t.params.max_cwnd in
  let value = if value <= max_cwnd then value else max_cwnd in
  let value = if 1.0 >= value then 1.0 else value in
  t.w.cwnd <- value;
  Stats.Time_avg.update t.cwnd_avg ~time:(now t) ~value

(* [Stdlib.max 2.0 (cwnd /. 2.0)] without the polymorphic call. *)
let half_window t =
  let h = t.w.cwnd /. 2.0 in
  if 2.0 >= h then 2.0 else h

(* One aligned (cwnd, bytes_acked) probe: both series get a sample at
   every call point, so their decimation schedules — and therefore
   their sample times — stay identical and exporters can zip them. *)
let probe_flow t =
  match t.taps with
  | None -> ()
  | Some taps ->
      let time = now t in
      Obs.Series.add taps.cwnd_s ~time t.w.cwnd;
      Obs.Series.add taps.bytes_s ~time
        (float_of_int (delivered t * t.params.data_size));
      Obs.Registry.set taps.ssthresh_g t.w.ssthresh

let probe_cut t =
  match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.cuts_c;
      Obs.Registry.emit taps.reg ~time:(now t) ~source:taps.source
        ~event:"window_cut" ~value:t.w.cwnd

let avg_cwnd t = Stats.Time_avg.average t.cwnd_avg ~upto:(now t)

let reset_measurement t =
  Stats.Time_avg.reset t.cwnd_avg ~start:(now t) ~value:t.w.cwnd;
  t.rtt := Stats.Welford.create ();
  t.meas_time <- now t;
  t.meas_delivered <- delivered t;
  t.meas_sent_new <- t.sent_new;
  t.meas_retransmits <- t.retransmits;
  t.meas_window_cuts <- t.window_cuts;
  t.meas_timeouts <- t.timeouts

type snapshot = {
  time : float;
  delivered : int;
  sent_new : int;
  retransmits : int;
  window_cuts : int;
  timeouts : int;
  cwnd_now : float;
  cwnd_avg : float;
  rtt_avg : float;
  throughput : float;
  send_rate : float;
}

let snapshot t =
  let span = now t -. t.meas_time in
  let delivered_span = delivered t - t.meas_delivered in
  let sent_span =
    t.sent_new - t.meas_sent_new + t.retransmits - t.meas_retransmits
  in
  let rate n = if span <= 0.0 then 0.0 else float_of_int n /. span in
  {
    time = now t;
    delivered = delivered_span;
    sent_new = t.sent_new - t.meas_sent_new;
    retransmits = t.retransmits - t.meas_retransmits;
    window_cuts = t.window_cuts - t.meas_window_cuts;
    timeouts = t.timeouts - t.meas_timeouts;
    cwnd_now = t.w.cwnd;
    cwnd_avg = avg_cwnd t;
    rtt_avg = Stats.Welford.mean !(t.rtt);
    throughput = rate delivered_span;
    send_rate = rate sent_span;
  }

let cancel_timer t =
  if t.timer <> no_timer then begin
    Sim.Scheduler.cancel (Net.Network.scheduler t.net) t.timer;
    t.timer <- no_timer
  end

let cancel_persist t =
  match t.persist_timer with
  | None -> ()
  | Some id ->
      Sim.Scheduler.cancel (Net.Network.scheduler t.net) id;
      t.persist_timer <- None

let send_data t ~seq ~rexmit =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
      ~dst:(Net.Packet.Unicast t.dst) ~size:t.params.data_size
      ~payload:(Wire.Tcp_data { seq; sent_at = now t })
  in
  if rexmit then t.retransmits <- t.retransmits + 1
  else t.sent_new <- t.sent_new + 1;
  Net.Network.send t.net pkt

let is_complete t = Option.is_some t.completed_at

(* Room for a new packet: below the transfer limit, and unacknowledged
   data fits the peer window (flow control). *)
let can_send_new t =
  (match t.params.limit with
  | None -> true
  | Some limit -> Scoreboard.next_seq t.sb < limit)
  && Scoreboard.in_flight_window t.sb < rwnd_pkts t

let rec arm_timer t =
  if t.timer = no_timer && not (is_complete t) then
    t.timer <-
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (Rto.timeout t.rto) t.timeout_thunk

and restart_timer t =
  cancel_timer t;
  if Scoreboard.in_flight_window t.sb > 0 then arm_timer t

and try_send t =
  if t.established then begin
    let budget = ref t.params.max_burst in
    let blocked = ref false in
    while
      (not !blocked) && !budget > 0
      && Scoreboard.pipe t.sb < int_of_float t.w.cwnd
    do
      (match Scoreboard.next_retransmit t.sb with
      | Some seq ->
          Scoreboard.mark_retransmitted t.sb seq;
          send_data t ~seq ~rexmit:true
      | None ->
          if can_send_new t then begin
            let seq = Scoreboard.register_send t.sb in
            send_data t ~seq ~rexmit:false
          end
          else blocked := true);
      decr budget
    done;
    if Scoreboard.in_flight_window t.sb > 0 then arm_timer t
    else if rwnd_pkts t = 0 && not (is_complete t) then
      (* Zero window and nothing in flight: only a probe can solicit
         the reopening advertisement (the peer has nothing to ack). *)
      arm_persist t
  end

and arm_persist t =
  if Option.is_none t.persist_timer && not (is_complete t) then begin
    let interval =
      Stdlib.min
        (Rto.timeout t.rto *. (2.0 ** float_of_int t.persist_shift))
        persist_max
    in
    t.persist_timer <-
      Some
        (Sim.Scheduler.schedule_after
           (Net.Network.scheduler t.net)
           interval t.persist_thunk)
  end

and on_persist t =
  if t.established && (not (is_complete t)) && rwnd_pkts t = 0 then begin
    let pkt =
      Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
        ~dst:(Net.Packet.Unicast t.dst) ~size:Wire.ack_size
        ~payload:
          (Wire.Tcp_probe { seq = Scoreboard.next_seq t.sb; sent_at = now t })
    in
    Net.Network.send t.net pkt;
    t.zero_window_probes <- t.zero_window_probes + 1;
    if t.persist_shift < 16 then t.persist_shift <- t.persist_shift + 1;
    arm_persist t
  end

and send_syn t =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
      ~dst:(Net.Packet.Unicast t.dst) ~size:Wire.ack_size
      ~payload:
        (Wire.Tcp_syn
           { options = Options.encode (local_options t); sent_at = now t })
  in
  t.syn_sent <- t.syn_sent + 1;
  Net.Network.send t.net pkt;
  arm_timer t

and on_timeout t =
  if not t.established then begin
    (* SYN retransmission with exponential backoff. *)
    if not (is_complete t) then begin
      Rto.backoff t.rto;
      send_syn t
    end
  end
  else begin
    (* Timeout: halve ssthresh, collapse to one packet, resend from the
       cumulative ack point. *)
    if Scoreboard.in_flight_window t.sb > 0 then begin
      t.timeouts <- t.timeouts + 1;
      t.window_cuts <- t.window_cuts + 1;
      t.w.ssthresh <- half_window t;
      set_cwnd t 1.0;
      probe_cut t;
      probe_flow t;
      Rto.backoff t.rto;
      ignore (Scoreboard.mark_all_lost t.sb);
      t.in_recovery <- false;
      t.recover_point <- Scoreboard.next_seq t.sb
    end;
    try_send t
  end

let enter_recovery t =
  t.in_recovery <- true;
  t.recover_point <- Scoreboard.next_seq t.sb;
  t.window_cuts <- t.window_cuts + 1;
  t.w.ssthresh <- half_window t;
  set_cwnd t t.w.ssthresh;
  probe_cut t

let grow_window t newly =
  let w = t.w in
  for _ = 1 to newly do
    if w.cwnd < w.ssthresh then set_cwnd t (w.cwnd +. 1.0)
    else set_cwnd t (w.cwnd +. (1.0 /. w.cwnd))
  done

(* Apply the ack's SACK blocks: recursion rather than a [List.map] into
   the scoreboard's pair form, which would allocate on every ack. *)
let rec sack_blocks sb = function
  | [] -> ()
  | { Wire.block_lo; block_hi } :: rest ->
      ignore (Scoreboard.mark_sacked sb ~lo:block_lo ~hi:block_hi : int);
      sack_blocks sb rest

let check_completion t =
  match (t.params.limit, t.completed_at) with
  | Some limit, None when Scoreboard.high_ack t.sb >= limit ->
      t.completed_at <- Some (now t);
      cancel_timer t;
      cancel_persist t
  | _ -> ()

let on_ack t ~cum_ack ~blocks ~echo ~ece ~rwnd =
  if not (ack_in_window t ~cum_ack) then
    (* RFC 5961-flavored validation: an ack for data never sent is a
       forgery (or an optimistic acker); drop it before it can touch
       the estimator, the scoreboard or the window. *)
    t.ghost_acks <- t.ghost_acks + 1
  else begin
    t.rwnd_field <- rwnd;
    if rwnd <> 0 && Option.is_some t.persist_timer then begin
      cancel_persist t;
      t.persist_shift <- 0
    end;
    (* Karn's algorithm (params.karn): an RTT sample spanning a
       retransmitted range is ambiguous — ask before process_ack
       clears the flags.  Challenge acks carry no echo (< 0). *)
    let rexmitted =
      t.params.karn
      && Scoreboard.range_has_rexmit t.sb ~lo:(Scoreboard.high_ack t.sb)
           ~hi:cum_ack
    in
    (* A constant [~rexmitted:true] is a static [Some]; passing the
       variable would allocate one per ack. *)
    if echo >= 0.0 then
      if rexmitted then Rto.sample ~rexmitted:true t.rto (now t -. echo)
      else Rto.sample t.rto (now t -. echo);
    (match t.taps with
    | None -> ()
    | Some taps -> Obs.Series.add taps.srtt_s ~time:(now t) (Rto.srtt t.rto));
    let newly = Scoreboard.advance_cum t.sb cum_ack in
    sack_blocks t.sb blocks;
    (* Built only when there are losses: no allocation on a clean ack. *)
    let losses = Scoreboard.detect_losses t.sb ~dupthresh:t.params.dupthresh in
    if newly > 0 then begin
      restart_timer t;
      if t.in_recovery && Scoreboard.high_ack t.sb >= t.recover_point then
        t.in_recovery <- false;
      if not t.in_recovery then grow_window t newly
    end;
    if (losses <> [] || ece) && not t.in_recovery then enter_recovery t;
    probe_flow t;
    check_completion t;
    if not (is_complete t) then try_send t
  end

let on_syn_ack t ~options ~rwnd ~sent_at =
  if not t.established then
    match Options.decode options with
    | Error _ -> ()  (* unparseable SYN-ACK options: drop the segment *)
    | Ok peer ->
        let negotiated = Options.negotiate (local_options t) peer in
        t.neg_wscale <- negotiated.Options.wscale;
        t.rwnd_field <- rwnd;
        t.established <- true;
        Rto.sample t.rto (now t -. sent_at);
        cancel_timer t;
        try_send t

let completed_at t = t.completed_at

(* Flow churn: end the flow now.  Reuses the finite-flow completion
   machinery — acknowledgments for packets already in flight keep
   draining (and updating the scoreboard), but no new transmission or
   retransmission is ever scheduled again. *)
let stop t =
  if not (is_complete t) then begin
    t.completed_at <- Some (now t);
    cancel_timer t;
    cancel_persist t
  end

let create ~net ~src ~dst ?(params = default_params) ?(start_at = 0.0) () =
  let flow = Net.Network.fresh_flow net in
  let receiver =
    Receiver.create ?window:params.window ~wscale:params.wscale ~net ~node:dst
      ~flow ~peer:src ()
  in
  let start = Net.Network.now net +. start_at in
  let t =
    {
      net;
      params;
      src;
      dst;
      flow;
      sb = Scoreboard.create ();
      rto = Rto.create ~min_rto:params.min_rto ();
      receiver;
      w =
        { cwnd = Stdlib.max 1.0 params.init_cwnd; ssthresh = params.init_ssthresh };
      in_recovery = false;
      recover_point = 0;
      timer = no_timer;
      timeout_thunk = ignore;
      established = not params.handshake;
      syn_sent = 0;
      neg_wscale = (if params.handshake then 0 else params.wscale);
      rwnd_field = Wire.no_rwnd;
      persist_timer = None;
      persist_thunk = ignore;
      persist_shift = 0;
      zero_window_probes = 0;
      ghost_acks = 0;
      cwnd_avg = Stats.Time_avg.create ~start ~value:params.init_cwnd;
      rtt = ref (Stats.Welford.create ());
      sent_new = 0;
      retransmits = 0;
      window_cuts = 0;
      timeouts = 0;
      meas_time = start;
      meas_delivered = 0;
      meas_sent_new = 0;
      meas_retransmits = 0;
      meas_window_cuts = 0;
      meas_timeouts = 0;
      completed_at = None;
      taps = None;
    }
  in
  t.timeout_thunk <-
    (fun () ->
      t.timer <- no_timer;
      on_timeout t);
  t.persist_thunk <-
    (fun () ->
      t.persist_timer <- None;
      on_persist t);
  (match Net.Network.observer net with
  | None -> ()
  | Some reg ->
      let source = Printf.sprintf "tcp.flow%d" flow in
      t.taps <-
        Some
          {
            reg;
            source;
            cwnd_s = Obs.Registry.series reg (source ^ ".cwnd");
            bytes_s = Obs.Registry.series reg (source ^ ".bytes_acked");
            srtt_s = Obs.Registry.series reg (source ^ ".srtt");
            cuts_c = Obs.Registry.counter reg (source ^ ".window_cuts");
            ssthresh_g = Obs.Registry.gauge reg (source ^ ".ssthresh");
          };
      probe_flow t);
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Tcp_ack { cum_ack; blocks; echo; ece; rwnd } ->
          if echo >= 0.0 then Stats.Welford.add !(t.rtt) (now t -. echo);
          on_ack t ~cum_ack ~blocks ~echo ~ece ~rwnd
      | Wire.Tcp_syn_ack { options; rwnd; sent_at } ->
          on_syn_ack t ~options ~rwnd ~sent_at
      | _ -> ());
  (* Random sub-RTT stagger avoids artificial start synchronisation. *)
  let stagger = Sim.Rng.float (Net.Network.fork_rng net) 0.1 in
  ignore
    (Sim.Scheduler.schedule_at (Net.Network.scheduler net) (start +. stagger)
       (fun () -> if t.established then try_send t else send_syn t));
  t
