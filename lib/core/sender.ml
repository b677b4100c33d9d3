type coverage = {
  mutable covered : int;  (* receivers that have this packet *)
  mutable rexmitted : bool;
  sent_at : float;
}

type rexmit_target = To_group | To_receivers of Net.Packet.addr list

(* Cached observability handles; sampling happens inside ack/timeout
   processing only (never from scheduled events or RNG draws), so
   instrumented and bare runs are bit-identical. *)
type taps = {
  reg : Obs.Registry.t;
  source : string;
  cwnd_s : Obs.Series.t;
  bytes_s : Obs.Series.t;
  cuts_c : Obs.Registry.counter;
  signals_c : Obs.Registry.counter;
}

(* The window's floats sit in a record of floats only, which OCaml
   stores flat: as mutable fields of the mixed record [t], every window
   update on every ack would box a fresh float. *)
type window = { mutable cwnd : float; mutable ssthresh : float }

(* [timer] holds [no_timer] when unarmed: re-armed whenever the
   acked-by-all frontier moves, it would otherwise allocate a [Some]
   cell each time. *)
let no_timer = -1

module Itbl = Hashtbl.Make (Int)

type t = {
  net : Net.Network.t;
  params : Params.t;
  src : Net.Packet.addr;
  flow : Net.Packet.flow;
  group : Net.Packet.group;
  mutable rcvrs : Rcv_state.t array;
  mutable n_active : int;
  active_slots : int Itbl.t;
      (* address -> slot of its active state: ack dispatch in O(1) *)
  mutable endpoints : Receiver.t list;
  rng : Sim.Rng.t;
  rto : Tcp.Rto.t;
  (* window state *)
  w : window;
  awnd : Stats.Ewma.t;
  mutable last_window_cut : float;
  mutable next_seq : int;
  mutable mra : int;  (* max_reach_all: contiguous all-receiver frontier *)
  coverage : (int, coverage) Hashtbl.t;
  (* retransmission machinery *)
  pending : (int, unit) Hashtbl.t;  (* lost somewhere, decision not made *)
  mutable rexmit_queue : (int * rexmit_target) list;
  queued : (int, unit) Hashtbl.t;
  mutable timer : Sim.Scheduler.event_id;  (* [no_timer] when unarmed *)
  mutable timeout_thunk : unit -> unit;
      (* one closure shared by every (re)arm, not one per arm *)
  (* counters *)
  mutable num_trouble : int;
  mutable window_cuts : int;
  mutable forced_cuts : int;
  mutable timeouts : int;
  mutable signals : int;
  mutable rexmits_multicast : int;
  mutable rexmits_unicast : int;
  mutable sent_new : int;
  cwnd_avg : Stats.Time_avg.t;
  rtt : Stats.Welford.t ref;  (* send -> covered-by-all, no-rexmit packets *)
  rtt_acks : Stats.Welford.t ref;  (* per-acknowledgment samples *)
  (* measurement baselines *)
  mutable meas_time : float;
  mutable meas_mra : int;
  mutable meas_signals : int;
  mutable meas_cuts : int;
  mutable meas_forced : int;
  mutable meas_timeouts : int;
  mutable meas_rexmits : int;
  mutable meas_sent_new : int;
  mutable meas_signals_per : int array;
  (* Derived O(1) aggregates over the active scoreboards (see
     [recompute_min_ack]/[recompute_pipes]). *)
  mutable mla_value : int;  (* min active high_ack *)
  mutable mla_count : int;  (* active boards sitting at [mla_value] *)
  mutable pipe_counts : int array;  (* active boards per pipe value *)
  mutable pipe_max : int;
  mutable taps : taps option;
}

let flow t = t.flow

let group t = t.group

let n_receivers t = Array.length t.rcvrs

let cwnd t = t.w.cwnd

let awnd t = Stats.Ewma.value t.awnd

let num_trouble_rcvr t = t.num_trouble

let max_reach_all t = t.mra

let congestion_signals t = t.signals

let window_cuts t = t.window_cuts

let forced_cuts t = t.forced_cuts

let timeouts t = t.timeouts

let rexmits_multicast t = t.rexmits_multicast

let rexmits_unicast t = t.rexmits_unicast

let receiver_endpoints t = t.endpoints

let now t = Net.Network.now t.net

(* Slot of the first active receiver at [addr], or -1.  Ack dispatch
   calls this on every ack, so it is a table probe, not a scan of every
   slot: [find]/[Not_found] allocates nothing.  [index_active] rebuilds
   the table from the slots after every membership change (create,
   drop, join); those already cost O(n), and a rebuild cannot
   leave a stale slot behind. *)
let active_slot t addr =
  match Itbl.find t.active_slots addr with
  | i -> i
  | exception Not_found -> -1

let index_active t =
  Itbl.reset t.active_slots;
  for i = Array.length t.rcvrs - 1 downto 0 do
    let r = t.rcvrs.(i) in
    if Rcv_state.active r then Itbl.replace t.active_slots (Rcv_state.addr r) i
  done

let fold_active t f init =
  Array.fold_left
    (fun acc r -> if Rcv_state.active r then f acc r else acc)
    init t.rcvrs

(* [min_last_ack]/[max_pipe] gate every window-room check — once per
   new packet and retransmission — so the original O(n) folds cost
   O(n^2) per ack on large groups.  They are kept as exact caches
   instead: every scoreboard mutation site below refreshes them
   incrementally, and [create]/membership changes recompute from
   scratch.  The caches are derived state only: the values always equal
   the folds. *)

let recompute_min_ack t =
  let v =
    fold_active t
      (fun acc r -> Stdlib.min acc (Tcp.Scoreboard.high_ack (Rcv_state.board r)))
      max_int
  in
  t.mla_value <- v;
  t.mla_count <-
    fold_active t
      (fun acc r ->
        if Tcp.Scoreboard.high_ack (Rcv_state.board r) = v then acc + 1 else acc)
      0

(* An active board's cumulative ack moved [before -> after].  [before]
   can never be below the cached minimum, so only a departure from the
   minimum bucket can change it. *)
let note_high_ack_advance t ~before ~after =
  if after <> before && before = t.mla_value then begin
    t.mla_count <- t.mla_count - 1;
    if t.mla_count <= 0 then recompute_min_ack t
  end

let pipe_bucket_incr t p =
  if p >= Array.length t.pipe_counts then begin
    let grown =
      Array.make (Stdlib.max (p + 1) (Stdlib.max 8 (2 * Array.length t.pipe_counts))) 0
    in
    Array.blit t.pipe_counts 0 grown 0 (Array.length t.pipe_counts);
    t.pipe_counts <- grown
  end;
  t.pipe_counts.(p) <- t.pipe_counts.(p) + 1;
  if p > t.pipe_max then t.pipe_max <- p

let pipe_bucket_decr t p =
  t.pipe_counts.(p) <- t.pipe_counts.(p) - 1;
  if p = t.pipe_max && t.pipe_counts.(p) = 0 then begin
    let m = ref t.pipe_max in
    while !m > 0 && t.pipe_counts.(!m) = 0 do
      decr m
    done;
    t.pipe_max <- !m
  end

(* Incr before decr: when the pipe grows this raises the max directly
   and the vacated bucket never triggers a downward scan. *)
let note_pipe_change t ~before ~after =
  if after <> before then begin
    pipe_bucket_incr t after;
    pipe_bucket_decr t before
  end

let recompute_pipes t =
  Array.fill t.pipe_counts 0 (Array.length t.pipe_counts) 0;
  t.pipe_max <- 0;
  Array.iter
    (fun r ->
      if Rcv_state.active r then
        pipe_bucket_incr t (Tcp.Scoreboard.pipe (Rcv_state.board r)))
    t.rcvrs

let min_last_ack t = t.mla_value

let signals_per_receiver t =
  Array.to_list
    (Array.map (fun r -> (Rcv_state.addr r, Rcv_state.signals r)) t.rcvrs)

(* [Stdlib.max 1.0 value] without the polymorphic call, which boxes
   both floats. *)
let set_cwnd t value =
  let cwnd = if 1.0 >= value then 1.0 else value in
  t.w.cwnd <- cwnd;
  Stats.Time_avg.update t.cwnd_avg ~time:(now t) ~value:cwnd

let half_window t =
  let h = t.w.cwnd /. 2.0 in
  if 2.0 >= h then 2.0 else h

(* Aligned (cwnd, bytes_acked-by-all) probe — both series get a sample
   at every call point, so their decimated sample times stay identical
   and exporters can zip them row by row. *)
let probe_flow t =
  match t.taps with
  | None -> ()
  | Some taps ->
      let time = now t in
      Obs.Series.add taps.cwnd_s ~time t.w.cwnd;
      Obs.Series.add taps.bytes_s ~time
        (float_of_int (t.mra * t.params.Params.data_size))

let probe_cut t ~forced =
  match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.cuts_c;
      Obs.Registry.emit taps.reg ~time:(now t) ~source:taps.source
        ~event:(if forced then "forced_cut" else "window_cut")
        ~value:t.w.cwnd

(* --- troubled receivers and the cut probability ------------------- *)

let min_signal_interval t =
  fold_active t
    (fun acc r -> Stdlib.min acc (Rcv_state.mean_signal_interval r ~now:(now t)))
    infinity

let recount_troubled t =
  match t.params.Params.trouble_counting with
  | Params.All_receivers -> t.num_trouble <- Stdlib.max 1 t.n_active
  | Params.Dynamic ->
      let min_int = min_signal_interval t in
      let count =
        fold_active t
          (fun acc r ->
            if
              Rcv_state.is_troubled r ~now:(now t) ~min_interval:min_int
                ~eta:t.params.Params.eta
            then acc + 1
            else acc)
          0
      in
      t.num_trouble <- Stdlib.max 1 count

let max_srtt t =
  fold_active t (fun acc r -> Stdlib.max acc (Rcv_state.srtt r)) 0.0

let pthresh t r =
  let scale =
    match t.params.Params.rtt_scaling with
    | Params.Equal_rtt -> 1.0
    | Params.Rtt_power k ->
        let m = max_srtt t in
        if m <= 0.0 then 1.0 else (Rcv_state.srtt r /. m) ** k
  in
  scale /. float_of_int t.num_trouble

let pthresh_for t addr =
  match Array.find_opt (fun r -> Rcv_state.addr r = addr) t.rcvrs with
  | None -> invalid_arg "Sender.pthresh_for: unknown receiver"
  | Some r -> pthresh t r

(* --- transmission -------------------------------------------------- *)

let cancel_timer t =
  if t.timer <> no_timer then begin
    Sim.Scheduler.cancel (Net.Network.scheduler t.net) t.timer;
    t.timer <- no_timer
  end

let send_packet t ~seq ~dst ~rexmit =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src ~dst
      ~size:t.params.Params.data_size
      ~payload:(Wire.Rla_data { seq; sent_at = now t; rexmit })
  in
  Net.Network.send t.net pkt

(* The slowest active branch limits the send rate: the largest pipe
   over the per-receiver scoreboards (cached, see above). *)
let max_pipe t = t.pipe_max

let send_rexmit t seq target =
  Hashtbl.remove t.queued seq;
  (match Hashtbl.find_opt t.coverage seq with
  | Some c -> c.rexmitted <- true
  | None -> ());
  let requesters =
    match target with
    | To_group ->
        List.filter Rcv_state.active (Array.to_list t.rcvrs)
    | To_receivers addrs ->
        List.filter_map
          (fun a ->
            match active_slot t a with -1 -> None | i -> Some t.rcvrs.(i))
          addrs
  in
  (* Mark the retransmission only on boards that still consider the
     packet lost (acks may have arrived since the decision). *)
  List.iter
    (fun r ->
      let board = Rcv_state.board r in
      if
        Tcp.Scoreboard.is_lost board seq
        && not (Tcp.Scoreboard.is_rexmitted board seq)
      then begin
        let p0 = Tcp.Scoreboard.pipe board in
        Tcp.Scoreboard.mark_retransmitted ~at:(now t) board seq;
        note_pipe_change t ~before:p0 ~after:(Tcp.Scoreboard.pipe board)
      end)
    requesters;
  match target with
  | To_group ->
      t.rexmits_multicast <- t.rexmits_multicast + 1;
      send_packet t ~seq ~dst:(Net.Packet.Multicast t.group) ~rexmit:true
  | To_receivers _ ->
      (* Unicast only to requesters that are still active members: a
         receiver dropped between the decision and this send must not
         keep drawing retransmissions (or inflating the unicast
         counter). *)
      List.iter
        (fun r ->
          t.rexmits_unicast <- t.rexmits_unicast + 1;
          send_packet t ~seq
            ~dst:(Net.Packet.Unicast (Rcv_state.addr r))
            ~rexmit:true)
        requesters

let window_room t =
  max_pipe t < int_of_float t.w.cwnd
  && t.next_seq - min_last_ack t < t.params.Params.rcv_buffer

(* Register a new packet on every scoreboard (inactive boards too, so
   a re-join keeps sequence numbers aligned), keeping the pipe cache in
   sync for the active ones.  A loop: an [Array.iter] closure would be
   allocated for every packet sent. *)
let register_everywhere t seq =
  for i = 0 to Array.length t.rcvrs - 1 do
    let r = t.rcvrs.(i) in
    let board = Rcv_state.board r in
    if Rcv_state.active r then begin
      let p0 = Tcp.Scoreboard.pipe board in
      let s = Tcp.Scoreboard.register_send board in
      assert (s = seq);
      note_pipe_change t ~before:p0 ~after:(Tcp.Scoreboard.pipe board)
    end
    else begin
      let s = Tcp.Scoreboard.register_send board in
      assert (s = seq)
    end
  done

let rec arm_timer t =
  if t.timer = no_timer && t.next_seq > t.mra then
    t.timer <-
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (Tcp.Rto.timeout t.rto) t.timeout_thunk

and restart_timer t =
  cancel_timer t;
  arm_timer t

and try_send t =
  let budget = ref t.params.Params.max_burst in
  while !budget > 0 && window_room t do
    match t.rexmit_queue with
    | (seq, target) :: rest ->
        t.rexmit_queue <- rest;
        send_rexmit t seq target;
        decr budget
    | [] ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        register_everywhere t seq;
        Hashtbl.replace t.coverage seq
          { covered = 0; rexmitted = false; sent_at = now t };
        t.sent_new <- t.sent_new + 1;
        send_packet t ~seq ~dst:(Net.Packet.Multicast t.group) ~rexmit:false;
        decr budget
  done;
  arm_timer t

and on_timeout t =
  if t.next_seq > t.mra then begin
    t.timeouts <- t.timeouts + 1;
    t.window_cuts <- t.window_cuts + 1;
    t.w.ssthresh <- half_window t;
    set_cwnd t 1.0;
    probe_cut t ~forced:false;
    probe_flow t;
    t.last_window_cut <- now t;
    Tcp.Rto.backoff t.rto;
    (* Everything unacknowledged anywhere is presumed lost; rebuild the
       retransmission plan from scratch. *)
    Array.iter
      (fun r -> ignore (Tcp.Scoreboard.mark_all_lost (Rcv_state.board r)))
      t.rcvrs;
    recompute_pipes t;
    t.rexmit_queue <- [];
    Hashtbl.reset t.queued;
    Hashtbl.reset t.pending;
    for seq = t.mra to t.next_seq - 1 do
      if Hashtbl.mem t.coverage seq then schedule_rexmit_decision t seq
    done
  end;
  try_send t

(* Decide (or defer) how to retransmit [seq].  The paper's rule: wait
   until every receiver has reported on the packet, then multicast if
   more than [rexmit_thresh] receivers request it, unicast otherwise. *)
and schedule_rexmit_decision t seq =
  if not (Hashtbl.mem t.queued seq) then begin
    let all_reported = ref true in
    let requesters = ref [] in
    Array.iter
      (fun r ->
        if Rcv_state.active r then begin
          let board = Rcv_state.board r in
          if Tcp.Scoreboard.is_lost board seq then
            requesters := Rcv_state.addr r :: !requesters
          else begin
            let covered =
              seq < Tcp.Scoreboard.high_ack board
              || Tcp.Scoreboard.is_sacked board seq
            in
            if not covered then all_reported := false
          end
        end)
      t.rcvrs;
    if not !all_reported then Hashtbl.replace t.pending seq ()
    else begin
      Hashtbl.remove t.pending seq;
      match !requesters with
      | [] -> ()
      | addrs ->
          let target =
            if List.length addrs > t.params.Params.rexmit_thresh then To_group
            else To_receivers addrs
          in
          t.rexmit_queue <- t.rexmit_queue @ [ (seq, target) ];
          Hashtbl.replace t.queued seq ()
    end
  end

(* --- acknowledgment processing ------------------------------------- *)

(* The coverage lookups below use [find] and [Not_found] rather than
   [find_opt]: they run several times per ack, and each [Some] would
   allocate. *)
let advance_frontier t =
  let n = t.n_active in
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Hashtbl.find t.coverage t.mra with
    | c when c.covered >= n ->
        if not c.rexmitted then
          Stats.Welford.add !(t.rtt) (now t -. c.sent_at);
        Hashtbl.remove t.coverage t.mra;
        t.mra <- t.mra + 1;
        progressed := true
    | _ | (exception Not_found) -> continue := false
  done;
  if !progressed then restart_timer t

(* A packet newly covered by one receiver; on full coverage the window
   opens (rule 4: cwnd <- cwnd + 1/cwnd once ACKed by all). *)
let cover t seq =
  match Hashtbl.find t.coverage seq with
  | exception Not_found -> ()
  | c ->
      c.covered <- c.covered + 1;
      if c.covered >= t.n_active then begin
        let w = t.w in
        if w.cwnd < w.ssthresh then set_cwnd t (w.cwnd +. 1.0)
        else set_cwnd t (w.cwnd +. (1.0 /. w.cwnd))
      end

(* Cover what a cumulative ack newly acknowledges: the packets in
   [high_ack, cum_ack) not SACKed before, ascending (the SACKed ones
   were covered when their block arrived).  Reads the board before
   {!Tcp.Scoreboard.advance_cum} clears those slots. *)
let cover_cum t board cum_ack =
  let hi = Int.min cum_ack (Tcp.Scoreboard.next_seq board) in
  for seq = Tcp.Scoreboard.high_ack board to hi - 1 do
    if not (Tcp.Scoreboard.is_sacked board seq) then cover t seq
  done;
  ignore (Tcp.Scoreboard.advance_cum board cum_ack : int)

(* SACK each block and cover what it newly SACKs, in block order. *)
let rec cover_blocks t board = function
  | [] -> ()
  | { Tcp.Wire.block_lo; block_hi } :: rest ->
      for seq = block_lo to block_hi - 1 do
        if Tcp.Scoreboard.sack board seq then cover t seq
      done;
      cover_blocks t board rest

let rec decide_each t = function
  | [] -> ()
  | seq :: rest ->
      schedule_rexmit_decision t seq;
      decide_each t rest

let congestion_action t r =
  recount_troubled t;
  let acts =
    match t.params.Params.trouble_counting with
    | Params.All_receivers -> true
    | Params.Dynamic ->
        let min_int = min_signal_interval t in
        Rcv_state.is_troubled r ~now:(now t) ~min_interval:min_int
          ~eta:t.params.Params.eta
  in
  if acts then begin
    (* The horizon guards the session-wide cut cadence, so it uses the
       session round-trip time (the largest branch srtt); keying it on
       the signaling receiver's srtt would let a nearby receiver force
       cuts an order of magnitude too often on heterogeneous trees
       (the paper observes zero forced cuts in its figure-10 runs). *)
    let horizon =
      t.params.Params.forced_cut_factor *. Stats.Ewma.value t.awnd
      *. Stdlib.max (Rcv_state.srtt r) (max_srtt t)
    in
    let do_cut ~forced =
      t.window_cuts <- t.window_cuts + 1;
      if forced then t.forced_cuts <- t.forced_cuts + 1;
      t.w.ssthresh <- half_window t;
      set_cwnd t t.w.ssthresh;
      probe_cut t ~forced;
      t.last_window_cut <- now t
    in
    if now t -. t.last_window_cut > horizon then do_cut ~forced:true
    else if Sim.Rng.uniform t.rng <= pthresh t r then do_cut ~forced:false
  end

let on_ack t r ~cum_ack ~blocks ~echo ~ece =
  Rcv_state.count_ack r;
  let rtt_sample = now t -. echo in
  Rcv_state.observe_rtt r rtt_sample;
  Stats.Welford.add !(t.rtt_acks) rtt_sample;
  Tcp.Rto.sample t.rto rtt_sample;
  let board = Rcv_state.board r in
  let high_ack0 = Tcp.Scoreboard.high_ack board in
  let pipe0 = Tcp.Scoreboard.pipe board in
  (* Coverage never reads the boards and the boards never read
     coverage, so covering while walking the board visits the packets
     in the same order as collecting them first would. *)
  cover_cum t board cum_ack;
  cover_blocks t board blocks;
  advance_frontier t;
  (* Update the moving average of the window on every ack. *)
  Stats.Ewma.update t.awnd t.w.cwnd;
  (* Built only when there are losses: no allocation on a clean ack. *)
  let losses = Tcp.Scoreboard.detect_losses board ~dupthresh:t.params.Params.dupthresh in
  decide_each t losses;
  (* Re-request retransmissions that have themselves gone unanswered
     for ~2 srtt on this branch. *)
  let srtt_i = Rcv_state.srtt r in
  if srtt_i > 0.0 && t.params.Params.rexmit_timeout_factor < infinity then begin
    let before = now t -. (t.params.Params.rexmit_timeout_factor *. srtt_i) in
    decide_each t (Tcp.Scoreboard.expire_rexmits board ~before)
  end;
  (* Fresh coverage may complete the report set of pending packets. *)
  if Hashtbl.length t.pending > 0 then begin
    let pending_seqs = Hashtbl.fold (fun seq () acc -> seq :: acc) t.pending [] in
    List.iter
      (fun seq ->
        Hashtbl.remove t.pending seq;
        if seq >= t.mra then schedule_rexmit_decision t seq)
      (List.sort Int.compare pending_seqs)
  end;
  (* An ECN echo is a congestion indication exactly like a detected
     loss: grouped per congestion period, then randomly listened to. *)
  if (losses <> [] || ece) && Rcv_state.register_losses r ~now:(now t) then begin
    t.signals <- t.signals + 1;
    (match t.taps with
    | None -> ()
    | Some taps -> Obs.Registry.incr taps.signals_c);
    congestion_action t r
  end;
  (* All of this ack's mutations to [board] are done; bring the cached
     aggregates back in sync before [try_send] reads them. *)
  note_high_ack_advance t ~before:high_ack0
    ~after:(Tcp.Scoreboard.high_ack board);
  note_pipe_change t ~before:pipe0 ~after:(Tcp.Scoreboard.pipe board);
  probe_flow t;
  try_send t

(* Stop listening to one receiver — the slow-receiver option of
   section 4.3.  Coverage counts for outstanding packets are rebuilt
   from the remaining active scoreboards so the acked-by-all frontier
   can move past the dropped receiver's holes. *)
let drop_receiver t addr =
  match active_slot t addr with
  | -1 -> false
  | i ->
      let victim = t.rcvrs.(i) in
      if t.n_active <= 1 then
        invalid_arg "Sender.drop_receiver: cannot drop the last receiver";
      Rcv_state.deactivate victim;
      t.n_active <- t.n_active - 1;
      index_active t;
      (* Recompute coverage over the survivors; grow the window for
         packets this completes (rule 4 still applies to them). *)
      let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.coverage [] in
      List.iter
        (fun seq ->
          match Hashtbl.find_opt t.coverage seq with
          | None -> ()
          | Some c ->
              c.covered <-
                fold_active t
                  (fun acc r ->
                    let board = Rcv_state.board r in
                    if
                      seq < Tcp.Scoreboard.high_ack board
                      || Tcp.Scoreboard.is_sacked board seq
                    then acc + 1
                    else acc)
                  0)
        (List.sort Int.compare seqs);
      advance_frontier t;
      recount_troubled t;
      (* Retransmission decisions that were waiting on the victim may
         now be ready. *)
      let pending_seqs =
        Hashtbl.fold (fun seq () acc -> seq :: acc) t.pending []
      in
      List.iter
        (fun seq ->
          Hashtbl.remove t.pending seq;
          if seq >= t.mra then schedule_rexmit_decision t seq)
        (List.sort Int.compare pending_seqs);
      recompute_min_ack t;
      recompute_pipes t;
      try_send t;
      true

(* Runtime join — the membership counterpart of [drop_receiver].  The
   newcomer is only responsible for packets from the current sequence
   frontier on: its endpoint acknowledges from [next_seq] and its
   scoreboard starts there, so it neither stalls on — nor gates —
   packets sent before it joined.  Re-joining an address that was
   dropped earlier reuses its slot with fresh state (fresh scoreboard,
   srtt, signal history). *)
let add_receiver t addr =
  if active_slot t addr >= 0 then false
  else begin
      if addr = t.src then
        invalid_arg "Sender.add_receiver: source cannot join its own group";
      (match Net.Network.node t.net addr with
      | exception Not_found ->
          invalid_arg "Sender.add_receiver: unknown address"
      | _ -> ());
      Net.Network.graft_multicast t.net ~group:t.group ~src:t.src ~member:addr;
      let endpoint =
        Receiver.create ~net:t.net ~node:addr ~flow:t.flow ~sender:t.src
          ~ack_jitter:t.params.Params.ack_jitter ~start:t.next_seq ()
      in
      t.endpoints <- t.endpoints @ [ endpoint ];
      let state =
        Rcv_state.create ~addr ~params:t.params ~session_start:(now t)
          ~board_start:t.next_seq ()
      in
      (match Array.find_index (fun r -> Rcv_state.addr r = addr) t.rcvrs with
      | Some i ->
          t.rcvrs.(i) <- state;
          t.meas_signals_per.(i) <- 0
      | None ->
          t.rcvrs <- Array.append t.rcvrs [| state |];
          t.meas_signals_per <- Array.append t.meas_signals_per [| 0 |]);
      t.n_active <- t.n_active + 1;
      index_active t;
      (* Outstanding packets predate the join; the newcomer's board
         already counts them delivered (seq < its high_ack), so their
         coverage counts grow by one to keep the [covered >= n_active]
         frontier/window rules consistent. *)
      Hashtbl.iter (fun _ c -> c.covered <- c.covered + 1) t.coverage;
      recount_troubled t;
      recompute_min_ack t;
      recompute_pipes t;
      try_send t;
      true
  end

let active_receivers t =
  fold_active t (fun acc r -> Rcv_state.addr r :: acc) [] |> List.rev

(* --- lifecycle ------------------------------------------------------ *)

type snapshot = {
  time : float;
  delivered : int;
  throughput : float;
  send_rate : float;
  cwnd_now : float;
  cwnd_avg : float;
  rtt_avg : float;
  rtt_all_avg : float;
  congestion_signals : int;
  window_cuts : int;
  forced_cuts : int;
  timeouts : int;
  rexmits : int;
  signals_per_receiver : (Net.Packet.addr * int) list;
}

let reset_measurement (t : t) =
  Stats.Time_avg.reset t.cwnd_avg ~start:(now t) ~value:t.w.cwnd;
  t.rtt := Stats.Welford.create ();
  t.rtt_acks := Stats.Welford.create ();
  t.meas_sent_new <- t.sent_new;
  t.meas_time <- now t;
  t.meas_mra <- t.mra;
  t.meas_signals <- t.signals;
  t.meas_cuts <- t.window_cuts;
  t.meas_forced <- t.forced_cuts;
  t.meas_timeouts <- t.timeouts;
  t.meas_rexmits <- t.rexmits_multicast + t.rexmits_unicast;
  t.meas_signals_per <- Array.map Rcv_state.signals t.rcvrs

let snapshot t =
  let span = now t -. t.meas_time in
  let delivered = t.mra - t.meas_mra in
  let sent =
    t.sent_new - t.meas_sent_new + t.rexmits_multicast + t.rexmits_unicast
    - t.meas_rexmits
  in
  let rate n = if span <= 0.0 then 0.0 else float_of_int n /. span in
  {
    time = now t;
    delivered;
    throughput = rate delivered;
    send_rate = rate sent;
    cwnd_now = t.w.cwnd;
    cwnd_avg = Stats.Time_avg.average t.cwnd_avg ~upto:(now t);
    rtt_avg = Stats.Welford.mean !(t.rtt_acks);
    rtt_all_avg = Stats.Welford.mean !(t.rtt);
    congestion_signals = t.signals - t.meas_signals;
    window_cuts = t.window_cuts - t.meas_cuts;
    forced_cuts = t.forced_cuts - t.meas_forced;
    timeouts = t.timeouts - t.meas_timeouts;
    rexmits = t.rexmits_multicast + t.rexmits_unicast - t.meas_rexmits;
    signals_per_receiver =
      Array.to_list
        (Array.mapi
           (fun i r ->
             (Rcv_state.addr r, Rcv_state.signals r - t.meas_signals_per.(i)))
           t.rcvrs);
  }

let create ~net ~src ~receivers ?(params = Params.default) ?(start_at = 0.0)
    ?endpoints:endpoint_addrs ?(tree = `Install) () =
  if receivers = [] then invalid_arg "Sender.create: no receivers";
  let flow = Net.Network.fresh_flow net in
  let group =
    match tree with
    | `Install ->
        let group = Net.Network.fresh_group net in
        Net.Network.install_multicast net ~group ~src ~members:receivers;
        group
    | `Preinstalled group -> group
  in
  let endpoints =
    List.map
      (fun node ->
        Receiver.create ~net ~node ~flow ~sender:src
          ~ack_jitter:params.Params.ack_jitter ())
      (Option.value endpoint_addrs ~default:receivers)
  in
  let start = Net.Network.now net +. start_at in
  let t =
    {
      net;
      params;
      src;
      flow;
      group;
      rcvrs =
        Array.of_list
          (List.map
             (fun addr ->
               Rcv_state.create ~addr ~params ~session_start:start ())
             receivers);
      n_active = List.length receivers;
      active_slots = Itbl.create (List.length receivers);
      endpoints;
      rng = Net.Network.fork_rng net;
      rto = Tcp.Rto.create ~min_rto:params.Params.min_rto ();
      w =
        {
          cwnd = Stdlib.max 1.0 params.Params.init_cwnd;
          ssthresh = params.Params.init_ssthresh;
        };
      awnd = Stats.Ewma.create ~weight:params.Params.awnd_weight;
      last_window_cut = start;
      next_seq = 0;
      mra = 0;
      coverage = Hashtbl.create 1024;
      pending = Hashtbl.create 64;
      rexmit_queue = [];
      queued = Hashtbl.create 64;
      timer = no_timer;
      timeout_thunk = ignore;
      num_trouble = 1;
      window_cuts = 0;
      forced_cuts = 0;
      timeouts = 0;
      signals = 0;
      rexmits_multicast = 0;
      rexmits_unicast = 0;
      sent_new = 0;
      cwnd_avg =
        Stats.Time_avg.create ~start ~value:(Stdlib.max 1.0 params.Params.init_cwnd);
      rtt = ref (Stats.Welford.create ());
      rtt_acks = ref (Stats.Welford.create ());
      meas_time = start;
      meas_mra = 0;
      meas_signals = 0;
      meas_cuts = 0;
      meas_forced = 0;
      meas_timeouts = 0;
      meas_rexmits = 0;
      meas_sent_new = 0;
      meas_signals_per = Array.make (List.length receivers) 0;
      mla_value = 0;
      mla_count = 0;
      pipe_counts = [||];
      pipe_max = 0;
      taps = None;
    }
  in
  index_active t;
  recompute_min_ack t;
  recompute_pipes t;
  t.timeout_thunk <-
    (fun () ->
      t.timer <- no_timer;
      on_timeout t);
  (match Net.Network.observer net with
  | None -> ()
  | Some reg ->
      let source = Printf.sprintf "rla.flow%d" flow in
      t.taps <-
        Some
          {
            reg;
            source;
            cwnd_s = Obs.Registry.series reg (source ^ ".cwnd");
            bytes_s = Obs.Registry.series reg (source ^ ".bytes_acked");
            cuts_c = Obs.Registry.counter reg (source ^ ".window_cuts");
            signals_c = Obs.Registry.counter reg (source ^ ".signals");
          };
      probe_flow t);
  Stats.Ewma.update t.awnd t.w.cwnd;
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rla_ack { rcvr; cum_ack; blocks; echo; ece } -> (
          (* Dispatch to the *active* state for that address: after a
             drop + re-join the array holds the stale entry too, and
             acks must reach the live one. *)
          match active_slot t rcvr with
          | -1 -> ()
          | i -> on_ack t t.rcvrs.(i) ~cum_ack ~blocks ~echo ~ece)
      | _ -> ());
  let stagger = Sim.Rng.float t.rng 0.1 in
  ignore
    (Sim.Scheduler.schedule_at (Net.Network.scheduler net) (start +. stagger)
       (fun () -> try_send t));
  t
