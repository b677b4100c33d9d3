type t = {
  net : Net.Network.t;
  node : Net.Node.t;
  flow : Net.Packet.flow;
  sender : Net.Packet.addr;
  rng : Sim.Rng.t;
  ack_jitter : float;
  (* Delayed acknowledgments in flight, one slot each: the event id
     (-1 marks a free slot), the data packet's echo timestamp and ECN
     bit (the cum/sack snapshot happens at fire time), and the slot's
     own event closure.  A slot's closure is built once, when the slot
     is created, so scheduling an ack allocates nothing. *)
  mutable ack_ids : Sim.Scheduler.event_id array;
  mutable ack_echoes : float array;
  mutable ack_eces : bool array;
  mutable ack_thunks : (unit -> unit) array;
  ooo : (int, unit) Hashtbl.t;
  mutable recent : int list;
  mutable expected : int;
  mutable received_total : int;
  mutable duplicates : int;
  mutable rexmits_received : int;
}

let node_id t = Net.Node.id t.node

let expected t = t.expected

let received_total t = t.received_total

let duplicates t = t.duplicates

let rexmits_received t = t.rexmits_received

let block_around t seq =
  let lo = ref seq in
  while Hashtbl.mem t.ooo (!lo - 1) do
    decr lo
  done;
  let hi = ref (seq + 1) in
  while Hashtbl.mem t.ooo !hi do
    incr hi
  done;
  { Tcp.Wire.block_lo = !lo; block_hi = !hi }

let sack_blocks t =
  let rec build acc seen = function
    | [] -> List.rev acc
    | _ when List.length acc >= Tcp.Wire.max_sack_blocks -> List.rev acc
    | rep :: rest ->
        if rep < t.expected || not (Hashtbl.mem t.ooo rep) then
          build acc seen rest
        else begin
          let block = block_around t rep in
          if List.mem block.Tcp.Wire.block_lo seen then build acc seen rest
          else build (block :: acc) (block.Tcp.Wire.block_lo :: seen) rest
        end
  in
  build [] [] t.recent

(* Acknowledgments leave after a small random processing delay: an
   equal-RTT multicast tree would otherwise fire all receivers' acks at
   the same instant, and the synchronized burst picks the same overflow
   victims at the reverse bottleneck on every round (see
   {!Params.ack_jitter}).  The ack snapshot (cum/sack/echo) is taken at
   send time so it reflects everything received meanwhile. *)
let emit_ack t ~echo ~ece =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:(Net.Node.id t.node)
      ~dst:(Net.Packet.Unicast t.sender) ~size:Wire.ack_size
      ~payload:
        (Wire.Rla_ack
           {
             rcvr = Net.Node.id t.node;
             cum_ack = t.expected;
             blocks = sack_blocks t;
             echo;
             ece;
           })
  in
  Net.Network.send t.net pkt

let fire_ack t slot =
  let echo = t.ack_echoes.(slot) and ece = t.ack_eces.(slot) in
  t.ack_ids.(slot) <- -1;
  emit_ack t ~echo ~ece

(* A free slot, growing the slot arrays when all are in use. *)
let free_slot t =
  let n = Array.length t.ack_ids in
  let rec scan i =
    if i = n then begin
      let cap = Int.max 4 (2 * n) in
      let grow a fill = Array.init cap (fun i -> if i < n then a.(i) else fill i) in
      t.ack_ids <- grow t.ack_ids (fun _ -> -1);
      t.ack_echoes <- grow t.ack_echoes (fun _ -> 0.0);
      t.ack_eces <- grow t.ack_eces (fun _ -> false);
      t.ack_thunks <- grow t.ack_thunks (fun i () -> fire_ack t i);
      n
    end
    else if t.ack_ids.(i) < 0 then i
    else scan (i + 1)
  in
  scan 0

let[@inline] hold_ack t slot ~id ~echo ~ece =
  t.ack_ids.(slot) <- id;
  t.ack_echoes.(slot) <- echo;
  t.ack_eces.(slot) <- ece

let send_ack t ~echo ~ece =
  if t.ack_jitter <= 0.0 then emit_ack t ~echo ~ece
  else begin
    let slot = free_slot t in
    let id =
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (Sim.Rng.float t.rng t.ack_jitter)
        t.ack_thunks.(slot)
    in
    hold_ack t slot ~id ~echo ~ece
  end

let on_data t ~seq ~sent_at ~rexmit ~ecn =
  t.received_total <- t.received_total + 1;
  if rexmit then t.rexmits_received <- t.rexmits_received + 1;
  if seq < t.expected || Hashtbl.mem t.ooo seq then
    t.duplicates <- t.duplicates + 1
  else if seq = t.expected then begin
    t.expected <- t.expected + 1;
    while Hashtbl.mem t.ooo t.expected do
      Hashtbl.remove t.ooo t.expected;
      t.expected <- t.expected + 1
    done;
    (* Guarded: the filter's closure would be allocated even for the
       empty list of an in-order stream. *)
    match t.recent with
    | [] -> ()
    | recent -> t.recent <- List.filter (fun r -> r >= t.expected) recent
  end
  else begin
    Hashtbl.replace t.ooo seq ();
    t.recent <- seq :: List.filter (fun r -> r <> seq) t.recent;
    if List.length t.recent > 4 * Tcp.Wire.max_sack_blocks then
      t.recent <-
        List.filteri (fun i _ -> i < 4 * Tcp.Wire.max_sack_blocks) t.recent
  end;
  send_ack t ~echo:sent_at ~ece:ecn

let create ~net ~node ~flow ~sender ?(ack_jitter = 0.002) ?(start = 0) () =
  let node = Net.Network.node net node in
  let t =
    {
      net;
      node;
      flow;
      sender;
      rng = Net.Network.fork_rng net;
      ack_jitter;
      ack_ids = [||];
      ack_echoes = [||];
      ack_eces = [||];
      ack_thunks = [||];
      ooo = Hashtbl.create 64;
      recent = [];
      expected = start;
      received_total = 0;
      duplicates = 0;
      rexmits_received = 0;
    }
  in
  Net.Node.attach node ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rla_data { seq; sent_at; rexmit } ->
          on_data t ~seq ~sent_at ~rexmit ~ecn:pkt.Net.Packet.ecn
      | _ -> ());
  t
