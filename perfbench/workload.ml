(* The benchmark's workloads and the measured runs over them.  Every
   call into the simulator goes through the public API of
   [Experiments]/[Par] and the layer modules; nothing here changes how
   a run behaves, so the simulated outputs must equal the recorded
   ones. *)

module J = Runner.Json

type t = {
  name : string;
  gateway : Experiments.Scenario.gateway;
  case_index : int;
  duration : float;
  warmup : float;
}

(* Figure-6 tree, one simulated run per seed.  Durations are short of
   the paper's 3000 s so that one benchmark run can repeat every seed
   of its ensemble several times; see README.md for the observed
   ranges. *)
let all =
  [
    {
      name = "fig6_droptail_case5";
      gateway = Experiments.Scenario.Droptail;
      case_index = 5;
      duration = 20.0;
      warmup = 5.0;
    };
    {
      name = "fig6_red_case3";
      gateway = Experiments.Scenario.Red;
      case_index = 3;
      duration = 40.0;
      warmup = 10.0;
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

let config w ~seed =
  let case = Experiments.Tree.case_of_index w.case_index in
  {
    (Experiments.Sharing.default_config ~gateway:w.gateway ~case) with
    Experiments.Sharing.duration = w.duration;
    warmup = w.warmup;
    seed;
  }

(* [setup_s] and [run_s] are processor time of this process: every
   measured process runs one domain, so this leaves out time the host
   spends on other work.  Spans keep wall-clock time. *)
let cpu = Sys.time
let now = Unix.gettimeofday
let fl x = J.Float x
let int x = J.Int x

(* Words allocated between two GC snapshots (minor + direct major,
   without double-counting promotions). *)
let allocated (a : Gc.stat) (b : Gc.stat) =
  b.Gc.minor_words +. b.Gc.major_words -. b.Gc.promoted_words
  -. (a.Gc.minor_words +. a.Gc.major_words -. a.Gc.promoted_words)

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  J.Obj
    [
      ("minor_collections", int (b.Gc.minor_collections - a.Gc.minor_collections));
      ("major_collections", int (b.Gc.major_collections - a.Gc.major_collections));
      ("promoted_words", fl (b.Gc.promoted_words -. a.Gc.promoted_words));
    ]

(* The simulated outputs the correctness check compares: the figure-6
   result row, per-flow delivered counts and the RLA signals. *)
let outputs (r : Experiments.Sharing.result) =
  let rla = r.Experiments.Sharing.rla in
  J.Obj
    [
      ("ratio", fl r.Experiments.Sharing.ratio);
      ("jain", fl r.Experiments.Sharing.jain);
      ("essentially_fair", J.Bool r.Experiments.Sharing.essentially_fair);
      ( "rla",
        J.Obj
          [
            ("delivered", int rla.Rla.Sender.delivered);
            ("send_rate", fl rla.Rla.Sender.send_rate);
            ("cwnd_avg", fl rla.Rla.Sender.cwnd_avg);
            ("congestion_signals", int rla.Rla.Sender.congestion_signals);
            ("window_cuts", int rla.Rla.Sender.window_cuts);
            ("forced_cuts", int rla.Rla.Sender.forced_cuts);
            ("timeouts", int rla.Rla.Sender.timeouts);
            ("rexmits", int rla.Rla.Sender.rexmits);
            ( "signals_per_receiver",
              J.List
                (List.map
                   (fun (a, n) -> J.List [ int a; int n ])
                   rla.Rla.Sender.signals_per_receiver) );
          ] );
      ( "tcp",
        J.List
          (List.map
             (fun (f : Experiments.Sharing.tcp_flow) ->
               let s = f.Experiments.Sharing.snap in
               J.Obj
                 [
                   ("leaf", int f.Experiments.Sharing.leaf);
                   ("delivered", int s.Tcp.Sender.delivered);
                   ("sent_new", int s.Tcp.Sender.sent_new);
                   ("retransmits", int s.Tcp.Sender.retransmits);
                   ("window_cuts", int s.Tcp.Sender.window_cuts);
                   ("timeouts", int s.Tcp.Sender.timeouts);
                   ("send_rate", fl s.Tcp.Sender.send_rate);
                 ])
             r.Experiments.Sharing.tcps) );
    ]

let sched (s : Experiments.Sharing.session) =
  Net.Network.scheduler s.Experiments.Sharing.net

(* Timed set-ups per measured process.  One set-up takes about 1 ms,
   too short for a single sample to be steady. *)
let setups = 9

(* One untraced repetition: [setups] timed builds (the last one is
   run), then warm-up, measurement window and result — the same calls
   in the same order as [Sharing.run_with_net]. *)
let rep w ~seed =
  let cfg = config w ~seed in
  let setup_s = ref [] and session = ref None in
  for _ = 1 to setups do
    let t0 = cpu () in
    let s = Experiments.Sharing.setup cfg in
    setup_s := (cpu () -. t0) :: !setup_s;
    session := Some s
  done;
  let s = Option.get !session in
  let g0 = Gc.quick_stat () in
  let t0 = cpu () in
  Net.Network.run_until s.Experiments.Sharing.net cfg.warmup;
  Experiments.Sharing.start_measurement s;
  Net.Network.run_until s.Experiments.Sharing.net cfg.duration;
  let result = Experiments.Sharing.measure s cfg in
  let run_s = cpu () -. t0 in
  let g1 = Gc.quick_stat () in
  let calib_s = Calib.run () in
  J.Obj
    [
      ("workload", J.String w.name);
      ("sim_seed", int seed);
      ("setup_s", J.List (List.rev_map fl !setup_s));
      ("run_s", fl run_s);
      ("calib_s", fl calib_s);
      ("alloc_words", fl (allocated g0 g1));
      ("top_heap_words", int g1.Gc.top_heap_words);
      ("gc", gc_delta g0 g1);
      ("events", int (Sim.Scheduler.events_fired (sched s)));
      ("outputs", outputs result);
    ]

(* Spans recorded around the calls into each layer, kept in memory and
   written out once at exit. *)
module Spans = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let spans = ref []
  let next = ref 0

  let with_span ?(parent = -1) name f =
    let id = !next in
    incr next;
    let t0 = now () in
    let v = f id in
    spans := { id; parent; name; t0; t1 = now () } :: !spans;
    v

  let write path =
    let doc =
      J.List
        (List.rev_map
           (fun s ->
             J.Obj
               [
                 ("id", int s.id);
                 ("parent", int s.parent);
                 ("name", J.String s.name);
                 ("start_s", fl s.t0);
                 ("end_s", fl s.t1);
               ])
           !spans)
    in
    let oc = open_out path in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc
end

(* Scheduler loop of the traced run: fire everything up to [horizon]
   one [Sim.Scheduler.step] at a time, counting fired and skipped
   entries and sampling the pending-event depth, one span per simulated
   second.  The final [run_until] only pins the clock to the horizon,
   exactly as the library loop does. *)
type loop = {
  mutable fired : int;
  mutable skipped : int;
  mutable pending_sum : float;
  mutable pending_samples : int;
}

let drive sc lp ~parent ~from ~horizon =
  let rec chunks t =
    if t < horizon then begin
      let stop = Float.min horizon (Float.of_int (truncate t + 1)) in
      Spans.with_span ~parent (Printf.sprintf "sim.step[%g,%g]" t stop)
        (fun _ ->
          let continue = ref true in
          while !continue do
            match Sim.Scheduler.step sc stop with
            | `Fired ->
                lp.fired <- lp.fired + 1;
                if lp.fired land 255 = 0 then begin
                  lp.pending_sum <-
                    lp.pending_sum +. float_of_int (Sim.Scheduler.pending sc);
                  lp.pending_samples <- lp.pending_samples + 1
                end
            | `Skipped -> lp.skipped <- lp.skipped + 1
            | `Done -> continue := false
          done;
          Sim.Scheduler.run_until sc stop);
      chunks stop
    end
  in
  chunks from

let traced w ~seed ~spans_path =
  let cfg = config w ~seed in
  let registry = Obs.Registry.create () in
  let lp = { fired = 0; skipped = 0; pending_sum = 0.0; pending_samples = 0 } in
  let s =
    Spans.with_span "experiments.setup" (fun _ ->
        Experiments.Sharing.setup ~registry cfg)
  in
  let sc = sched s in
  let t0 = cpu () in
  let result =
    Spans.with_span "run" (fun run ->
        Spans.with_span ~parent:run "warmup" (fun p ->
            drive sc lp ~parent:p ~from:0.0 ~horizon:cfg.warmup);
        Spans.with_span ~parent:run "experiments.start_measurement" (fun _ ->
            Experiments.Sharing.start_measurement s);
        Spans.with_span ~parent:run "measure" (fun p ->
            drive sc lp ~parent:p ~from:cfg.warmup ~horizon:cfg.duration);
        Spans.with_span ~parent:run "experiments.measure" (fun _ ->
            Experiments.Sharing.measure s cfg))
  in
  let run_s = cpu () -. t0 in
  Spans.write spans_path;
  let net = s.Experiments.Sharing.net in
  let links = Net.Network.links net in
  let sum f = List.fold_left (fun a l -> a + f (Net.Link.stats l)) 0 links in
  let pool = Net.Network.pool net in
  let tcps = List.map snd s.Experiments.Sharing.tcps in
  let tsum f = List.fold_left (fun a t -> a + f t) 0 tcps in
  let rla = s.Experiments.Sharing.rla in
  let rla_acks =
    List.fold_left
      (fun a e -> a + Rla.Receiver.received_total e)
      0
      (Rla.Sender.receiver_endpoints rla)
  in
  let registry_events =
    Option.value ~default:(-1)
      (List.assoc_opt "sim.events_fired" (Obs.Registry.counters registry))
  in
  J.Obj
    [
      ("workload", J.String w.name);
      ("sim_seed", int seed);
      ("run_s", fl run_s);
      ("events", int (Sim.Scheduler.events_fired sc));
      ("loop_fired", int lp.fired);
      ("registry_events", int registry_events);
      ("skipped", int lp.skipped);
      ( "pending_mean",
        fl (lp.pending_sum /. float_of_int (max 1 lp.pending_samples)) );
      ("link_offered", int (sum (fun st -> st.Net.Link.offered)));
      ("link_dropped", int (sum (fun st -> st.Net.Link.dropped)));
      ("link_marked", int (sum (fun st -> st.Net.Link.marked)));
      ("pool_recycled", int (Net.Packet.Pool.recycled pool));
      ("pool_allocated", int (Net.Packet.Pool.allocated pool));
      ("tcp_sent_new", int (tsum Tcp.Sender.sent_new));
      ("tcp_retransmits", int (tsum Tcp.Sender.retransmits));
      ("tcp_window_cuts", int (tsum Tcp.Sender.window_cuts));
      ("tcp_timeouts", int (tsum Tcp.Sender.timeouts));
      ("rla_signals", int (Rla.Sender.congestion_signals rla));
      ("rla_window_cuts", int (Rla.Sender.window_cuts rla));
      ("rla_forced_cuts", int (Rla.Sender.forced_cuts rla));
      ( "rla_rexmits",
        int (Rla.Sender.rexmits_multicast rla + Rla.Sender.rexmits_unicast rla)
      );
      ("rla_acks", int rla_acks);
      ("outputs", outputs result);
    ]
