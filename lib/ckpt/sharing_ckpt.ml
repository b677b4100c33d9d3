let section_names = [ "meta"; "config"; "digest" ]

type meta = { time : float; registry : bool; journal : bool }

let w_meta b m =
  Codec.w_f64 b m.time;
  Codec.w_bool b m.registry;
  Codec.w_bool b m.journal

let r_meta r =
  let time = Codec.r_f64 r in
  let registry = Codec.r_bool r in
  let journal = Codec.r_bool r in
  { time; registry; journal }

(* --- config --------------------------------------------------------- *)

let bad_tag what n =
  raise (Codec.Parse (Printf.sprintf "bad %s tag %d" what n))

let w_gateway b = function
  | Experiments.Scenario.Droptail -> Codec.w_int b 0
  | Experiments.Scenario.Red -> Codec.w_int b 1

let r_gateway r =
  match Codec.r_int r with
  | 0 -> Experiments.Scenario.Droptail
  | 1 -> Experiments.Scenario.Red
  | n -> bad_tag "gateway" n

let w_case b = function
  | Experiments.Tree.L1_bottleneck -> Codec.w_int b 0
  | Experiments.Tree.L2_all -> Codec.w_int b 1
  | Experiments.Tree.L3_all -> Codec.w_int b 2
  | Experiments.Tree.L4_all -> Codec.w_int b 3
  | Experiments.Tree.L4_first k ->
      Codec.w_int b 4;
      Codec.w_int b k
  | Experiments.Tree.L2_single -> Codec.w_int b 5

let r_case r =
  match Codec.r_int r with
  | 0 -> Experiments.Tree.L1_bottleneck
  | 1 -> Experiments.Tree.L2_all
  | 2 -> Experiments.Tree.L3_all
  | 3 -> Experiments.Tree.L4_all
  | 4 -> Experiments.Tree.L4_first (Codec.r_int r)
  | 5 -> Experiments.Tree.L2_single
  | n -> bad_tag "tree-case" n

let w_rtt_scaling b = function
  | Rla.Params.Equal_rtt -> Codec.w_int b 0
  | Rla.Params.Rtt_power k ->
      Codec.w_int b 1;
      Codec.w_f64 b k

let r_rtt_scaling r =
  match Codec.r_int r with
  | 0 -> Rla.Params.Equal_rtt
  | 1 -> Rla.Params.Rtt_power (Codec.r_f64 r)
  | n -> bad_tag "rtt-scaling" n

let w_trouble_counting b = function
  | Rla.Params.Dynamic -> Codec.w_int b 0
  | Rla.Params.All_receivers -> Codec.w_int b 1

let r_trouble_counting r =
  match Codec.r_int r with
  | 0 -> Rla.Params.Dynamic
  | 1 -> Rla.Params.All_receivers
  | n -> bad_tag "trouble-counting" n

let w_rla_params b (p : Rla.Params.t) =
  Codec.w_f64 b p.Rla.Params.eta;
  Codec.w_f64 b p.group_rtt_factor;
  Codec.w_f64 b p.forced_cut_factor;
  w_rtt_scaling b p.rtt_scaling;
  w_trouble_counting b p.trouble_counting;
  Codec.w_int b p.rexmit_thresh;
  Codec.w_f64 b p.awnd_weight;
  Codec.w_f64 b p.interval_ewma_weight;
  Codec.w_f64 b p.srtt_weight;
  Codec.w_int b p.dupthresh;
  Codec.w_f64 b p.init_cwnd;
  Codec.w_f64 b p.init_ssthresh;
  Codec.w_int b p.max_burst;
  Codec.w_int b p.rcv_buffer;
  Codec.w_int b p.data_size;
  Codec.w_f64 b p.min_rto;
  Codec.w_f64 b p.ack_jitter;
  Codec.w_f64 b p.rexmit_timeout_factor

let r_rla_params r =
  let eta = Codec.r_f64 r in
  let group_rtt_factor = Codec.r_f64 r in
  let forced_cut_factor = Codec.r_f64 r in
  let rtt_scaling = r_rtt_scaling r in
  let trouble_counting = r_trouble_counting r in
  let rexmit_thresh = Codec.r_int r in
  let awnd_weight = Codec.r_f64 r in
  let interval_ewma_weight = Codec.r_f64 r in
  let srtt_weight = Codec.r_f64 r in
  let dupthresh = Codec.r_int r in
  let init_cwnd = Codec.r_f64 r in
  let init_ssthresh = Codec.r_f64 r in
  let max_burst = Codec.r_int r in
  let rcv_buffer = Codec.r_int r in
  let data_size = Codec.r_int r in
  let min_rto = Codec.r_f64 r in
  let ack_jitter = Codec.r_f64 r in
  let rexmit_timeout_factor = Codec.r_f64 r in
  {
    Rla.Params.eta;
    group_rtt_factor;
    forced_cut_factor;
    rtt_scaling;
    trouble_counting;
    rexmit_thresh;
    awnd_weight;
    interval_ewma_weight;
    srtt_weight;
    dupthresh;
    init_cwnd;
    init_ssthresh;
    max_burst;
    rcv_buffer;
    data_size;
    min_rto;
    ack_jitter;
    rexmit_timeout_factor;
  }

let w_config b (c : Experiments.Sharing.config) =
  w_gateway b c.Experiments.Sharing.gateway;
  w_case b c.case;
  Codec.w_f64 b c.duration;
  Codec.w_f64 b c.warmup;
  Codec.w_int b c.seed;
  w_rla_params b c.rla_params;
  Codec.w_f64 b c.share;
  Codec.w_option Codec.w_bool b c.phase_jitter;
  Codec.w_bool b c.ecn

let r_config r =
  let gateway = r_gateway r in
  let case = r_case r in
  let duration = Codec.r_f64 r in
  let warmup = Codec.r_f64 r in
  let seed = Codec.r_int r in
  let rla_params = r_rla_params r in
  let share = Codec.r_f64 r in
  let phase_jitter = Codec.r_option Codec.r_bool r in
  let ecn = Codec.r_bool r in
  {
    Experiments.Sharing.gateway;
    case;
    duration;
    warmup;
    seed;
    rla_params;
    share;
    phase_jitter;
    ecn;
  }

(* --- digest --------------------------------------------------------- *)

(* A fingerprint of the session at the current clock, read through the
   components' passive accessors: the scheduler's clock, event count
   and pending count, and the RLA and per-TCP measurement snapshots.
   Floats enter as their IEEE-754 bits, so equal digests mean
   bit-identical values. *)
let w_rla_snapshot b (s : Rla.Sender.snapshot) =
  Codec.w_f64 b s.Rla.Sender.time;
  Codec.w_int b s.delivered;
  Codec.w_f64 b s.throughput;
  Codec.w_f64 b s.send_rate;
  Codec.w_f64 b s.cwnd_now;
  Codec.w_f64 b s.cwnd_avg;
  Codec.w_f64 b s.rtt_avg;
  Codec.w_f64 b s.rtt_all_avg;
  Codec.w_int b s.congestion_signals;
  Codec.w_int b s.window_cuts;
  Codec.w_int b s.forced_cuts;
  Codec.w_int b s.timeouts;
  Codec.w_int b s.rexmits;
  Codec.w_list (Codec.w_pair Codec.w_int Codec.w_int) b s.signals_per_receiver

let w_tcp_snapshot b (s : Tcp.Sender.snapshot) =
  Codec.w_f64 b s.Tcp.Sender.time;
  Codec.w_int b s.delivered;
  Codec.w_int b s.sent_new;
  Codec.w_int b s.retransmits;
  Codec.w_int b s.window_cuts;
  Codec.w_int b s.timeouts;
  Codec.w_f64 b s.cwnd_now;
  Codec.w_f64 b s.cwnd_avg;
  Codec.w_f64 b s.rtt_avg;
  Codec.w_f64 b s.throughput;
  Codec.w_f64 b s.send_rate

let digest (session : Experiments.Sharing.session) =
  let sched = Net.Network.scheduler session.net in
  let b = Buffer.create 4096 in
  Codec.w_f64 b (Sim.Scheduler.now sched);
  Codec.w_int b (Sim.Scheduler.events_fired sched);
  Codec.w_int b (Sim.Scheduler.pending sched);
  w_rla_snapshot b (Rla.Sender.snapshot session.rla);
  List.iter
    (fun (leaf, tcp) ->
      Codec.w_int b leaf;
      w_tcp_snapshot b (Tcp.Sender.snapshot tcp))
    session.tcps;
  Digest.string (Buffer.contents b)

(* --- file ----------------------------------------------------------- *)

let payload_of f v =
  let b = Buffer.create 256 in
  f b v;
  Buffer.contents b

let require_section sections name =
  match List.find_opt (fun s -> String.equal s.Codec.name name) sections with
  | Some s -> Ok s
  | None -> Error (Codec.Malformed (Printf.sprintf "missing section %S" name))

let save ~path ~time ~config ~session ?registry ?journal () =
  let meta =
    {
      time;
      registry = Option.is_some registry;
      journal = Option.is_some journal;
    }
  in
  Codec.save_file ~path
    [
      { Codec.name = "meta"; payload = payload_of w_meta meta };
      { Codec.name = "config"; payload = payload_of w_config config };
      {
        Codec.name = "digest";
        payload = payload_of Codec.w_string (digest session);
      };
    ]

type error =
  | Codec_error of Codec.error
  | Bad_time of float
  | Bad_config of string
  | Digest_mismatch of { expected : string; actual : string }

let error_to_string = function
  | Codec_error e -> Codec.error_to_string e
  | Bad_time t ->
      Printf.sprintf "checkpoint time %g is outside the run it describes" t
  | Bad_config msg -> Printf.sprintf "checkpoint config rejected: %s" msg
  | Digest_mismatch { expected; actual } ->
      Printf.sprintf
        "replay reached a different state (digest %s, checkpoint says %s)"
        actual expected

type loaded = {
  config : Experiments.Sharing.config;
  session : Experiments.Sharing.session;
  registry : Obs.Registry.t option;
  journal : Journal.t option;
  time : float;
}

let read_meta sections =
  let ( let* ) = Result.bind in
  let* meta_s = require_section sections "meta" in
  let* config_s = require_section sections "config" in
  let* meta = Codec.parse_payload meta_s r_meta in
  let* config = Codec.parse_payload config_s r_config in
  Ok (meta, config)

let checkpoint_file ~dir ~prefix ~time =
  Filename.concat dir (Printf.sprintf "%s_t%010.3f.ckpt" prefix time)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* The one run loop every entry point shares: slice to [until] with the
   warm-up reset at its usual place.  [now <= warmup] (not [<]) so a
   run resumed exactly at the warm-up boundary still applies the reset;
   [warmup < until] (not [<=]) so a replay that stops there does not —
   the manager saves a boundary before the reset runs. *)
let advance ~config ~session ~run_to until =
  let net = session.Experiments.Sharing.net in
  if
    Net.Network.now net <= config.Experiments.Sharing.warmup
    && config.Experiments.Sharing.warmup < until
  then begin
    run_to config.Experiments.Sharing.warmup;
    Experiments.Sharing.start_measurement session
  end;
  run_to until

let attach journal registry =
  match (journal, registry) with
  | Some j, Some reg -> Journal.attach j reg
  | _ -> ()

let drive ~config ~session ~registry ~journal ~ckpt =
  let net = session.Experiments.Sharing.net in
  let run_to =
    match ckpt with
    | None -> Net.Network.run_until net
    | Some (every, dir, prefix) ->
        mkdir_p dir;
        let save_boundary ~time =
          save
            ~path:(checkpoint_file ~dir ~prefix ~time)
            ~time ~config ~session ?registry ?journal ()
        in
        let m = Manager.create ~every ~save:save_boundary in
        Manager.resume_from m (Net.Network.now net);
        fun until -> Manager.run m ~net ~until
  in
  advance ~config ~session ~run_to config.Experiments.Sharing.duration;
  Experiments.Sharing.measure session config

(* Rebuild the run exactly as [run_with_checkpoints] built it — fresh
   registry, journal attached after setup — and drive it to [time]. *)
let replay (meta : meta) config =
  let registry =
    if meta.registry then Some (Obs.Registry.create ()) else None
  in
  let journal = if meta.journal then Some (Journal.create ()) else None in
  let session = Experiments.Sharing.setup ?registry config in
  attach journal registry;
  let net = session.Experiments.Sharing.net in
  advance ~config ~session ~run_to:(Net.Network.run_until net) meta.time;
  { config; session; registry; journal; time = meta.time }

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let load ~path =
  let ( let* ) = Result.bind in
  let as_codec r = Result.map_error (fun e -> Codec_error e) r in
  let* sections = as_codec (Codec.load_file ~path) in
  let* meta, config = as_codec (read_meta sections) in
  let* expected =
    as_codec
      (Result.bind (require_section sections "digest") (fun s ->
           Codec.parse_payload s Codec.r_string))
  in
  let time = meta.time in
  if
    not
      (Float.is_finite time && time >= 0.0
      && time <= config.Experiments.Sharing.duration)
  then Error (Bad_time time)
  else
    match replay meta config with
    | exception (Invalid_argument msg | Failure msg) -> Error (Bad_config msg)
    | loaded ->
        let actual = digest loaded.session in
        if String.equal actual expected then Ok loaded
        else
          Error
            (Digest_mismatch { expected = hex expected; actual = hex actual })

let run_with_checkpoints ?registry ?journal ~every ~dir ~prefix config =
  let session = Experiments.Sharing.setup ?registry config in
  attach journal registry;
  drive ~config ~session ~registry ~journal ~ckpt:(Some (every, dir, prefix))

let resume_run ?every ?dir ?prefix loaded =
  let ckpt =
    match (every, dir) with
    | Some every, Some dir ->
        Some (every, dir, Option.value prefix ~default:"resume")
    | _ -> None
  in
  drive ~config:loaded.config ~session:loaded.session
    ~registry:loaded.registry ~journal:loaded.journal ~ckpt
