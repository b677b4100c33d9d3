(* Exercises the exported accessors and small helpers that the main
   suites do not reach: every [val] here is part of the public
   performance or tooling contract (checkpoint sections, CSV exporters,
   debug printers, model variants), and rla_lint's unused-export rule
   runs with --strict under make ci, so each one needs a real caller
   or an explicit waiver.  These tests are the callers. *)

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(tol = 1e-6) msg expected got =
  Alcotest.(check (float tol)) msg expected got

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_welford_stddev () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_close "stddev = sqrt variance"
    (sqrt (Stats.Welford.variance w))
    (Stats.Welford.stddev w);
  check_float "empty stddev" 0.0 (Stats.Welford.stddev (Stats.Welford.create ()))

let test_density_cells () =
  let d =
    Stats.Density.create ~x_lo:0.0 ~x_hi:10.0 ~y_lo:0.0 ~y_hi:10.0 ~cells:5
  in
  Alcotest.(check int) "cells" 5 (Stats.Density.cells d);
  let cx, cy = Stats.Density.cell_center d 0 0 in
  check_float "first center x" 1.0 cx;
  check_float "first center y" 1.0 cy;
  let cx, cy = Stats.Density.cell_center d 4 4 in
  check_float "last center x" 9.0 cx;
  check_float "last center y" 9.0 cy

let test_histogram_bins () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:4 in
  Stats.Histogram.add h 1.0;
  Stats.Histogram.add h 6.0;
  Stats.Histogram.add h 6.2;
  Alcotest.(check int) "bins" 4 (Stats.Histogram.bins h);
  let l = Stats.Histogram.to_list h in
  Alcotest.(check int) "one pair per bin" 4 (List.length l);
  Alcotest.(check int) "counts recoverable" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 l);
  let rendered = Format.asprintf "%a" Stats.Histogram.pp h in
  Alcotest.(check bool) "pp renders bars" true (String.length rendered > 0)

let test_quantile_count () =
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "count" 3 (Stats.Quantile.count q);
  check_float "median" 2.0 (Stats.Quantile.median q)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_of_state_and_bool () =
  let r = Sim.Rng.create 42 in
  ignore (Sim.Rng.bits64 r);
  let resumed = Sim.Rng.of_state (Sim.Rng.state r) in
  Alcotest.(check bool) "of_state resumes the stream" true
    (Int64.equal (Sim.Rng.bits64 resumed) (Sim.Rng.bits64 r));
  let b1 = Sim.Rng.bool (Sim.Rng.create 7) in
  let b2 = Sim.Rng.bool (Sim.Rng.create 7) in
  Alcotest.(check bool) "bool is deterministic per seed" b1 b2

let test_scheduler_step () =
  let s = Sim.Scheduler.create () in
  Alcotest.(check bool) "empty queue is Done" true
    (Sim.Scheduler.step s infinity = `Done);
  let hits = ref 0 in
  let id = Sim.Scheduler.schedule_at s 1.0 (fun () -> incr hits) in
  ignore (Sim.Scheduler.schedule_at s 2.0 (fun () -> incr hits));
  Alcotest.(check bool) "beyond horizon is Done" true
    (Sim.Scheduler.step s 0.5 = `Done);
  Alcotest.(check bool) "first event fires" true
    (Sim.Scheduler.step s 10.0 = `Fired);
  Alcotest.(check int) "closure ran" 1 !hits;
  check_float "clock follows the event" 1.0 (Sim.Scheduler.now s);
  Sim.Scheduler.cancel s id;
  (* id already fired: cancel is a no-op, second event still fires *)
  Alcotest.(check bool) "second event fires" true
    (Sim.Scheduler.step s 10.0 = `Fired);
  let id3 = Sim.Scheduler.schedule_at s 3.0 (fun () -> incr hits) in
  Sim.Scheduler.cancel s id3;
  Alcotest.(check bool) "cancelled entry is Skipped" true
    (Sim.Scheduler.step s 10.0 = `Skipped)

(* ------------------------------------------------------------------ *)
(* Net                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_accessors () =
  let r = Net.Ring.create ~dummy:(-1) in
  Alcotest.(check bool) "fresh ring is empty" true (Net.Ring.is_empty r);
  Alcotest.(check (option int)) "peek empty" None (Net.Ring.peek r);
  Net.Ring.push r 1;
  Net.Ring.push r 2;
  Net.Ring.push r 3;
  Alcotest.(check bool) "non-empty" false (Net.Ring.is_empty r);
  Alcotest.(check (option int)) "peek is the front" (Some 1) (Net.Ring.peek r);
  let seen = ref [] in
  Net.Ring.iter r ~f:(fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter front to back" [ 1; 2; 3 ]
    (List.rev !seen);
  Net.Ring.clear r;
  Alcotest.(check bool) "cleared" true (Net.Ring.is_empty r);
  Alcotest.(check int) "cleared length" 0 (Net.Ring.length r)

let link_config ?(capacity = 20) ?(bw = 8e6) ?(delay = 0.01) () =
  {
    Net.Link.bandwidth_bps = bw;
    prop_delay = delay;
    queue = Net.Queue_disc.Droptail;
    capacity;
    phase_jitter = false;
  }

let test_topo_neighbors_degrees () =
  let t =
    Net.Topo.of_edges ~n:4
      [ (0, 1, link_config ()); (0, 2, link_config ()); (2, 3, link_config ()) ]
  in
  let nbrs = Net.Topo.neighbors t in
  let deg = Net.Topo.degrees t in
  Alcotest.(check int) "one adjacency row per node" 4 (Array.length nbrs);
  Alcotest.(check (list int)) "hub row" [ 1; 2 ] (List.sort compare nbrs.(0));
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "degree %d matches row" i)
        (List.length row) deg.(i))
    nbrs

let test_link_avg_queue () =
  let sched = Sim.Scheduler.create () in
  let make config =
    Net.Link.create ~sched
      ~rng:(Sim.Rng.create 1)
      ~pool:(Net.Packet.Pool.create ())
      ~id:"l" config
      ~deliver:(fun _ -> ())
  in
  let red =
    { (link_config ()) with
      Net.Link.queue =
        Net.Queue_disc.Red_gateway (Net.Red.default_params ~mean_pkt_time:0.001)
    }
  in
  check_float "idle RED link has empty average" 0.0
    (Net.Link.avg_queue (make red));
  Alcotest.(check bool) "drop-tail has no estimate" true
    (Float.is_nan (Net.Link.avg_queue (make (link_config ()))))

let test_network_rng_and_trace () =
  let net = Net.Network.create ~seed:1 () in
  let draw = Sim.Rng.uniform (Net.Network.rng net) in
  Alcotest.(check bool) "network rng draws in [0,1)" true
    (draw >= 0.0 && draw < 1.0);
  let tr = Net.Network.trace net in
  (* No sink installed yet: emits are disabled and dropped. *)
  Alcotest.(check bool) "trace starts with no sink" false (Sim.Trace.enabled tr);
  let sink, dump = Sim.Trace.memory_sink () in
  Sim.Trace.set_sink tr sink;
  Sim.Trace.emit tr ~time:0.0 ~level:Sim.Trace.Info ~component:"test" "hello";
  Alcotest.(check int) "network trace reaches the sink" 1 (List.length (dump ()))

(* ------------------------------------------------------------------ *)
(* Tcp                                                                *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_wire_block_to_string () =
  let s = Tcp.Wire.block_to_string { Tcp.Wire.block_lo = 3; block_hi = 7 } in
  Alcotest.(check bool) "mentions both bounds" true
    (contains ~sub:"3" s && contains ~sub:"7" s)

let build_pair ?(seed = 1) () =
  let net = Net.Network.create ~seed () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net a b (link_config ~capacity:20 ~bw:8e6 ()));
  Net.Network.install_routes net;
  (net, a, b)

let test_tcp_sender_accessors () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  check_float "initial ssthresh" 64.0 (Tcp.Sender.ssthresh tcp);
  Alcotest.(check bool) "starts outside recovery" false
    (Tcp.Sender.in_recovery tcp);
  Net.Network.run_until net 5.0;
  Alcotest.(check bool) "avg cwnd accumulates" true
    (Tcp.Sender.avg_cwnd tcp > 0.0)

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let test_tcp_model_variants () =
  Alcotest.(check bool) "moderate congestion limit" true
    (Analysis.Tcp_model.moderate_congestion_limit = 0.05);
  Alcotest.(check bool) "default eps" true
    (Analysis.Tcp_model.default_domain_eps = 1e-9);
  (match Analysis.Tcp_model.pa_window_result 0.01 with
  | Ok w -> check_close "result agrees with pa_window"
      (Analysis.Tcp_model.pa_window 0.01) w
  | Error _ -> Alcotest.fail "p = 0.01 is in the domain");
  (match Analysis.Tcp_model.pa_window_result 0.0 with
  | Error Analysis.Tcp_model.Below_domain -> ()
  | _ -> Alcotest.fail "p = 0 must be Below_domain");
  (match Analysis.Tcp_model.pa_window_result 1.0 with
  | Error Analysis.Tcp_model.Above_domain -> ()
  | _ -> Alcotest.fail "p = 1 must be Above_domain");
  (match Analysis.Tcp_model.pa_window_result nan with
  | Error e ->
      Alcotest.(check bool) "error strings are distinct" true
        (Analysis.Tcp_model.domain_error_to_string e
        <> Analysis.Tcp_model.domain_error_to_string
             Analysis.Tcp_model.Below_domain)
  | Ok _ -> Alcotest.fail "NaN must be rejected");
  (* window_rate is zero exactly at the PA window. *)
  let p = 0.02 in
  let w = Analysis.Tcp_model.pa_window p in
  check_close ~tol:1e-9 "window_rate zero at PA window" 0.0
    (Analysis.Tcp_model.window_rate ~p ~rtt:0.1 w)

let test_rla_model_drift_and_common_sim () =
  let ps = Array.make 4 0.02 in
  let w = Analysis.Rla_model.pa_window_independent ~ps in
  check_close ~tol:1e-6 "drift zero at PA window" 0.0
    (Analysis.Rla_model.drift_independent ~ps w);
  Alcotest.(check bool) "drift positive below the PA window" true
    (Analysis.Rla_model.drift_independent ~ps (w /. 2.0) > 0.0);
  let n = 4 and p = 0.05 in
  let sim =
    Analysis.Rla_model.simulate_window_common ~rng:(Sim.Rng.create 11) ~n ~p
      ~steps:200_000
  in
  let predicted = Analysis.Rla_model.pa_window_common ~n ~p in
  Alcotest.(check bool)
    (Printf.sprintf "monte-carlo %.2f near drift zero %.2f" sim predicted)
    true
    (Float.abs (sim -. predicted) /. predicted < 0.25)

(* ------------------------------------------------------------------ *)
(* Core (RLA)                                                         *)
(* ------------------------------------------------------------------ *)

let star ?(leaves = 3) () =
  let net = Net.Network.create ~seed:1 () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaf_ids =
    List.init leaves (fun _ -> Net.Node.id (Net.Network.add_node net))
  in
  ignore (Net.Network.duplex net s hub (link_config ~bw:64e6 ()));
  List.iter
    (fun leaf -> ignore (Net.Network.duplex net hub leaf (link_config ())))
    leaf_ids;
  Net.Network.install_routes net;
  (net, s, leaf_ids)

let test_rla_sender_accessors () =
  let net, s, leaves = star () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Alcotest.(check bool) "group is a fresh multicast id" true
    (Rla.Sender.group rla >= 0);
  Alcotest.(check bool) "awnd starts at a sane window" true
    (Rla.Sender.awnd rla >= 1.0);
  Net.Network.run_until net 5.0;
  Alcotest.(check bool) "awnd stays positive" true (Rla.Sender.awnd rla > 0.0)

let test_rcv_state_last_signal () =
  let r =
    Rla.Rcv_state.create ~addr:1 ~params:Rla.Params.default ~session_start:0.0
      ()
  in
  let t0 = Rla.Rcv_state.last_signal r in
  Alcotest.(check bool) "no signal after creation" true (t0 <= 0.0)

(* ------------------------------------------------------------------ *)
(* Baselines                                                          *)
(* ------------------------------------------------------------------ *)

let test_rate_sender_accessors () =
  let net, s, leaves = star () in
  let ltrc = Baselines.Ltrc.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 10.0;
  Alcotest.(check bool) "flow id allocated" true
    (Baselines.Rate_sender.flow ltrc >= 0);
  Alcotest.(check bool) "avg rate accumulated" true
    (Baselines.Rate_sender.avg_rate ltrc > 0.0);
  let eps = Baselines.Rate_sender.endpoints ltrc in
  Alcotest.(check (list int)) "one endpoint per leaf, at the leaf" leaves
    (List.sort compare (List.map Baselines.Report_receiver.node_id eps))

let test_policy_constructors () =
  (match Baselines.Ltrc.policy ~loss_threshold:0.1 () with
  | Baselines.Rate_sender.Ltrc { loss_threshold; _ } ->
      check_float "ltrc threshold" 0.1 loss_threshold
  | _ -> Alcotest.fail "Ltrc.policy must build an Ltrc policy");
  (match Baselines.Rl_rate.policy () with
  | Baselines.Rate_sender.Random_listening { refractory; _ } ->
      check_float "rl default refractory" 1.0 refractory
  | _ -> Alcotest.fail "Rl_rate.policy must build Random_listening");
  let cfg =
    Baselines.Rate_sender.default_config (Baselines.Rl_rate.policy ())
  in
  Alcotest.(check bool) "default config rates ordered" true
    (cfg.Baselines.Rate_sender.min_rate <= cfg.Baselines.Rate_sender.max_rate)

(* ------------------------------------------------------------------ *)
(* Ckpt                                                               *)
(* ------------------------------------------------------------------ *)

let test_sharing_ckpt_sections () =
  let names = Ckpt.Sharing_ckpt.section_names in
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "section %s listed" required)
        true
        (List.mem required names))
    [ "meta"; "config"; "digest" ];
  Alcotest.(check int) "nothing else" 3 (List.length names)

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

let test_churn_defaults () =
  let g = Experiments.Churn.default_gen in
  Alcotest.(check bool) "default gen rates positive" true
    (g.Experiments.Churn.outage_rate > 0.0
    && g.Experiments.Churn.churn_rate > 0.0
    && g.Experiments.Churn.flow_rate > 0.0);
  let c =
    Experiments.Churn.default_config ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all
  in
  Alcotest.(check bool) "default config uses the default script" true
    (c.Experiments.Churn.faults = Experiments.Churn.Default_script)

let test_sharded_topo_shape () =
  let cfg =
    { Experiments.Scaling.default_sharded_config with fanout = 2; depth = 2 }
  in
  let t = Experiments.Scaling.sharded_topo cfg in
  let deg = Net.Topo.degrees t in
  let nbrs = Net.Topo.neighbors t in
  Alcotest.(check bool) "non-trivial tree" true (Net.Topo.node_count t > 3);
  (* A topology is consistent when every degree matches its row. *)
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "node %d degree" i)
        (List.length row) deg.(i))
    nbrs

let test_short_flows_background_name () =
  let names =
    List.map Experiments.Short_flows.background_name
      [
        Experiments.Short_flows.Bg_none;
        Experiments.Short_flows.Bg_tcp;
        Experiments.Short_flows.Bg_rla;
        Experiments.Short_flows.Bg_cbr 500.0;
      ]
  in
  Alcotest.(check int) "distinct names" 4
    (List.length (List.sort_uniq compare names))

let test_timeseries_times () =
  let net = Net.Network.create ~seed:1 () in
  let ts =
    Experiments.Timeseries.create ~net ~interval:0.5
      ~probes:
        [ { Experiments.Timeseries.name = "now";
            read = (fun () -> Net.Network.now net) } ]
  in
  Net.Network.run_until net 2.0;
  let times = Experiments.Timeseries.times ts in
  Alcotest.(check int) "one timestamp per sample" (Experiments.Timeseries.length ts)
    (Array.length times);
  Alcotest.(check bool) "timestamps ascend" true
    (Array.for_all2 (fun a b -> a <= b) (Array.sub times 0 (Array.length times - 1))
       (Array.sub times 1 (Array.length times - 1)))

(* ------------------------------------------------------------------ *)
(* Adversary                                                          *)
(* ------------------------------------------------------------------ *)

let test_flood_accessors () =
  let net, a, b = build_pair () in
  let f = Tcp.Wire.rwnd_field_bits in
  Alcotest.(check bool) "rwnd field is a sane width" true (f > 0 && f < 16);
  let fl = Adversary.Flood.create ~net ~src:a ~dst:b ~rate:200.0 () in
  Alcotest.(check bool) "flow allocated" true (Adversary.Flood.flow fl >= 0);
  check_float "configured rate" 200.0 (Adversary.Flood.rate fl);
  Net.Network.run_until net 5.0;
  Adversary.Flood.stop fl;
  Net.Network.run_until net 6.0;
  let sent = Adversary.Flood.sent fl in
  Alcotest.(check bool)
    (Printf.sprintf "blasted at the configured rate (%d)" sent)
    true
    (sent >= 900 && sent <= 1100);
  Alcotest.(check bool) "deliveries counted at the sink" true
    (Adversary.Flood.delivered fl > 0 && Adversary.Flood.delivered fl <= sent);
  let frozen = Adversary.Flood.sent fl in
  Net.Network.run_until net 8.0;
  Alcotest.(check int) "stop freezes the blast" frozen
    (Adversary.Flood.sent fl)

let test_ackdiv_accessors () =
  let net, a, b = build_pair () in
  let d = Adversary.Ackdiv.create ~net ~src:a ~dst:b () in
  Alcotest.(check bool) "flow allocated" true (Adversary.Ackdiv.flow d >= 0);
  Net.Network.run_until net 10.0;
  Alcotest.(check bool) "window opened past slow start" true
    (Adversary.Ackdiv.cwnd d > 1.0);
  let sent = Adversary.Ackdiv.sent d in
  let delivered = Adversary.Ackdiv.delivered d in
  Alcotest.(check bool) "progress made" true (sent > 0 && delivered > 0);
  Alcotest.(check bool) "split acks: several per delivered packet" true
    (Adversary.Ackdiv.acks_sent d >= 2 * delivered);
  Alcotest.(check bool) "acks flowed back" true
    (Adversary.Ackdiv.acks_received d > 0);
  (* The inflated window overruns the 20-packet queue, so go-back-N
     timeouts do fire — they just must stay rare next to the sends. *)
  Alcotest.(check bool) "timeouts rare next to sends" true
    (Adversary.Ackdiv.timeouts d * 10 < sent);
  Adversary.Ackdiv.stop d;
  Net.Network.run_until net 11.0;
  let frozen = Adversary.Ackdiv.sent d in
  Net.Network.run_until net 13.0;
  Alcotest.(check int) "stop freezes the sender" frozen
    (Adversary.Ackdiv.sent d)

let test_optack_accessors () =
  let net, a, b = build_pair () in
  let flow = Net.Network.fresh_flow net in
  let opt = Adversary.Optack.hijack ~net ~node:b ~flow ~peer:a () in
  let send seq =
    Net.Network.send net
      (Net.Network.make_packet net ~flow ~src:a ~dst:(Net.Packet.Unicast b)
         ~size:1000
         ~payload:(Tcp.Wire.Tcp_data { seq; sent_at = Net.Network.now net }))
  in
  (* A gap at 1: the optimistic acker claims past it anyway. *)
  send 0;
  send 2;
  Net.Network.run_until net 1.0;
  Alcotest.(check int) "both arrivals counted" 2 (Adversary.Optack.received opt);
  Alcotest.(check int) "one ack per arrival" 2 (Adversary.Optack.acks_sent opt);
  Alcotest.(check int) "claims max_seen + 1, concealing the hole" 3
    (Adversary.Optack.claimed opt)

let test_hostile_names_and_job () =
  List.iter
    (fun mix ->
      let name = Experiments.Hostile.mix_name mix in
      Alcotest.(check bool)
        (Printf.sprintf "mix name %s round-trips" name)
        true
        (Experiments.Hostile.mix_of_string name = Some mix))
    Experiments.Hostile.all_mixes;
  Alcotest.(check bool) "unknown mix rejected" true
    (Experiments.Hostile.mix_of_string "nonsense" = None);
  let cfg =
    {
      (Experiments.Hostile.default_config ~mix:Experiments.Hostile.Honest) with
      Experiments.Hostile.topology =
        Experiments.Hostile.Kary { fanout = 2; depth = 2 };
      duration = 20.0;
      warmup = 5.0;
    }
  in
  Alcotest.(check bool) "topology name mentions the shape" true
    (contains ~sub:"2"
       (Experiments.Hostile.topology_name cfg.Experiments.Hostile.topology));
  let job = Experiments.Hostile.job ~label:"api" cfg in
  Alcotest.(check string) "job keeps its label" "api" (Runner.Job.label job);
  match Runner.Job.run job with
  | Some _net, by_job ->
      (* run_with_net exposes the network the pool's metric reads. *)
      let net, direct = Experiments.Hostile.run_with_net cfg in
      Alcotest.(check bool) "network ran to the horizon" true
        (Net.Network.now net >= 20.0);
      Alcotest.(check bool) "job and direct runs agree" true (by_job = direct);
      (* The blind injector's data counter (the rst mix covers the RST
         path): two spoofed segments, counted as sent. *)
      let inj = Adversary.Blind.create ~net ~src:0 () in
      let flow = Net.Network.fresh_flow net in
      Adversary.Blind.data inj ~flow ~dst:1 ~seq:1_000;
      Adversary.Blind.data inj ~flow ~dst:1 ~seq:2_000;
      Alcotest.(check int) "spoofed data counted" 2
        (Adversary.Blind.data_sent inj)
  | None, _ -> Alcotest.fail "hostile job must carry its network"

(* ------------------------------------------------------------------ *)
(* Faults                                                             *)
(* ------------------------------------------------------------------ *)

let test_timeline_merge_and_pp () =
  let a = Faults.Timeline.scripted [ (1.0, Faults.Timeline.Receiver_leave 1) ] in
  let b =
    Faults.Timeline.scripted
      [ (0.5, Faults.Timeline.Link_down (0, 1));
        (2.0, Faults.Timeline.Receiver_join 1) ]
  in
  let m = Faults.Timeline.merge a b in
  Alcotest.(check int) "merge keeps every entry" 3 (Faults.Timeline.length m);
  (match Faults.Timeline.entries m with
  | first :: _ -> check_float "merge sorts by time" 0.5 first.Faults.Timeline.time
  | [] -> Alcotest.fail "merge lost all entries");
  let entry = List.hd (Faults.Timeline.entries m) in
  let s1 = Format.asprintf "%a" Faults.Timeline.pp_entry entry in
  let s2 = Format.asprintf "%a" Faults.Timeline.pp_event entry.Faults.Timeline.event in
  Alcotest.(check bool) "pp_entry embeds pp_event" true
    (String.length s1 > String.length s2 && contains ~sub:s2 s1)

let test_injector_null_handlers_and_timeline () =
  let h = Faults.Injector.null_handlers in
  Alcotest.(check bool) "leave refused" false (h.Faults.Injector.on_receiver_leave 1);
  Alcotest.(check bool) "join refused" false (h.Faults.Injector.on_receiver_join 1);
  Alcotest.(check bool) "flow start refused" false
    (h.Faults.Injector.on_flow_start ~id:1 ~dst:2);
  Alcotest.(check bool) "flow stop refused" false (h.Faults.Injector.on_flow_stop ~id:1);
  Alcotest.(check int) "no members" 0 (h.Faults.Injector.membership ());
  let net, _, _ = build_pair () in
  let tl = Faults.Timeline.scripted [ (1.0, Faults.Timeline.Link_down (0, 1)) ] in
  let inj = Faults.Injector.install ~net tl in
  Alcotest.(check bool) "installed timeline is retrievable" true
    (Faults.Timeline.entries (Faults.Injector.timeline inj)
    = Faults.Timeline.entries tl)

(* ------------------------------------------------------------------ *)
(* Meanfield                                                          *)
(* ------------------------------------------------------------------ *)

let test_dist_center () =
  check_float "bin center" 1.75 (Meanfield.Dist.center ~h:0.5 3);
  check_float "first bin center" 0.25 (Meanfield.Dist.center ~h:0.5 0)

let test_params_accessors () =
  let p =
    Meanfield.Params.make ~capacity:1000.0
      ~rla:{ Meanfield.Params.receivers = 8; rtt = 0.2 }
      [ { Meanfield.Params.flows = 4; rtt = 0.1 } ]
  in
  Alcotest.(check int) "total flows count the RLA session" 5
    (Meanfield.Params.total_flows p);
  check_float "min rtt" 0.1 (Meanfield.Params.min_rtt p);
  check_float "max rtt" 0.2 (Meanfield.Params.max_rtt p);
  check_float "default RED min_th" 5.0 Meanfield.Params.default_red.Meanfield.Params.min_th

let test_regime_default_axes () =
  Alcotest.(check bool) "grid covers the default axes" true
    (List.length (Meanfield.Regime.default_grid ())
    = List.length Meanfield.Regime.default_w_qs
      * List.length Meanfield.Regime.default_max_ps
      * List.length Meanfield.Regime.default_ns)

let test_trajectory_accessors () =
  let t = Meanfield.Trajectory.create () in
  Meanfield.Trajectory.push t ~time:0.0 ~queue:1.0 ~avg:0.5 ~drop:0.01
    ~lambda:100.0 ~rla_w:4.0;
  Meanfield.Trajectory.push t ~time:1.0 ~queue:2.0 ~avg:1.5 ~drop:0.02
    ~lambda:120.0 ~rla_w:5.0;
  check_float "queue sample" 2.0 (Meanfield.Trajectory.queue t 1);
  check_float "avg sample" 1.5 (Meanfield.Trajectory.avg t 1);
  check_float "drop sample" 0.01 (Meanfield.Trajectory.drop t 0);
  let csv = Format.asprintf "%a" Meanfield.Trajectory.pp_csv t in
  Alcotest.(check bool) "csv has a header and two rows" true
    (List.length (String.split_on_char '\n' (String.trim csv)) = 3)

(* ------------------------------------------------------------------ *)
(* Obs / Par / Runner                                                 *)
(* ------------------------------------------------------------------ *)

let test_registry_gauge_name () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "queue.depth" in
  Alcotest.(check string) "gauge keeps its name" "queue.depth"
    (Obs.Registry.gauge_name g)

let test_engine_now () =
  let t =
    Net.Topo.of_edges ~n:2 [ (0, 1, link_config ~bw:8e6 ~delay:0.1 ()) ]
  in
  let partition = Par.Partition.kruskal t ~parts:2 in
  match Par.Engine.create ~topo:t ~partition ~seed:1 () with
  | Error _ -> Alcotest.fail "two-shard engine must build"
  | Ok eng ->
      check_float "fresh engine at time zero" 0.0 (Par.Engine.now eng)

let test_runner_pps () =
  let json =
    Runner.Json.Obj [ ("a", Runner.Json.Int 1); ("b", Runner.Json.Bool true) ]
  in
  Alcotest.(check string) "Json.pp matches to_string"
    (Runner.Json.to_string json)
    (Format.asprintf "%a" Runner.Json.pp json);
  let rendered = Format.asprintf "%a" Runner.Metrics.pp Runner.Metrics.zero in
  Alcotest.(check bool) "Metrics.pp renders the zero record" true
    (String.length rendered > 0)

let test_report_series_csv () =
  let r = Obs.Registry.create () in
  let s = Obs.Registry.series r "cwnd" in
  Obs.Series.add s ~time:0.0 1.0;
  Obs.Series.add s ~time:1.0 2.0;
  let csv = Format.asprintf "%a" Runner.Report.series_csv [ s ] in
  Alcotest.(check bool) "one row per sample" true
    (contains ~sub:"cwnd,0" csv && contains ~sub:"cwnd,1" csv)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "api_surface"
    [
      ( "stats",
        [
          Alcotest.test_case "welford stddev" `Quick test_welford_stddev;
          Alcotest.test_case "density cells" `Quick test_density_cells;
          Alcotest.test_case "histogram bins" `Quick test_histogram_bins;
          Alcotest.test_case "quantile count" `Quick test_quantile_count;
        ] );
      ( "sim",
        [
          Alcotest.test_case "rng of_state/bool" `Quick
            test_rng_of_state_and_bool;
          Alcotest.test_case "scheduler step" `Quick test_scheduler_step;
        ] );
      ( "net",
        [
          Alcotest.test_case "ring accessors" `Quick test_ring_accessors;
          Alcotest.test_case "topo neighbors/degrees" `Quick
            test_topo_neighbors_degrees;
          Alcotest.test_case "link avg_queue" `Quick test_link_avg_queue;
          Alcotest.test_case "network rng/trace" `Quick
            test_network_rng_and_trace;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "wire block_to_string" `Quick
            test_wire_block_to_string;
          Alcotest.test_case "sender accessors" `Quick
            test_tcp_sender_accessors;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "tcp model variants" `Quick
            test_tcp_model_variants;
          Alcotest.test_case "rla model drift/common sim" `Quick
            test_rla_model_drift_and_common_sim;
        ] );
      ( "core",
        [
          Alcotest.test_case "rla sender accessors" `Quick
            test_rla_sender_accessors;
          Alcotest.test_case "rcv_state last_signal" `Quick
            test_rcv_state_last_signal;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "rate sender accessors" `Quick
            test_rate_sender_accessors;
          Alcotest.test_case "policy constructors" `Quick
            test_policy_constructors;
        ] );
      ( "ckpt",
        [
          Alcotest.test_case "sharing sections" `Quick
            test_sharing_ckpt_sections;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "churn defaults" `Quick test_churn_defaults;
          Alcotest.test_case "sharded topo shape" `Quick
            test_sharded_topo_shape;
          Alcotest.test_case "short-flow background names" `Quick
            test_short_flows_background_name;
          Alcotest.test_case "timeseries times" `Quick test_timeseries_times;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "flood accessors" `Quick test_flood_accessors;
          Alcotest.test_case "ackdiv accessors" `Quick test_ackdiv_accessors;
          Alcotest.test_case "optack accessors" `Quick test_optack_accessors;
          Alcotest.test_case "hostile names and job" `Quick
            test_hostile_names_and_job;
        ] );
      ( "faults",
        [
          Alcotest.test_case "timeline merge/pp" `Quick
            test_timeline_merge_and_pp;
          Alcotest.test_case "injector null handlers" `Quick
            test_injector_null_handlers_and_timeline;
        ] );
      ( "meanfield",
        [
          Alcotest.test_case "dist center" `Quick test_dist_center;
          Alcotest.test_case "params accessors" `Quick test_params_accessors;
          Alcotest.test_case "regime default axes" `Quick
            test_regime_default_axes;
          Alcotest.test_case "trajectory accessors" `Quick
            test_trajectory_accessors;
        ] );
      ( "obs-par-runner",
        [
          Alcotest.test_case "registry gauge_name" `Quick
            test_registry_gauge_name;
          Alcotest.test_case "engine now" `Quick test_engine_now;
          Alcotest.test_case "runner pps" `Quick test_runner_pps;
          Alcotest.test_case "report series_csv" `Quick
            test_report_series_csv;
        ] );
    ]
