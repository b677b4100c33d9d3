(* Per-operation costs of the layers' public calls (bechamel), the RLA
   per-ack cost on loss-free stars, and the sharded k-ary probe that
   measures the [par] layer.  The traced run multiplies these costs by
   the workload's layer counts. *)

module J = Runner.Json

let cpu = Workload.cpu

(* Bechamel time quota per microbench, and the seed of the k-ary
   probe, whose fairness table expected.json records. *)
let quota = 0.3
let probe_seed = 1

(* Bechamel OLS estimate (ns per call) of each staged function. *)
let estimate tests =
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"perfbench"
      (List.map (fun (name, f) -> Test.make ~name f) tests)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  List.map
    (fun (name, _) ->
      let key = "perfbench/" ^ name in
      match Analyze.OLS.estimates (Hashtbl.find results key) with
      | Some [ ns ] -> (name, ns)
      | _ -> failwith ("no estimate for " ^ name))
    tests

(* Hold model at a fixed depth: pop the minimum, push it back a
   random increment later, as the scheduler does per event. *)
let heap_add_pop ~depth =
  let rng = Sim.Rng.create 7 in
  let incs = Array.init 4096 (fun _ -> Sim.Rng.exponential rng 1.0) in
  let h = Sim.Heap.create () in
  for i = 0 to depth - 1 do
    Sim.Heap.add h ~prio:incs.(i land 4095) i
  done;
  let k = ref 0 in
  Bechamel.Staged.stage (fun () ->
      let p = Sim.Heap.top_prio h in
      let v = Sim.Heap.pop_top h in
      incr k;
      Sim.Heap.add h ~prio:(p +. incs.(!k land 4095)) v)

(* One packet through a link: offer, serialization event, delivery
   event, release at the far end. *)
let link_hop () =
  let sched = Sim.Scheduler.create () in
  let pool = Net.Packet.Pool.create () in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 3) ~pool ~id:"bench"
      {
        Net.Link.bandwidth_bps = 100e6;
        prop_delay = 0.001;
        queue = Net.Queue_disc.Droptail;
        capacity = 1_000_000;
        phase_jitter = false;
      }
      ~deliver:(fun p -> Net.Packet.Pool.release pool p)
  in
  let uid = ref 0 in
  fun () ->
    incr uid;
    let p =
      Net.Packet.Pool.acquire pool ~uid:!uid ~flow:0 ~src:0
        ~dst:(Net.Packet.Unicast 1) ~size:1000 ~payload:Net.Packet.Raw
        ~born:(Sim.Scheduler.now sched)
    in
    Net.Link.send link p;
    Sim.Scheduler.run_until sched (Sim.Scheduler.now sched +. 0.01)

let words_per_hop () =
  let hop = link_hop () in
  for _ = 1 to 10_000 do
    hop ()
  done;
  let n = 100_000 in
  let a = Gc.minor_words () in
  for _ = 1 to n do
    hop ()
  done;
  (Gc.minor_words () -. a) /. float_of_int n

let arrival kind =
  let q = Net.Queue_disc.create kind ~capacity:20 ~rng:(Sim.Rng.create 5) in
  let t = ref 0.0 and k = ref 0 in
  Bechamel.Staged.stage (fun () ->
      t := !t +. 0.0001;
      incr k;
      (* Walk the queue length up and down through RED's thresholds. *)
      let qlen = 2 + (!k mod 16) in
      ignore (Net.Queue_disc.on_arrival q ~now:!t ~qlen))

(* In-order acks: every ack advances the cumulative point by one over a
   32-packet window. *)
let process_ack () =
  let sb = Tcp.Scoreboard.create () in
  for _ = 1 to 32 do
    ignore (Tcp.Scoreboard.register_send sb)
  done;
  Bechamel.Staged.stage (fun () ->
      ignore (Tcp.Scoreboard.register_send sb);
      ignore
        (Tcp.Scoreboard.process_ack sb
           ~cum_ack:(Tcp.Scoreboard.high_ack sb + 1)
           ~blocks:[] ~dupthresh:3))

(* Acks with a hole: the cumulative point stays behind a lost packet
   while the SACK block grows, then the retransmission fills it every
   16 acks, so loss detection runs on every recovery. *)
let process_ack_sack () =
  let sb = Tcp.Scoreboard.create () in
  for _ = 1 to 32 do
    ignore (Tcp.Scoreboard.register_send sb)
  done;
  let k = ref 0 in
  Bechamel.Staged.stage (fun () ->
      let s = Tcp.Scoreboard.register_send sb in
      incr k;
      let base = Tcp.Scoreboard.high_ack sb in
      if !k land 15 = 0 then
        ignore
          (Tcp.Scoreboard.process_ack sb ~cum_ack:(s - 31) ~blocks:[]
             ~dupthresh:3)
      else
        ignore
          (Tcp.Scoreboard.process_ack sb ~cum_ack:base
             ~blocks:[ (base + 1, s + 1) ]
             ~dupthresh:3))

(* RLA per-ack cost: a loss-free star of [n] receivers, each on its own
   link, run until [acks] acknowledgments have been processed after a
   warm-up.  The link hops the run made are charged at the measured
   per-hop cost and removed. *)
let rla_ack_ns ~n ~acks ~hop_ns =
  let net = Net.Network.create ~seed:11 () in
  let src = Net.Node.id (Net.Network.add_node net) in
  let rcvrs = List.init n (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  let cfg =
    {
      Net.Link.bandwidth_bps = 1e9;
      prop_delay = 0.005;
      queue = Net.Queue_disc.Droptail;
      capacity = 1_000_000;
      phase_jitter = false;
    }
  in
  (* Routes and the distribution tree are set link by link: the
     all-pairs [install_routes] would cost O(n^2) set-up on a star. *)
  let group = Net.Network.fresh_group net in
  let hub = Net.Network.node net src in
  List.iter
    (fun r ->
      let down, up = Net.Network.duplex net src r cfg in
      let leaf = Net.Network.node net r in
      Net.Node.set_route hub ~dest:r down;
      Net.Node.set_route leaf ~dest:src up;
      Net.Node.add_mcast_route hub ~group down;
      Net.Node.join leaf ~group)
    rcvrs;
  let rla =
    Rla.Sender.create ~net ~src ~receivers:rcvrs ~tree:(`Preinstalled group) ()
  in
  let count () =
    List.fold_left
      (fun a e -> a + Rla.Receiver.received_total e)
      0
      (Rla.Sender.receiver_endpoints rla)
  in
  let hops () =
    List.fold_left
      (fun a l -> a + (Net.Link.stats l).Net.Link.offered)
      0 (Net.Network.links net)
  in
  let step = 0.002 in
  let rec run_to target t =
    if count () >= target then t
    else begin
      Net.Network.run_until net (t +. step);
      run_to target (t +. step)
    end
  in
  let t = run_to (max n (acks / 4)) 0.0 in
  let a0 = count () and h0 = hops () and w0 = cpu () in
  ignore (run_to (a0 + acks) t);
  let busy = cpu () -. w0 in
  let a = count () - a0 and h = hops () - h0 in
  ((busy *. 1e9) -. (float_of_int h *. hop_ns)) /. float_of_int a

let run ~pending =
  let costs =
    estimate
      [
        ("heap_add_pop", heap_add_pop ~depth:(max 1 pending));
        ("link_hop", Bechamel.Staged.stage (link_hop ()));
        ("droptail_arrival", arrival Net.Queue_disc.Droptail);
        ( "red_arrival",
          arrival
            (Net.Queue_disc.Red_gateway
               (Net.Red.default_params ~mean_pkt_time:0.00008)) );
        ("process_ack", process_ack ());
        ("process_ack_sack", process_ack_sack ());
      ]
  in
  let hop_ns = List.assoc "link_hop" costs in
  let rla =
    List.map
      (fun (n, acks) ->
        (string_of_int n, J.Float (rla_ack_ns ~n ~acks ~hop_ns)))
      [ (27, 100_000); (1024, 50_000); (4096, 25_000) ]
  in
  J.Obj
    (List.map (fun (k, v) -> (k ^ "_ns", J.Float v)) costs
    @ [ ("words_per_hop", J.Float (words_per_hop ())); ("rla_ack_ns", J.Obj rla) ])

(* The [par] layer: the k-ary 16x3 tree (4096 receivers, 17 shards)
   through [Experiments.Scaling.run_sharded], plus the same scenario
   with per-shard registries through [Par.Scenario.run], whose
   fairness table must be identical. *)
let kary_config =
  {
    Experiments.Scaling.default_sharded_config with
    Experiments.Scaling.fanout = 16;
    depth = 3;
    workers = 1;
    duration = 2.0;
    warmup = 0.5;
    seed = probe_seed;
  }

(* [Scaling.run_sharded]'s competing TCP pairs: one per branch, from
   the branch root down its leftmost chain. *)
let kary_tcp_pairs (c : Experiments.Scaling.sharded_config) =
  List.init c.Experiments.Scaling.fanout (fun i ->
      let rec descend node levels =
        if levels = 0 then node
        else descend ((node * c.Experiments.Scaling.fanout) + 1) (levels - 1)
      in
      (i + 1, descend (i + 1) (c.Experiments.Scaling.depth - 1)))

(* The fairness table without its event count, which is reported but
   not gated. *)
let table_without_events s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         match String.rindex_opt line ';' with
         | Some j when String.starts_with ~prefix:"lookahead" line ->
             String.sub line 0 j
         | _ -> line)
  |> String.concat "\n"

let shard_events registry_json =
  match J.member "shards" (J.of_string registry_json) with
  | Some (J.List shards) ->
      List.map
        (fun sh ->
          match J.member "registry" sh with
          | None -> 0
          | Some reg -> (
              match J.member "counters" reg with
              | Some c ->
                  Option.value ~default:0
                    (Option.bind (J.member "sim.events_fired" c) J.to_int_opt)
              | None -> 0))
        shards
  | _ -> []

let par () =
  let c = kary_config in
  let topo = Experiments.Scaling.sharded_topo c in
  let parts = c.Experiments.Scaling.fanout + 1 in
  let partition_s =
    List.init 7 (fun _ ->
        let t0 = cpu () in
        ignore (Par.Partition.kruskal topo ~parts);
        cpu () -. t0)
  in
  let plain = Experiments.Scaling.run_sharded c in
  let traced =
    Par.Scenario.run
      {
        Par.Scenario.topo;
        parts;
        src = 0;
        receivers = Net.Topo.leaves topo;
        tcp_pairs = kary_tcp_pairs c;
        workers = 1;
        duration = c.Experiments.Scaling.duration;
        warmup = c.Experiments.Scaling.warmup;
        seed = probe_seed;
        rla_params = c.Experiments.Scaling.rla_params;
        with_registry = true;
      }
  in
  match (plain, traced) with
  | Ok p, Ok t ->
      let per_shard = shard_events t.Par.Scenario.registry_json in
      let total = List.fold_left ( + ) 0 per_shard in
      J.Obj
        [
          ("partition_s", J.List (List.map (fun x -> J.Float x) partition_s));
          ("shards", J.Int t.Par.Scenario.shards);
          ("rounds", J.Int t.Par.Scenario.rounds);
          ("cut_edges", J.Int t.Par.Scenario.cut_edges);
          ("events", J.Int t.Par.Scenario.events_fired);
          ("shard_events", J.List (List.map (fun x -> J.Int x) per_shard));
          ( "max_shard_event_share",
            J.Float
              (float_of_int (List.fold_left max 0 per_shard)
              /. float_of_int (max 1 total)) );
          ("table", J.String (table_without_events p.Par.Scenario.fairness_table));
          ( "traced_table",
            J.String (table_without_events t.Par.Scenario.fairness_table) );
        ]
  | Error e, _ | _, Error e -> failwith (Par.Scenario.error_to_string e)

(* Host facts: the domain count OCaml reports and the parallelism
   actually delivered — two busy loops at once against one, in wall
   time. *)
let now = Unix.gettimeofday

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := (!x * 31) + i
  done;
  !x

let host () =
  let n = 100_000_000 in
  ignore (spin (n / 10));
  let t0 = now () in
  ignore (spin n);
  let one = now () -. t0 in
  let t0 = now () in
  let d = Domain.spawn (fun () -> spin n) in
  ignore (spin n);
  ignore (Domain.join d);
  let two = now () -. t0 in
  J.Obj
    [
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("parallelism", J.Float (2.0 *. one /. two));
    ]
