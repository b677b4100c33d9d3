(* lint: allow-file wall-clock -- benchmark harness: host wall time IS
   the measurement here, not simulation state *)
(* Sharding bench: events/s and speedup curves for the 10k-receiver
   sharded RLA scenario (Experiments.Scaling.run_sharded) at
   increasing worker-domain counts, emitted as BENCH_scale.json plus
   one append-only line in BENCH_scale_history.jsonl, gated by
   `make bench-trend` (`make bench-scale` rewrites it).

   The shard structure is fixed by the topology partition, so every
   row simulates the identical event sequence; the bench asserts that
   by byte-comparing the fairness tables across worker counts before
   reporting.  Speedup is wall(shards=1)/wall(shards=N) and is bounded
   by the machine's core count (recorded in the "cores" field): on a
   single-core host every row is a concurrency-overhead measurement,
   not a parallelism one.

   RLA_BENCH_SCALE_DURATION (simulated seconds, default 2) and
   RLA_BENCH_SCALE_FANOUT (default 22: 10648 receivers at depth 3)
   scale the run. *)

let env_value ~name ~default ~parse ~ok =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse s with
      | Some v when ok v -> v
      | _ ->
          Printf.eprintf
            "rla-bench-scale: %s=%S is invalid; using the default\n%!" name s;
          default)

let duration =
  env_value ~name:"RLA_BENCH_SCALE_DURATION" ~default:2.0
    ~parse:float_of_string_opt ~ok:(fun f -> f > 0.0)

let fanout =
  env_value ~name:"RLA_BENCH_SCALE_FANOUT" ~default:22
    ~parse:int_of_string_opt ~ok:(fun k -> k >= 2)

let warmup = duration /. 4.0
let seed = 1
let worker_counts = [ 1; 2; 4; 8 ]

let config ~workers =
  {
    Experiments.Scaling.default_sharded_config with
    Experiments.Scaling.fanout;
    workers;
    duration;
    warmup;
    seed;
  }

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_one workers =
  let result, wall_s =
    time (fun () -> Experiments.Scaling.run_sharded (config ~workers))
  in
  match result with
  | Error e -> failwith (Par.Scenario.error_to_string e)
  | Ok r -> (workers, wall_s, r)

let row ~base_wall (workers, wall_s, (r : Par.Scenario.result)) =
  let events = r.Par.Scenario.events_fired in
  let speedup = base_wall /. wall_s in
  Printf.printf
    "%-18s %8.2fs wall  %9d events  %10.0f ev/s  speedup %5.2f\n%!"
    (Printf.sprintf "shards%d" workers)
    wall_s events
    (float_of_int events /. wall_s)
    speedup;
  Runner.Json.Obj
    [
      ( "name",
        Runner.Json.String (Printf.sprintf "kary%dx3/shards%d" fanout workers)
      );
      ("workers", Runner.Json.Int workers);
      ("shards", Runner.Json.Int r.Par.Scenario.shards);
      ("receivers", Runner.Json.Int r.Par.Scenario.n_receivers);
      ("rounds", Runner.Json.Int r.Par.Scenario.rounds);
      ("lookahead_s", Runner.Json.Float r.Par.Scenario.lookahead);
      ("wall_s", Runner.Json.Float wall_s);
      ("events_fired", Runner.Json.Int events);
      ("events_per_s", Runner.Json.Float (float_of_int events /. wall_s));
      ("speedup", Runner.Json.Float speedup);
    ]

let () =
  let json_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_scale.json"
  in
  let runs = List.map run_one worker_counts in
  let base_wall =
    match runs with [] -> 1.0 | (_, w, _) :: _ -> w
  in
  let rows = List.map (row ~base_wall) runs in
  (match
     List.map (fun (_, _, r) -> r.Par.Scenario.fairness_table) runs
   with
  | [] -> ()
  | reference :: rest ->
      if not (List.for_all (String.equal reference) rest) then
        failwith
          "sharded results diverged across worker counts — determinism bug");
  Printf.printf "fairness tables byte-identical across %d worker counts\n%!"
    (List.length worker_counts);
  let fields recorded_at =
    (match recorded_at with
    | None -> []
    | Some t -> [ ("recorded_at", Runner.Json.Float t) ])
    @ [
        ("bench", Runner.Json.String "scale");
        ("duration_s", Runner.Json.Float duration);
        ("warmup_s", Runner.Json.Float warmup);
        ("seed", Runner.Json.Int seed);
        ("cores", Runner.Json.Int (Domain.recommended_domain_count ()));
        ("scenarios", Runner.Json.List rows);
      ]
  in
  let oc = open_out json_path in
  output_string oc (Runner.Json.to_string (Runner.Json.Obj (fields None)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  let history_path = Filename.remove_extension json_path ^ "_history.jsonl" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
  output_string oc
    (Runner.Json.to_string
       (Runner.Json.Obj (fields (Some (Unix.gettimeofday ())))));
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended %s\n%!" history_path
