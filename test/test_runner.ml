(* Tests for the multicore sweep engine: job/pool determinism,
   submission-order results, metrics, and the JSON emitter. *)

(* A small self-contained simulation: one TCP flow over a duplex link,
   3 simulated seconds; returns enough state to detect any divergence
   between runs. *)
let tcp_job ~seed =
  Runner.Job.create ~label:(Printf.sprintf "tcp/seed%d" seed) (fun () ->
      let net = Net.Network.create ~seed () in
      let a = Net.Node.id (Net.Network.add_node net) in
      let b = Net.Node.id (Net.Network.add_node net) in
      let ab, _ =
        Net.Network.duplex net a b
          {
            Net.Link.bandwidth_bps = 800_000.0;
            prop_delay = 0.01;
            queue = Net.Queue_disc.Droptail;
            capacity = 20;
            phase_jitter = true;
          }
      in
      Net.Network.install_routes net;
      let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
      Net.Network.run_until net 3.0;
      let snap = Tcp.Sender.snapshot tcp in
      let stats = Net.Link.stats ab in
      ( net,
        ( snap.Tcp.Sender.send_rate,
          snap.Tcp.Sender.cwnd_avg,
          stats.Net.Link.delivered,
          stats.Net.Link.dropped ) ))

let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_pool_deterministic_across_jobs () =
  let run jobs =
    Runner.Pool.values
      (Runner.Pool.run ~jobs (List.map (fun seed -> tcp_job ~seed) seeds))
  in
  let sequential = run 1 in
  Alcotest.(check bool) "jobs=1 equals jobs=4" true (sequential = run 4);
  Alcotest.(check bool) "jobs=1 equals jobs=8" true (sequential = run 8);
  (* Different seeds must actually differ, or the comparison is vacuous. *)
  match sequential with
  | first :: rest ->
      Alcotest.(check bool) "seeds diverge" true
        (List.exists (fun r -> r <> first) rest)
  | [] -> Alcotest.fail "no results"

let test_pool_submission_order () =
  let jobs_list =
    List.init 20 (fun i ->
        Runner.Job.pure ~label:(Printf.sprintf "job%d" i) (fun () -> i))
  in
  let outcomes = Runner.Pool.run ~jobs:4 jobs_list in
  List.iteri
    (fun i (o : int Runner.Pool.outcome) ->
      Alcotest.(check int) "value in submission order" i o.Runner.Pool.value;
      Alcotest.(check string) "label preserved"
        (Printf.sprintf "job%d" i)
        o.Runner.Pool.label)
    outcomes

let test_pool_metrics () =
  match Runner.Pool.run ~jobs:1 [ tcp_job ~seed:1 ] with
  | [ o ] ->
      let m = o.Runner.Pool.metrics in
      Alcotest.(check bool) "events fired" true (m.Runner.Metrics.events_fired > 100);
      Alcotest.(check bool) "wall clock nonnegative" true
        (m.Runner.Metrics.wall_s >= 0.0);
      Alcotest.(check bool) "allocation tracked" true
        (m.Runner.Metrics.allocated_mb > 0.0)
  | _ -> Alcotest.fail "expected one outcome"

let test_pool_pure_job_metrics () =
  match Runner.Pool.run ~jobs:2 [ Runner.Job.pure ~label:"p" (fun () -> 42) ] with
  | [ o ] ->
      Alcotest.(check int) "value" 42 o.Runner.Pool.value;
      Alcotest.(check int) "no network, no events" 0
        o.Runner.Pool.metrics.Runner.Metrics.events_fired
  | _ -> Alcotest.fail "expected one outcome"

let test_pool_failure_reported () =
  let jobs_list =
    [
      Runner.Job.pure ~label:"ok" (fun () -> 1);
      Runner.Job.pure ~label:"boom" (fun () -> failwith "expected");
    ]
  in
  match Runner.Pool.run ~jobs:2 jobs_list with
  | _ -> Alcotest.fail "must raise"
  | exception Runner.Pool.Job_failed (label, Failure msg) ->
      Alcotest.(check string) "failing job label" "boom" label;
      Alcotest.(check string) "original exception" "expected" msg
  | exception _ -> Alcotest.fail "wrong exception"

let test_pool_empty_and_clamped () =
  Alcotest.(check int) "empty job list" 0
    (List.length (Runner.Pool.run ~jobs:4 ([] : unit Runner.Job.t list)));
  (* jobs < 1 is clamped to sequential execution. *)
  match Runner.Pool.run ~jobs:0 [ Runner.Job.pure ~label:"x" (fun () -> 7) ] with
  | [ o ] -> Alcotest.(check int) "clamped to 1" 7 o.Runner.Pool.value
  | _ -> Alcotest.fail "expected one outcome"

let test_sharing_sweep_deterministic () =
  (* End-to-end: the experiment-level sweep is bit-identical for any
     jobs count (short run to keep the suite fast). *)
  let run jobs =
    List.map
      (fun (r : Experiments.Sharing.result) ->
        ( r.Experiments.Sharing.ratio,
          r.Experiments.Sharing.rla.Rla.Sender.send_rate,
          r.Experiments.Sharing.wtcp.Tcp.Sender.send_rate,
          r.Experiments.Sharing.essentially_fair ))
      (Runner.Pool.values
         (Experiments.Sharing.sweep ~gateway:Experiments.Scenario.Droptail
            ~case_indices:[ 1 ] ~duration:12.0 ~warmup:4.0 ~seeds:[ 1; 2 ]
            ~jobs ()))
  in
  Alcotest.(check bool) "sweep jobs=1 equals jobs=4" true (run 1 = run 4)

let test_json_emitter () =
  let doc =
    Runner.Json.Obj
      [
        ("name", Runner.Json.String "x\"y");
        ("n", Runner.Json.Int 3);
        ("f", Runner.Json.Float 0.25);
        ("whole", Runner.Json.Float 54.0);
        ("nan", Runner.Json.Float Float.nan);
        ("ok", Runner.Json.Bool true);
        ("xs", Runner.Json.List [ Runner.Json.Int 1; Runner.Json.Null ]);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"name\":\"x\\\"y\",\"n\":3,\"f\":0.25,\"whole\":54.0,\"nan\":null,\"ok\":true,\"xs\":[1,null]}"
    (Runner.Json.to_string doc)

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Runner.Json.to_string (Runner.Json.Float f) with
      | s ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "roundtrip %h" f)
            f (float_of_string s))
    [ 0.1; 1.0 /. 3.0; 2.492776886035313; 1e-9; 123456.789; 54.0 ]

(* Reference for the emitter's float rendering: the linear search over
   precisions 1..17 that the binary search replaced. *)
let linear_float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1

(* Every bit pattern, short decimals, integers around the %.1f cut-off,
   and sums/quotients like the ones simulation metrics are made of. *)
let arb_mixed_float =
  let open QCheck.Gen in
  let any_bits = map Int64.float_of_bits ui64 in
  let short_decimal =
    map2
      (fun k d -> float_of_int k /. (10.0 ** float_of_int d))
      (-100000 -- 100000) (0 -- 12)
  in
  let integral = map (fun e -> Float.round (2.0 ** float_of_int e)) (0 -- 60) in
  let computed =
    map2
      (fun a b -> a /. (b +. 1.0))
      (float_bound_inclusive 1e4) (float_bound_inclusive 1e3)
  in
  QCheck.make ~print:(Printf.sprintf "%h")
    (frequency
       [ (3, any_bits); (2, short_decimal); (1, integral); (3, computed) ])

let prop_float_repr_matches_linear =
  QCheck.Test.make ~name:"float rendering = linear precision search"
    ~count:20000 arb_mixed_float (fun f ->
      Runner.Json.to_string (Runner.Json.Float f) = linear_float_repr f)

let test_json_parse_roundtrip () =
  (* The bench-trend gate reads perf documents back with [of_string];
     emit → parse must be the identity on everything the emitter
     produces (minus [Verbatim] and non-finite floats). *)
  let doc =
    Runner.Json.Obj
      [
        ("name", Runner.Json.String "x\"y\\z\n");
        ("n", Runner.Json.Int (-3));
        ("f", Runner.Json.Float 0.25);
        ("whole", Runner.Json.Float 54.0);
        ("ok", Runner.Json.Bool true);
        ("no", Runner.Json.Bool false);
        ("nil", Runner.Json.Null);
        ( "xs",
          Runner.Json.List
            [
              Runner.Json.Int 1;
              Runner.Json.Obj [ ("k", Runner.Json.String "v") ];
            ] );
      ]
  in
  Alcotest.(check bool) "emit/parse identity" true
    (Runner.Json.of_string (Runner.Json.to_string doc) = doc)

let test_json_parse_accessors () =
  let j = Runner.Json.of_string {| {"a": 1, "b": 2.5, "c": "s", "d": 1e2} |} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Runner.Json.member "a" j) Runner.Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (Runner.Json.member "b" j) Runner.Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "int as float" (Some 1.0)
    (Option.bind (Runner.Json.member "a" j) Runner.Json.to_float_opt);
  Alcotest.(check (option string)) "string member" (Some "s")
    (Option.bind (Runner.Json.member "c" j) Runner.Json.to_string_opt);
  Alcotest.(check (option (float 0.0))) "exponent is float" (Some 100.0)
    (Option.bind (Runner.Json.member "d" j) Runner.Json.to_float_opt);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Runner.Json.member "zz" j) Runner.Json.to_int_opt)

let test_json_parse_errors () =
  let rejects s =
    try
      ignore (Runner.Json.of_string s);
      false
    with Runner.Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "trailing garbage" true (rejects "{} x");
  Alcotest.(check bool) "unterminated string" true (rejects "\"abc");
  Alcotest.(check bool) "bare word" true (rejects "flase");
  Alcotest.(check bool) "missing colon" true (rejects "{\"a\" 1}");
  Alcotest.(check bool) "empty input" true (rejects "")

let () =
  Alcotest.run "runner"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_pool_deterministic_across_jobs;
          Alcotest.test_case "submission order" `Quick test_pool_submission_order;
          Alcotest.test_case "metrics" `Quick test_pool_metrics;
          Alcotest.test_case "pure job metrics" `Quick test_pool_pure_job_metrics;
          Alcotest.test_case "failure reported" `Quick test_pool_failure_reported;
          Alcotest.test_case "empty and clamped" `Quick test_pool_empty_and_clamped;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sharing sweep deterministic" `Slow
            test_sharing_sweep_deterministic;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter" `Quick test_json_emitter;
          Alcotest.test_case "float roundtrip" `Quick test_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_repr_matches_linear;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse accessors" `Quick test_json_parse_accessors;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
    ]
