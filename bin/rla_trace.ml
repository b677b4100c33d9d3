(* rla_trace — per-flow time-series traces of a tree-sharing run.

   Two scenarios:

   - [sharing] (default): run the paper's main experiment with a
     metrics registry installed and dump figure-7/8/9-style per-flow
     window and goodput series, one CSV row per stored sample:

       time,flow,cwnd,bytes_acked

     Flows are the RLA session ("rla.flow0") and the 27 background
     TCPs ("tcp.flow1".."tcp.flow27"); rows are grouped by flow,
     time-ascending.  The same seed yields byte-identical output for
     any [--jobs] value.

       dune exec bin/rla_trace.exe -- --scenario sharing \
         --gateway droptail --csv out.csv

   - [probes]: the legacy fixed-interval sampler (RLA window, one TCP
     window, bottleneck queue length) printed to stdout. *)

open Cmdliner

type scenario = Sharing | Probes

let with_csv_sink path f =
  match path with
  | "-" ->
      f Format.std_formatter;
      Format.pp_print_flush Format.std_formatter ()
  | path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let ppf = Format.formatter_of_out_channel oc in
          f ppf;
          Format.pp_print_flush ppf ())

(* "default" selects the built-in churn script; anything else must
   parse as a Faults.Timeline spec string. *)
let faults_spec = function
  | None -> None
  | Some "default" -> Some Experiments.Churn.Default_script
  | Some spec -> (
      match Faults.Timeline.of_spec spec with
      | Ok t -> Some (Experiments.Churn.Scripted t)
      | Error err ->
          Format.eprintf "rla_trace: bad --faults spec: %s@.(grammar: %s)@."
            (Faults.Timeline.parse_error_to_string err)
            Faults.Timeline.spec_grammar;
          Stdlib.exit 2)

let dump_outputs ~csv ~json registry =
  with_csv_sink csv (fun ppf -> Runner.Report.flow_series_csv ppf registry);
  match json with
  | None -> ()
  | Some path ->
      Runner.Report.write_file ~path (Runner.Report.registry_json registry)

let summarize ~label registry result =
  let a, b = result.Experiments.Sharing.bounds in
  Format.eprintf
    "%s: ratio %.2f, bounds (%.2f, %.2f), %s; %d series in registry@." label
    result.Experiments.Sharing.ratio a b
    (if result.Experiments.Sharing.essentially_fair then "essentially fair"
     else "NOT essentially fair")
    (List.length (Obs.Registry.all_series registry))

let run_sharing ~case_index ~gateway ~duration ~warmup ~seed ~jobs ~csv ~json
    ~faults ~ckpt =
  let config =
    let base =
      Experiments.Sharing.default_config ~gateway
        ~case:(Experiments.Tree.case_of_index case_index)
    in
    { base with Experiments.Sharing.duration; warmup; seed }
  in
  let label = Printf.sprintf "trace/case%d/seed%d" case_index seed in
  match faults_spec faults with
  | None -> (
      match ckpt with
      | Some (every, dir) ->
          (* Checkpointing bypasses the domain pool: the checkpointed
             run is sliced in-process (still byte-identical to the
             pooled run — slicing is passive).  The event journal lands
             next to the checkpoints for [rla_ckpt diff]. *)
          let registry = Obs.Registry.create () in
          let journal = Ckpt.Journal.create () in
          let prefix = Printf.sprintf "case%d_seed%d" case_index seed in
          let result =
            Ckpt.Sharing_ckpt.run_with_checkpoints ~registry ~journal ~every
              ~dir ~prefix config
          in
          Ckpt.Journal.save journal
            ~path:(Filename.concat dir (prefix ^ ".journal"));
          dump_outputs ~csv ~json registry;
          summarize ~label registry result
      | None ->
          let job =
            Runner.Job.create ~label (fun () ->
                let registry = Obs.Registry.create () in
                let net, result =
                  Experiments.Sharing.run_with_net ~registry config
                in
                (net, (registry, result)))
          in
          let outcomes = Runner.Pool.run ~jobs [ job ] in
          let registry, result = (List.hd outcomes).Runner.Pool.value in
          dump_outputs ~csv ~json registry;
          summarize ~label registry result)
  | Some faults when ckpt <> None ->
      ignore faults;
      Format.eprintf
        "rla_trace: --faults and checkpointing cannot be combined (the churn \
         driver owns flow state outside the checkpoint)@.";
      Stdlib.exit 2
  | Some faults ->
      (* Same CSV/JSON surfaces, but the run goes through the churn
         scenario: the fault timeline perturbs it and the per-epoch
         fairness table lands on stderr. *)
      let config = { Experiments.Churn.sharing = config; faults } in
      let job =
        Runner.Job.create ~label (fun () ->
            let registry = Obs.Registry.create () in
            let net, result =
              Experiments.Churn.run_with_net ~registry config
            in
            (net, (registry, result)))
      in
      let outcomes = Runner.Pool.run ~jobs [ job ] in
      let registry, result = (List.hd outcomes).Runner.Pool.value in
      dump_outputs ~csv ~json registry;
      Experiments.Churn.print Format.err_formatter result

let run_restore ~path ~ckpt ~csv ~json =
  match Ckpt.Sharing_ckpt.load ~path with
  | Error e ->
      Format.eprintf "rla_trace: cannot restore %s: %s@." path
        (Ckpt.Sharing_ckpt.error_to_string e);
      Stdlib.exit 1
  | Ok { Ckpt.Sharing_ckpt.registry = None; _ } ->
      Format.eprintf
        "rla_trace: %s comes from a run that was not traced (re-run it under \
         rla_trace --checkpoint-every)@."
        path;
      Stdlib.exit 1
  | Ok ({ Ckpt.Sharing_ckpt.registry = Some registry; _ } as loaded) ->
      let result =
        match ckpt with
        | None -> Ckpt.Sharing_ckpt.resume_run loaded
        | Some (every, dir) -> Ckpt.Sharing_ckpt.resume_run ~every ~dir loaded
      in
      (* The replayed registry holds the complete history, so the
         re-dumped CSV/JSON equal the uninterrupted run's output byte for
         byte. *)
      dump_outputs ~csv ~json registry;
      (match (loaded.Ckpt.Sharing_ckpt.journal, ckpt) with
      | Some journal, Some (_, dir) ->
          Ckpt.Journal.save journal ~path:(Filename.concat dir "resume.journal")
      | _ -> ());
      summarize ~label:(Printf.sprintf "restore/%s" path) registry result

let run_probes ~case_index ~gateway ~duration ~seed ~interval ~csv =
  let case = Experiments.Tree.case_of_index case_index in
  let tree = Experiments.Tree.build ~seed ~gateway ~case () in
  let net = tree.Experiments.Tree.net in
  let leaves = Array.to_list tree.Experiments.Tree.leaves in
  let rla =
    Rla.Sender.create ~net ~src:tree.Experiments.Tree.root ~receivers:leaves ()
  in
  let tcps =
    List.map
      (fun leaf -> Tcp.Sender.create ~net ~src:tree.Experiments.Tree.root ~dst:leaf ())
      leaves
  in
  let first_congested = List.hd tree.Experiments.Tree.congested_leaves in
  let first_tcp =
    (* The TCP sharing the first congested branch. *)
    List.nth tcps
      (Option.get
         (List.find_index (fun leaf -> leaf = first_congested) leaves))
  in
  (* The queue feeding the first congested branch: the last link on the
     path to that receiver. *)
  let bottleneck_queue =
    match
      List.rev (Net.Network.path net tree.Experiments.Tree.root first_congested)
    with
    | last :: _ -> last
    | [] -> invalid_arg "rla_trace: no path to the congested receiver"
  in
  let ts =
    Experiments.Timeseries.create ~net ~interval
      ~probes:
        [
          { Experiments.Timeseries.name = "rla_cwnd";
            read = (fun () -> Rla.Sender.cwnd rla) };
          { Experiments.Timeseries.name = "tcp_cwnd";
            read = (fun () -> Tcp.Sender.cwnd first_tcp) };
          { Experiments.Timeseries.name = "queue";
            read = (fun () -> float_of_int (Net.Link.qlen bottleneck_queue)) };
          { Experiments.Timeseries.name = "rla_delivered";
            read = (fun () -> float_of_int (Rla.Sender.max_reach_all rla)) };
        ]
  in
  Net.Network.run_until net duration;
  with_csv_sink csv (fun ppf -> Experiments.Timeseries.to_csv ppf ts)

let run scenario ~case_index ~gateway ~duration ~warmup ~seed ~interval ~jobs
    ~csv ~json ~faults ~ckpt ~restore =
  match restore with
  | Some path ->
      if faults <> None then (
        Format.eprintf "rla_trace: --restore and --faults cannot be combined@.";
        Stdlib.exit 2);
      run_restore ~path ~ckpt ~csv ~json
  | None -> (
      match scenario with
      | Sharing ->
          run_sharing ~case_index ~gateway ~duration ~warmup ~seed ~jobs ~csv
            ~json ~faults ~ckpt
      | Probes ->
          if faults <> None then (
            Format.eprintf "rla_trace: --faults requires --scenario sharing@.";
            Stdlib.exit 2);
          if ckpt <> None then (
            Format.eprintf
              "rla_trace: checkpointing requires --scenario sharing@.";
            Stdlib.exit 2);
          run_probes ~case_index ~gateway ~duration ~seed ~interval ~csv)

let scenario_arg =
  let doc =
    "Trace scenario: $(b,sharing) (per-flow registry series) or \
     $(b,probes) (legacy fixed-interval sampler)."
  in
  Arg.(
    value
    & opt (enum [ ("sharing", Sharing); ("probes", Probes) ]) Sharing
    & info [ "scenario" ] ~docv:"SCENARIO" ~doc)

let case_arg =
  let doc = "Bottleneck case (1-5, figure 7 numbering)." in
  Arg.(value & opt int 3 & info [ "case"; "c" ] ~docv:"CASE" ~doc)

let gateway_arg =
  let doc = "Gateway type: droptail or red." in
  let gateways =
    [
      ("droptail", Experiments.Scenario.Droptail);
      ("drop-tail", Experiments.Scenario.Droptail);
      ("red", Experiments.Scenario.Red);
    ]
  in
  Arg.(
    value
    & opt (enum gateways) Experiments.Scenario.Droptail
    & info [ "gateway"; "g" ] ~docv:"GATEWAY" ~doc)

let duration_arg =
  let doc = "Simulated seconds." in
  Arg.(value & opt float 150.0 & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)

let warmup_arg =
  let doc = "Warm-up seconds discarded from fairness counters (sharing)." in
  Arg.(value & opt float 50.0 & info [ "warmup"; "w" ] ~docv:"SECONDS" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let interval_arg =
  let doc = "Sampling interval (seconds, probes scenario only)." in
  Arg.(value & opt float 0.1 & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Domain-pool size the trace job runs on; output is byte-identical \
     for any value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "CSV output path ($(b,-) for stdout)." in
  Arg.(value & opt string "-" & info [ "csv" ] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Also dump the full metrics registry as JSON (sharing)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let faults_arg =
  let doc =
    "Inject a fault timeline into the sharing run ($(b,default) for the \
     built-in churn script, or a ';'-separated spec: TIME:down:A-B, \
     TIME:up:A-B, TIME:bw:A-B:BPS, TIME:delay:A-B:SECS, TIME:leave:ADDR, \
     TIME:join:ADDR, TIME:tcpstart:ID:DST, TIME:tcpstop:ID).  The \
     per-epoch fairness table is printed to stderr; CSV/JSON outputs \
     are unchanged in shape."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let ckpt_every_arg =
  let doc =
    "Write a checkpoint every $(docv) simulated seconds (sharing scenario, \
     no --faults).  Requires --checkpoint-dir.  The event journal is saved \
     alongside the checkpoints for $(b,rla_ckpt diff)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)

let ckpt_dir_arg =
  let doc = "Directory for checkpoint files (created if missing)." in
  Arg.(
    value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let restore_arg =
  let doc =
    "Resume a checkpointed traced run from $(docv), run it to completion and \
     re-dump the full CSV/JSON from the replayed registry (byte-identical to \
     the uninterrupted run's output)."
  in
  Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "Dump per-flow cwnd/throughput time series of a tree-sharing run" in
  let term =
    Term.(
      const (fun scenario case_index gateway duration warmup seed interval jobs
                 csv json faults ckpt_every ckpt_dir restore ->
          let ckpt =
            match (ckpt_every, ckpt_dir) with
            | Some every, Some dir ->
                if not (every > 0.0) then (
                  Format.eprintf
                    "rla_trace: --checkpoint-every must be positive@.";
                  Stdlib.exit 2);
                Some (every, dir)
            | Some _, None | None, Some _ ->
                Format.eprintf
                  "rla_trace: --checkpoint-every and --checkpoint-dir go \
                   together@.";
                Stdlib.exit 2
            | None, None -> None
          in
          run scenario ~case_index ~gateway ~duration ~warmup ~seed ~interval
            ~jobs ~csv ~json ~faults ~ckpt ~restore)
      $ scenario_arg $ case_arg $ gateway_arg $ duration_arg $ warmup_arg
      $ seed_arg $ interval_arg $ jobs_arg $ csv_arg $ json_arg $ faults_arg
      $ ckpt_every_arg $ ckpt_dir_arg $ restore_arg)
  in
  Cmd.v (Cmd.info "rla_trace" ~doc) term

let () = exit (Cmd.eval cmd)
