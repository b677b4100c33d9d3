(* lint: allow-file wall-clock -- benchmark gate: the numbers it
   compares are host-machine events/s measurements by design *)

(* Trend gate (`make bench-trend`): compare a checked-in bench document
   (BENCH_scale.json, BENCH_hostile.json) against the best run recorded
   in its history file and fail on a events/s regression beyond the
   tolerance (default 10%, RLA_BENCH_TREND_TOLERANCE overrides).

   Pure comparison — no simulation runs — so the gate is cheap enough
   for `make ci`.  Which history lines count as a baseline is decided
   by Runner.Trend.classify (same duration and seed; same core count
   when the document records one); the skip reasons printed here are
   Runner.Trend.skip_reason verbatim, and the unit suite asserts them.
   An empty or missing history passes (nothing to regress against yet).

   Usage: trend.exe BENCH_x.json [BENCH_x_history.jsonl] *)

let tolerance =
  match Sys.getenv_opt "RLA_BENCH_TREND_TOLERANCE" with
  | None -> 0.10
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f >= 0.0 && f < 1.0 -> f
      | _ ->
          Printf.eprintf
            "rla-bench-trend: RLA_BENCH_TREND_TOLERANCE=%S is not a fraction \
             in [0, 1); using 0.10\n\
             %!"
            s;
          0.10)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let parse_doc ~path text =
  match Runner.Json.of_string text with
  | exception Runner.Json.Parse_error e -> fail "rla-bench-trend: %s: %s" path e
  | json -> (
      match Runner.Trend.doc_of_json json with
      | Ok doc -> doc
      | Error e -> fail "rla-bench-trend: %s: %s" path e)

let () =
  let current_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: trend.exe BENCH_x.json [BENCH_x_history.jsonl]"
  in
  let history_path =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else Filename.remove_extension current_path ^ "_history.jsonl"
  in
  if not (Sys.file_exists current_path) then
    fail "rla-bench-trend: %s not found (run its `make bench-*` target first)"
      current_path;
  let machine_cores = Domain.recommended_domain_count () in
  let current = parse_doc ~path:current_path (String.trim (read_file current_path)) in
  let history_lines =
    if not (Sys.file_exists history_path) then []
    else
      String.split_on_char '\n' (read_file history_path)
      |> List.filter (fun l -> String.trim l <> "")
  in
  if history_lines = [] then begin
    Printf.printf
      "bench-trend: no history at %s — nothing to compare (run its `make \
       bench-*` target to record a baseline)\n\
       %!"
      history_path;
    exit 0
  end;
  (* Best events/s per scenario over comparable history lines. *)
  let best : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let comparable = ref 0 in
  List.iteri
    (fun i line ->
      let doc = parse_doc ~path:history_path line in
      match Runner.Trend.classify ~current ~machine_cores doc with
      | Runner.Trend.Comparable ->
          incr comparable;
          List.iter
            (fun (name, eps) ->
              match Hashtbl.find_opt best name with
              | Some b when b >= eps -> ()
              | _ -> Hashtbl.replace best name eps)
            doc.Runner.Trend.scenarios
      | Runner.Trend.Skip_cores _ as c ->
          Printf.printf "bench-trend: skipping %s line %d — %s\n" history_path
            (i + 1)
            (Option.get (Runner.Trend.skip_reason c))
      | Runner.Trend.Skip_params -> ())
    history_lines;
  if !comparable = 0 then begin
    Printf.printf
      "bench-trend: %d history line(s) but none with duration %g / seed %g — \
       nothing to compare\n\
       %!"
      (List.length history_lines)
      current.Runner.Trend.duration current.Runner.Trend.seed;
    exit 0
  end;
  let failures = ref 0 in
  List.iter
    (fun (name, eps) ->
      match Hashtbl.find_opt best name with
      | None ->
          Printf.printf "  %-16s %10.0f ev/s  (new scenario, no history)\n" name
            eps
      | Some b ->
          let floor = b *. (1.0 -. tolerance) in
          let verdict = if eps < floor then "REGRESSION" else "ok" in
          if eps < floor then incr failures;
          Printf.printf
            "  %-16s %10.0f ev/s  best %10.0f  floor %10.0f  %s\n" name eps b
            floor verdict)
    current.Runner.Trend.scenarios;
  if !failures > 0 then
    fail
      "bench-trend: %d scenario(s) regressed more than %.0f%% below the best \
       recorded run"
      !failures (tolerance *. 100.0)
  else
    Printf.printf
      "bench-trend OK (%d scenario(s) within %.0f%% of best over %d \
       comparable run(s))\n\
       %!"
      (List.length current.Runner.Trend.scenarios)
      (tolerance *. 100.0) !comparable
