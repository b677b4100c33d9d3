(* One measured process of the benchmark; run.py starts a fresh one for
   every repetition so its GC counters and peak heap are its own.
   Prints one JSON line on stdout.

     bench.exe rep WORKLOAD SEED
     bench.exe traced WORKLOAD SEED SPANS_FILE
     bench.exe micro PENDING
     bench.exe par
     bench.exe host *)

let () =
  let doc =
    match Array.to_list Sys.argv |> List.tl with
    | [ "rep"; w; seed ] ->
        Workload.rep (Workload.find w) ~seed:(int_of_string seed)
    | [ "traced"; w; seed; spans_path ] ->
        Workload.traced (Workload.find w) ~seed:(int_of_string seed) ~spans_path
    | [ "micro"; pending ] -> Micro.run ~pending:(int_of_string pending)
    | [ "par" ] -> Micro.par ()
    | [ "host" ] -> Micro.host ()
    | _ ->
        prerr_endline
          "usage: bench.exe (rep W SEED | traced W SEED SPANS | micro \
           PENDING | par | host)";
        exit 2
  in
  print_endline (Runner.Json.to_string doc)
