(* Heap-composition probe: runs one figure-6 case and, every 256 fired
   events, samples what the scheduler's event heap holds.

     dune exec bench/heap_depth.exe -- GATEWAY CASE SEED DURATION WARMUP
     dune exec bench/heap_depth.exe -- droptail 5 1 20 5
     dune exec bench/heap_depth.exe -- red 3 9 40 10

   The last two match perfbench's fig6_droptail_case5 and
   fig6_red_case3 workloads.  Printed means:
   - heap: entries in the heap;
   - live: pending events (Scheduler.pending);
   - wire: packets past serialization on every link, each with a
     pending delivery event;
   - wires: links with a non-empty wire;
   - stale: cancelled entries still in the heap, i.e. heap entries
     minus the live events that sit in it (every live event but the
     deliveries queued behind a wire's head).
   Sampling only reads the scheduler and the links, so the run is the
   same as an unprobed one. *)

let usage () =
  prerr_endline "usage: heap_depth.exe droptail|red CASE SEED DURATION WARMUP";
  exit 2

let () =
  let gateway, case_index, seed, duration, warmup =
    match Array.to_list Sys.argv with
    | [ _; g; c; s; d; w ] -> (
        match
          ( Experiments.Scenario.gateway_of_string g,
            int_of_string_opt c,
            int_of_string_opt s,
            float_of_string_opt d,
            float_of_string_opt w )
        with
        | Some g, Some c, Some s, Some d, Some w -> (g, c, s, d, w)
        | _ -> usage ())
    | _ -> usage ()
  in
  let cfg =
    {
      (Experiments.Sharing.default_config ~gateway
         ~case:(Experiments.Tree.case_of_index case_index))
      with
      Experiments.Sharing.duration;
      warmup;
      seed;
    }
  in
  let s = Experiments.Sharing.setup cfg in
  let net = s.Experiments.Sharing.net in
  let sched = Net.Network.scheduler net in
  let links = Array.of_list (Net.Network.links net) in
  let samples = ref 0 in
  let heap = ref 0 and live = ref 0 and wire = ref 0 and wires = ref 0 in
  let sample () =
    let h = Sim.Scheduler.heap_length sched
    and p = Sim.Scheduler.pending sched in
    let w = ref 0 and nw = ref 0 in
    Array.iter
      (fun l ->
        let n = Net.Link.in_flight l in
        w := !w + n;
        if n > 0 then incr nw)
      links;
    incr samples;
    heap := !heap + h;
    live := !live + p;
    wire := !wire + !w;
    wires := !wires + !nw
  in
  let fired = ref 0 in
  let run_to horizon =
    let continue = ref true in
    while !continue do
      match Sim.Scheduler.step sched horizon with
      | `Fired ->
          incr fired;
          if !fired land 255 = 0 then sample ()
      | `Skipped -> ()
      | `Done -> continue := false
    done;
    Sim.Scheduler.run_until sched horizon
  in
  run_to warmup;
  Experiments.Sharing.start_measurement s;
  run_to duration;
  let mean x = float_of_int !x /. float_of_int (max 1 !samples) in
  (* Live events in the heap: all but the deliveries behind each
     non-empty wire's head. *)
  let in_heap = mean live -. mean wire +. mean wires in
  Printf.printf
    "events %d samples %d heap %.1f live %.1f wire %.1f wires %.1f stale %.1f\n"
    (Sim.Scheduler.events_fired sched)
    !samples (mean heap) (mean live) (mean wire) (mean wires)
    (mean heap -. in_heap)
