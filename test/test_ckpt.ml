(* Checkpoint subsystem tests: codec primitives and container
   robustness (truncation, corruption), journal save/load/diff, the
   manager's boundaries, and end-to-end save -> replay -> resume
   checks, including the ways a checkpoint must fail to load (the slow
   byte-identity variant lives in test_integration.ml). *)

let tmp_file suffix =
  Filename.temp_file "rla_ckpt_test" suffix

(* --- codec primitives ----------------------------------------------- *)

let test_primitive_round_trip () =
  let b = Buffer.create 64 in
  Ckpt.Codec.w_int b 42;
  Ckpt.Codec.w_int b (-7);
  Ckpt.Codec.w_f64 b 3.25;
  Ckpt.Codec.w_f64 b (-0.0);
  Ckpt.Codec.w_f64 b infinity;
  Ckpt.Codec.w_f64 b nan;
  Ckpt.Codec.w_bool b true;
  Ckpt.Codec.w_string b "hello\x00world";
  Ckpt.Codec.w_option Ckpt.Codec.w_int b None;
  Ckpt.Codec.w_option Ckpt.Codec.w_int b (Some 9);
  Ckpt.Codec.w_list Ckpt.Codec.w_int b [ 1; 2; 3 ];
  let r = Ckpt.Codec.reader (Buffer.contents b) in
  Alcotest.(check int) "int" 42 (Ckpt.Codec.r_int r);
  Alcotest.(check int) "negative int" (-7) (Ckpt.Codec.r_int r);
  Alcotest.(check (float 0.0)) "float" 3.25 (Ckpt.Codec.r_f64 r);
  Alcotest.(check bool) "negative zero bits" true
    (Int64.equal (Int64.bits_of_float (Ckpt.Codec.r_f64 r))
       (Int64.bits_of_float (-0.0)));
  Alcotest.(check bool) "infinity" true
    (Float.equal (Ckpt.Codec.r_f64 r) infinity);
  Alcotest.(check bool) "nan round-trips" true (Float.is_nan (Ckpt.Codec.r_f64 r));
  Alcotest.(check bool) "bool" true (Ckpt.Codec.r_bool r);
  Alcotest.(check string) "string with NUL" "hello\x00world"
    (Ckpt.Codec.r_string r);
  Alcotest.(check bool) "none" true
    (Ckpt.Codec.r_option Ckpt.Codec.r_int r = None);
  Alcotest.(check bool) "some" true
    (Ckpt.Codec.r_option Ckpt.Codec.r_int r = Some 9);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Ckpt.Codec.r_list Ckpt.Codec.r_int r);
  Alcotest.(check bool) "fully consumed" true (Ckpt.Codec.at_end r)

let test_i64_and_pair_round_trip () =
  let b = Buffer.create 32 in
  Ckpt.Codec.w_i64 b 0x0123456789ABCDEFL;
  Ckpt.Codec.w_i64 b (-1L);
  Ckpt.Codec.w_pair Ckpt.Codec.w_int Ckpt.Codec.w_f64 b (42, 1.5);
  let r = Ckpt.Codec.reader (Buffer.contents b) in
  Alcotest.(check int64) "i64" 0x0123456789ABCDEFL (Ckpt.Codec.r_i64 r);
  Alcotest.(check int64) "negative i64" (-1L) (Ckpt.Codec.r_i64 r);
  let i, f = Ckpt.Codec.r_pair Ckpt.Codec.r_int Ckpt.Codec.r_f64 r in
  Alcotest.(check int) "pair fst" 42 i;
  Alcotest.(check (float 0.0)) "pair snd" 1.5 f;
  Alcotest.(check bool) "fully consumed" true (Ckpt.Codec.at_end r)

let test_parse_payload_trailing_bytes () =
  let b = Buffer.create 16 in
  Ckpt.Codec.w_int b 7;
  Ckpt.Codec.w_int b 9;
  let section = { Ckpt.Codec.name = "x"; payload = Buffer.contents b } in
  (match Ckpt.Codec.parse_payload section Ckpt.Codec.r_int with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e -> Alcotest.failf "wrong error %s" (Ckpt.Codec.error_to_string e));
  match
    Ckpt.Codec.parse_payload section
      (Ckpt.Codec.r_pair Ckpt.Codec.r_int Ckpt.Codec.r_int)
  with
  | Ok (7, 9) -> ()
  | Ok _ -> Alcotest.fail "wrong payload decoded"
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)

let sections_fixture =
  [
    { Ckpt.Codec.name = "alpha"; payload = "some payload bytes" };
    { Ckpt.Codec.name = "beta"; payload = "" };
    { Ckpt.Codec.name = "gamma"; payload = String.init 256 Char.chr };
  ]

let test_container_round_trip () =
  let encoded = Ckpt.Codec.encode sections_fixture in
  match Ckpt.Codec.decode encoded with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok sections ->
      Alcotest.(check int) "section count" 3 (List.length sections);
      List.iter2
        (fun (a : Ckpt.Codec.section) (b : Ckpt.Codec.section) ->
          Alcotest.(check string) "name" a.Ckpt.Codec.name b.Ckpt.Codec.name;
          Alcotest.(check string) "payload" a.payload b.payload)
        sections_fixture sections

let test_truncation_never_raises () =
  (* Every proper prefix of a valid file must decode to a typed error,
     never an exception. *)
  let encoded = Ckpt.Codec.encode sections_fixture in
  for len = 0 to String.length encoded - 1 do
    match Ckpt.Codec.decode (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded successfully" len
    | Error (Ckpt.Codec.Truncated | Ckpt.Codec.Bad_magic) -> ()
    | Error e ->
        Alcotest.failf "prefix of %d bytes: unexpected %s" len
          (Ckpt.Codec.error_to_string e)
  done

let test_corruption_detected_per_section () =
  let encoded = Ckpt.Codec.encode sections_fixture in
  (* Flip a byte inside the last section's payload: the CRC must name
     that section. *)
  let target = "gamma" in
  let idx =
    (* The 257-byte payload is unique; find one of its bytes. *)
    let rec find i =
      if i >= String.length encoded then Alcotest.fail "pattern not found"
      else if
        i + 4 <= String.length encoded
        && String.equal (String.sub encoded i 4) "\x00\x01\x02\x03"
      then i
      else find (i + 1)
    in
    find 0
  in
  let corrupted = Bytes.of_string encoded in
  Bytes.set corrupted (idx + 2) '\xff';
  (match Ckpt.Codec.decode (Bytes.to_string corrupted) with
  | Error (Ckpt.Codec.Crc_mismatch name) ->
      Alcotest.(check string) "names the bad section" target name
  | Ok _ -> Alcotest.fail "corruption went undetected"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e));
  (* Bad magic. *)
  let bad_magic = Bytes.of_string encoded in
  Bytes.set bad_magic 0 'X';
  (match Ckpt.Codec.decode (Bytes.to_string bad_magic) with
  | Error Ckpt.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic undetected");
  (* Future version. *)
  let bad_version = Bytes.of_string encoded in
  Bytes.set bad_version 15 '\x63';
  match Ckpt.Codec.decode (Bytes.to_string bad_version) with
  | Error (Ckpt.Codec.Bad_version 99) -> ()
  | _ -> Alcotest.fail "version mismatch undetected"

let test_load_file_errors () =
  (match Ckpt.Codec.load_file ~path:"/nonexistent/rla.ckpt" with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "missing file should be Malformed with the OS message");
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.Codec.save_file ~path sections_fixture;
      (match Ckpt.Codec.load_file ~path with
      | Ok s -> Alcotest.(check int) "sections back" 3 (List.length s)
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e));
      (* Truncate the file on disk: typed error, no exception. *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      match Ckpt.Codec.load_file ~path with
      | Error Ckpt.Codec.Truncated -> ()
      | Ok _ -> Alcotest.fail "truncated file loaded"
      | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e))

(* --- journal --------------------------------------------------------- *)

let test_journal_save_load_diff () =
  let j1 = Ckpt.Journal.create () in
  let j2 = Ckpt.Journal.create () in
  let e1 = { Ckpt.Journal.time = 1.5; source = "rla.flow0"; event = "window_cut"; value = 4.0 } in
  let e2 = { Ckpt.Journal.time = 2.25; source = "link3"; event = "drop"; value = 1.0 } in
  let e3 = { Ckpt.Journal.time = 3.0; source = "tcp.flow4"; event = "window_cut"; value = 2.0 } in
  List.iter (Ckpt.Journal.record j1) [ e1; e2; e3 ];
  List.iter (Ckpt.Journal.record j2) [ e1; e2 ];
  (match Ckpt.Journal.diff j1 j1 with
  | None -> ()
  | Some _ -> Alcotest.fail "identical journals diff");
  (match Ckpt.Journal.diff j1 j2 with
  | Some { Ckpt.Journal.index = 2; a = Some a; b = None } ->
      Alcotest.(check string) "divergent event" "window_cut" a.Ckpt.Journal.event
  | _ -> Alcotest.fail "expected divergence at index 2");
  let path = tmp_file ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.Journal.save j1 ~path;
      match Ckpt.Journal.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok j1' -> (
          match Ckpt.Journal.diff j1 j1' with
          | None -> ()
          | Some d ->
              Alcotest.failf "journal changed across save/load at %d"
                d.Ckpt.Journal.index))

let test_journal_entries_bit_exact () =
  let j = Ckpt.Journal.create () in
  let e = { Ckpt.Journal.time = 1.0; source = "t"; event = "e"; value = 0.5 } in
  Ckpt.Journal.record j e;
  Ckpt.Journal.record j { e with Ckpt.Journal.value = -0.0 };
  match Ckpt.Journal.entries j with
  | [ a; b ] ->
      Alcotest.(check bool) "recording order preserved" true
        (Ckpt.Journal.entry_equal a e);
      Alcotest.(check bool) "-0. and 0. are distinct payloads" false
        (Ckpt.Journal.entry_equal b { e with Ckpt.Journal.value = 0.0 })
  | _ -> Alcotest.fail "expected two entries"

(* --- manager --------------------------------------------------------- *)

let test_manager_boundaries () =
  (* An empty network still advances its clock under [run_until], so
     the boundary arithmetic is testable without a simulation. *)
  let saves manager until =
    let net = Net.Network.create ~seed:1 () in
    let log = ref [] in
    let m = manager (fun ~time -> log := time :: !log) in
    Ckpt.Manager.run m ~net ~until;
    List.rev !log
  in
  Alcotest.(check (list (float 0.0)))
    "boundaries, final horizon included" [ 2.0; 4.0; 6.0 ]
    (saves (fun save -> Ckpt.Manager.create ~every:2.0 ~save) 6.0);
  Alcotest.(check (list (float 0.0)))
    "resume_from skips saved boundaries" [ 6.0; 8.0 ]
    (saves
       (fun save ->
         let m = Ckpt.Manager.create ~every:2.0 ~save in
         Ckpt.Manager.resume_from m 4.0;
         m)
       8.0)

(* --- end-to-end save/load/resume (fast variant) ---------------------- *)

let small_config =
  {
    (Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
       ~case:Experiments.Tree.L4_all)
    with
    Experiments.Sharing.duration = 30.0;
    warmup = 10.0;
    seed = 11;
  }

let test_save_load_resume_equivalent () =
  let dir = Filename.temp_file "rla_ckpt_dir" "" in
  Sys.remove dir;
  let reference = Experiments.Sharing.run small_config in
  let checkpointed =
    Ckpt.Sharing_ckpt.run_with_checkpoints ~every:8.0 ~dir ~prefix:"t"
      small_config
  in
  (* Checkpointing is passive: same result as the plain run. *)
  Alcotest.(check (float 0.0)) "ckpt run: same send rate"
    reference.Experiments.Sharing.rla.Rla.Sender.send_rate
    checkpointed.Experiments.Sharing.rla.Rla.Sender.send_rate;
  let ckpt_t16 = Ckpt.Sharing_ckpt.checkpoint_file ~dir ~prefix:"t" ~time:16.0 in
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ckpt_t16);
  (match Ckpt.Sharing_ckpt.load ~path:ckpt_t16 with
  | Error e -> Alcotest.fail (Ckpt.Sharing_ckpt.error_to_string e)
  | Ok loaded ->
      Alcotest.(check (float 0.0)) "poised at capture time" 16.0
        loaded.Ckpt.Sharing_ckpt.time;
      let resumed = Ckpt.Sharing_ckpt.resume_run loaded in
      Alcotest.(check (float 0.0)) "resumed: same send rate"
        reference.Experiments.Sharing.rla.Rla.Sender.send_rate
        resumed.Experiments.Sharing.rla.Rla.Sender.send_rate;
      Alcotest.(check int) "resumed: same signals"
        reference.Experiments.Sharing.rla.Rla.Sender.congestion_signals
        resumed.Experiments.Sharing.rla.Rla.Sender.congestion_signals;
      Alcotest.(check (float 0.0)) "resumed: same worst-TCP send rate"
        reference.Experiments.Sharing.wtcp.Tcp.Sender.send_rate
        resumed.Experiments.Sharing.wtcp.Tcp.Sender.send_rate);
  (* Meta inspection without a replay. *)
  (match Ckpt.Codec.load_file ~path:ckpt_t16 with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok sections -> (
      match Ckpt.Sharing_ckpt.read_meta sections with
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
      | Ok (meta, config) ->
          Alcotest.(check (float 0.0)) "meta time" 16.0 meta.Ckpt.Sharing_ckpt.time;
          Alcotest.(check bool) "meta: no registry" false
            meta.Ckpt.Sharing_ckpt.registry;
          Alcotest.(check int) "config seed" 11 config.Experiments.Sharing.seed));
  (* Clean up checkpoint files. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- hardened TCP endpoint: restore at T/2 is byte-identical --------- *)

(* Every hardened sender/receiver feature at once — handshake with
   window scaling, a finite receive window (persist timer + zero-window
   probes), Karn's algorithm, strict RFC 5961 validation — plus one
   challenged RST and one ghosted data injection before T/2.  Restoring
   replays, so a fresh build driven to T/2 and then on to T must end in
   exactly the reference run's state. *)
let hardened_fixture () =
  let net = Net.Network.create ~seed:13 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore
    (Net.Network.duplex net a b
       {
         Net.Link.bandwidth_bps = 10_000.0 *. 8000.0;
         prop_delay = 0.01;
         queue = Net.Queue_disc.Droptail;
         capacity = 200;
         phase_jitter = false;
       });
  Net.Network.install_routes net;
  let params =
    {
      Tcp.Sender.default_params with
      Tcp.Sender.handshake = true;
      wscale = 3;
      window = Some { Tcp.Receiver.capacity = 8; app_rate = 20.0 };
      karn = true;
    }
  in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params () in
  (net, a, b, tcp)

(* Drive the fixture to [until], injecting one in-window RST and one
   far-out-of-window data segment at t=2 (both before any capture
   point this test uses). *)
let hardened_drive (net, a, b, tcp) ~until =
  Net.Network.run_until net (Stdlib.min 2.0 until);
  if until >= 2.0 then begin
    let flow = Tcp.Sender.flow tcp in
    let rcv = Tcp.Sender.receiver tcp in
    let send payload size =
      Net.Network.send net
        (Net.Network.make_packet net ~flow ~src:a ~dst:(Net.Packet.Unicast b)
           ~size ~payload)
    in
    (* In-window for the 8-packet validation window, ahead of the ~20
       pkt/s drain-throttled in-order point during the 10 ms flight. *)
    send
      (Tcp.Wire.Tcp_rst { seq = Tcp.Receiver.expected rcv + 4 })
      Tcp.Wire.ack_size;
    send (Tcp.Wire.Tcp_data { seq = 50_000_000; sent_at = 2.0 }) 1000;
    Net.Network.run_until net until
  end

(* Everything the run exposes about the endpoint and its scheduler.
   Compared with [compare], so NaN fields compare equal to themselves. *)
let hardened_state (net, _, _, tcp) =
  let rcv = Tcp.Sender.receiver tcp in
  let sched = Net.Network.scheduler net in
  ( Tcp.Sender.snapshot tcp,
    (Sim.Scheduler.now sched, Sim.Scheduler.events_fired sched,
     Sim.Scheduler.pending sched),
    ( Tcp.Receiver.expected rcv,
      Tcp.Receiver.rst_challenged rcv,
      Tcp.Receiver.ghost_data rcv,
      Tcp.Sender.zero_window_probes tcp ) )

let test_hardened_endpoint_restore_at_half () =
  let t_full = 20.0 and t_half = 10.0 in
  (* Uninterrupted reference. *)
  let ((_, _, _, tcp_ref) as ref_fx) = hardened_fixture () in
  hardened_drive ref_fx ~until:t_full;
  (* Restored at T/2: a fresh build replayed to T/2, then finished. *)
  let ((net2, _, _, _) as fx2) = hardened_fixture () in
  hardened_drive fx2 ~until:t_half;
  Net.Network.run_until net2 t_full;
  (* The features actually engaged before the cut... *)
  let rcv_ref = Tcp.Sender.receiver tcp_ref in
  Alcotest.(check bool) "handshake completed" true
    (Tcp.Sender.established tcp_ref);
  Alcotest.(check int) "wscale negotiated" 3
    (Tcp.Sender.negotiated_wscale tcp_ref);
  Alcotest.(check bool) "persist probes sent" true
    (Tcp.Sender.zero_window_probes tcp_ref > 0);
  Alcotest.(check int) "RST challenged" 1 (Tcp.Receiver.rst_challenged rcv_ref);
  Alcotest.(check int) "injection ghosted" 1 (Tcp.Receiver.ghost_data rcv_ref);
  (* ... and the restored run ends in the reference's exact state. *)
  Alcotest.(check bool) "byte-identical final state" true
    (compare (hardened_state ref_fx) (hardened_state fx2) = 0)

(* --- checkpoints that must not load ---------------------------------- *)

(* Save a checkpoint of [config] at [time] (before its warm-up, so the
   plain run loop and the checkpoint run loop coincide). *)
let save_at config ~time path =
  let session = Experiments.Sharing.setup config in
  Net.Network.run_until session.Experiments.Sharing.net time;
  Ckpt.Sharing_ckpt.save ~path ~time ~config ~session ()

let load_sections path =
  match Ckpt.Codec.load_file ~path with
  | Ok sections -> sections
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)

let expect_error what path check =
  match Ckpt.Sharing_ckpt.load ~path with
  | Ok _ -> Alcotest.failf "%s: checkpoint loaded" what
  | Error e ->
      if not (check e) then
        Alcotest.failf "%s: unexpected error %s" what
          (Ckpt.Sharing_ckpt.error_to_string e)

let test_restore_rejects_wrong_topology () =
  (* A checkpoint cut short in its last section loads as a typed
     [Truncated] error, not an exception and not a replay. *)
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      save_at small_config ~time:5.0 path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 11)));
      match Ckpt.Sharing_ckpt.load ~path with
      | Error (Ckpt.Sharing_ckpt.Codec_error Ckpt.Codec.Truncated) -> ()
      | Error e ->
          Alcotest.failf "unexpected error %s"
            (Ckpt.Sharing_ckpt.error_to_string e)
      | Ok _ -> Alcotest.fail "truncated checkpoint restored")

let test_rewritten_config_digest_mismatch () =
  (* Splice the config section of a seed-12 checkpoint into a seed-11
     one.  [Codec.save_file] recomputes the CRCs, so the container is
     valid; only the replay can tell that the config no longer leads to
     the recorded state. *)
  let path = tmp_file ".ckpt" and other = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove other)
    (fun () ->
      save_at small_config ~time:5.0 path;
      save_at
        { small_config with Experiments.Sharing.seed = 12 }
        ~time:5.0 other;
      (match Ckpt.Sharing_ckpt.load ~path with
      | Ok loaded ->
          Alcotest.(check (float 0.0)) "untouched file replays to t=5" 5.0
            (Net.Network.now
               loaded.Ckpt.Sharing_ckpt.session.Experiments.Sharing.net)
      | Error e -> Alcotest.fail (Ckpt.Sharing_ckpt.error_to_string e));
      let config_12 =
        List.find
          (fun s -> String.equal s.Ckpt.Codec.name "config")
          (load_sections other)
      in
      Ckpt.Codec.save_file ~path
        (List.map
           (fun s ->
             if String.equal s.Ckpt.Codec.name "config" then config_12 else s)
           (load_sections path));
      (match Ckpt.Sharing_ckpt.read_meta (load_sections path) with
      | Ok (_, config) ->
          Alcotest.(check int) "config now says seed 12" 12
            config.Experiments.Sharing.seed
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e));
      expect_error "rewritten config" path (function
        | Ckpt.Sharing_ckpt.Digest_mismatch _ -> true
        | _ -> false))

let test_time_beyond_duration () =
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun time ->
          let session = Experiments.Sharing.setup small_config in
          Ckpt.Sharing_ckpt.save ~path ~time ~config:small_config ~session ();
          expect_error (Printf.sprintf "t=%g" time) path (function
            | Ckpt.Sharing_ckpt.Bad_time t ->
                Int64.equal (Int64.bits_of_float t) (Int64.bits_of_float time)
            | _ -> false))
        [
          small_config.Experiments.Sharing.duration +. 5.0; -1.0; nan; infinity;
        ])

let test_old_version_rejected () =
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      save_at small_config ~time:5.0 path;
      let bytes =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      Alcotest.(check bool) "a checkpoint is under 4 KB" true
        (Bytes.length bytes < 4096);
      Alcotest.(check char) "written as version 3" '\x03' (Bytes.get bytes 15);
      (* The overlay formats were versions 1 and 2. *)
      List.iter
        (fun v ->
          Bytes.set bytes 15 (Char.chr v);
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc bytes);
          expect_error (Printf.sprintf "version %d" v) path (function
            | Ckpt.Sharing_ckpt.Codec_error (Ckpt.Codec.Bad_version n) -> n = v
            | _ -> false))
        [ 1; 2 ])

let () =
  Alcotest.run "ckpt"
    [
      ( "codec",
        [
          Alcotest.test_case "primitives round-trip" `Quick
            test_primitive_round_trip;
          Alcotest.test_case "i64/pair round-trip" `Quick
            test_i64_and_pair_round_trip;
          Alcotest.test_case "parse_payload trailing bytes" `Quick
            test_parse_payload_trailing_bytes;
          Alcotest.test_case "container round-trip" `Quick
            test_container_round_trip;
          Alcotest.test_case "truncation -> typed error" `Quick
            test_truncation_never_raises;
          Alcotest.test_case "corruption detected per section" `Quick
            test_corruption_detected_per_section;
          Alcotest.test_case "file save/load errors" `Quick test_load_file_errors;
        ] );
      ( "journal",
        [
          Alcotest.test_case "save/load/diff" `Quick test_journal_save_load_diff;
          Alcotest.test_case "entries bit-exact" `Quick
            test_journal_entries_bit_exact;
        ] );
      ( "manager",
        [
          Alcotest.test_case "interval boundaries" `Quick
            test_manager_boundaries;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "save/load/resume equivalent" `Slow
            test_save_load_resume_equivalent;
          Alcotest.test_case "rejects damaged checkpoints" `Quick
            test_restore_rejects_wrong_topology;
          Alcotest.test_case "hardened endpoint restore at T/2" `Quick
            test_hardened_endpoint_restore_at_half;
          Alcotest.test_case "rewritten config -> digest mismatch" `Quick
            test_rewritten_config_digest_mismatch;
          Alcotest.test_case "time beyond duration -> typed error" `Quick
            test_time_beyond_duration;
          Alcotest.test_case "overlay-format file -> bad version" `Quick
            test_old_version_rejected;
        ] );
    ]
