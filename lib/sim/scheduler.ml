type event_id = int

(* The heap stores the event closures directly: event ids and the
   heap's tie-break counter both advance in lockstep from zero (and the
   restore path re-inserts under seq = id), so the counter of a popped
   entry IS the event id and no per-event id record is allocated. *)

(* Pending-or-not is one bit per event id in a growable bitmap —
   [Bytes] indexed by id — rather than a hash table: ids are dense and
   never reused, so the bitmap gives branch-cheap O(1) schedule, fire
   and cancel with no per-event allocation, at one bit per id ever
   issued.  [pending_count] is maintained on every transition, so
   cancelling a fired, unknown or already-cancelled id cannot drift the
   pending count (cancel is a strict no-op unless the bit is set). *)

(* Cached observability handles; [None] (the default) keeps the hot
   path to a single match.  Probing never schedules events, so the
   simulation is bit-identical with or without a registry. *)
type taps = {
  events_fired_c : Obs.Registry.counter;
  clock_g : Obs.Registry.gauge;
  heartbeat : Obs.Series.t;
}

(* The clock lives in a record of its own: a record whose fields are
   all floats is stored flat, so advancing the clock on every event
   writes a raw double instead of allocating a fresh box, as a mutable
   float field of the mixed record [t] would. *)
type clock = { mutable now : float }

(* [rearm_times] is non-empty only between [restore] and the end of the
   owning components' re-arm pass: it maps each restored pending id to
   its fire time until the component that owns the event re-attaches a
   closure via [rearm]. *)
type t = {
  queue : (unit -> unit) Heap.t;
  mutable flags : Bytes.t;  (* bit id = event id is pending *)
  mutable pending_count : int;
  rearm_times : (int, float) Hashtbl.t;
  clock : clock;
  mutable next_id : int;
  mutable fired : int;
  mutable taps : taps option;
}

let initial_flag_bytes = 1024

let create () =
  {
    queue = Heap.create ();
    flags = Bytes.make initial_flag_bytes '\000';
    pending_count = 0;
    rearm_times = Hashtbl.create 16;
    clock = { now = 0.0 };
    next_id = 0;
    fired = 0;
    taps = None;
  }

let flag_is_set t id =
  let byte = id lsr 3 in
  byte < Bytes.length t.flags
  && Char.code (Bytes.unsafe_get t.flags byte) land (1 lsl (id land 7)) <> 0

let ensure_flag_capacity t id =
  let byte = id lsr 3 in
  let len = Bytes.length t.flags in
  if byte >= len then begin
    let new_len = Stdlib.max (2 * len) (byte + 1) in
    let grown = Bytes.make new_len '\000' in
    Bytes.blit t.flags 0 grown 0 len;
    t.flags <- grown
  end

let set_flag t id =
  ensure_flag_capacity t id;
  let byte = id lsr 3 in
  Bytes.unsafe_set t.flags byte
    (Char.chr (Char.code (Bytes.unsafe_get t.flags byte) lor (1 lsl (id land 7))))

let clear_flag t id =
  let byte = id lsr 3 in
  Bytes.unsafe_set t.flags byte
    (Char.chr
       (Char.code (Bytes.unsafe_get t.flags byte) land lnot (1 lsl (id land 7))))

let set_registry t reg =
  t.taps <-
    Option.map
      (fun r ->
        {
          events_fired_c = Obs.Registry.counter r "sim.events_fired";
          clock_g = Obs.Registry.gauge r "sim.time";
          heartbeat = Obs.Registry.series r "sim.heartbeat";
        })
      reg

let[@inline] now t = t.clock.now

(* Cold failure paths, kept out of line so the scheduling functions
   below stay small enough to inline and never box a fire time. *)
let[@inline never] not_finite fn what v =
  invalid_arg (Printf.sprintf "Scheduler.%s: %s %g is not finite" fn what v)

let[@inline never] in_the_past time now =
  invalid_arg
    (Printf.sprintf "Scheduler.schedule_at: %g is in the past (now %g)" time now)

(* [schedule_at] and [schedule_after] are [@inline]: their float
   argument then reaches the heap's unboxed priority array without
   being boxed at any call. *)
(* lint: hot schedule_at -- every scheduled event; the fire time must
   reach the heap unboxed *)
let[@inline] schedule_at t time action =
  if not (Float.is_finite time) then not_finite "schedule_at" "fire time" time;
  if time < t.clock.now then in_the_past time t.clock.now;
  let id = t.next_id in
  t.next_id <- id + 1;
  Heap.add t.queue ~prio:time action;
  set_flag t id;
  t.pending_count <- t.pending_count + 1;
  id

let[@inline] schedule_after t delay action =
  if not (Float.is_finite delay) then not_finite "schedule_after" "delay" delay;
  schedule_at t (t.clock.now +. delay) action

let cancel t id =
  if id >= 0 && id < t.next_id && flag_is_set t id then begin
    clear_flag t id;
    t.pending_count <- t.pending_count - 1
  end

let[@inline never] check_monotone t ~id ~time =
  Invariant.require (time >= t.clock.now) (fun () ->
      Printf.sprintf "Scheduler.step: event %d fires at %g, before the clock %g"
        id time t.clock.now)

(* Pop one event.  [`Fired] executed an event, [`Skipped] discarded a
   lazily-cancelled entry, [`Done] means the queue is exhausted or the
   next event lies beyond [horizon].  Only [`Fired] counts against
   run_until_empty's budget: a cancel-heavy run must still fire
   [max_events] real events. *)
(* lint: hot step -- fires every simulated event; the events/s number
   in BENCH_perf.json is mostly this function *)
let step t horizon =
  if Heap.is_empty t.queue then `Done
  else begin
    let time = Heap.top_prio t.queue in
    if time > horizon then `Done
    else begin
      (* Read (time, id) off the root, then pop just the closure —
         this path allocates nothing per event. *)
      let id = Heap.top_seq t.queue in
      let action = Heap.pop_top t.queue in
      if flag_is_set t id then begin
          clear_flag t id;
          t.pending_count <- t.pending_count - 1;
          if !Invariant.enabled then check_monotone t ~id ~time;
          t.clock.now <- time;
          t.fired <- t.fired + 1;
          (match t.taps with
          | None -> ()
          | Some taps ->
              Obs.Registry.incr taps.events_fired_c;
              Obs.Registry.set taps.clock_g time;
              Obs.Series.add taps.heartbeat ~time (float_of_int t.fired));
          action ();
          `Fired
        end
        else `Skipped
    end
  end

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match step t horizon with `Fired | `Skipped -> () | `Done -> continue := false
  done;
  if horizon > t.clock.now then t.clock.now <- horizon

let run_until_empty t ~max_events =
  let budget = ref max_events in
  let continue = ref (max_events > 0) in
  while !continue do
    match step t infinity with
    | `Fired ->
        decr budget;
        if !budget <= 0 then continue := false
    | `Skipped -> ()
    | `Done -> continue := false
  done

let pending t = t.pending_count

let events_fired t = t.fired

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_clock : float;
  s_next_id : int;
  s_fired : int;
  s_pending : (int * float) list;
}

(* Closures cannot be serialized, so a captured scheduler records only
   which events are pending and when they fire.  On restore each owning
   component re-attaches its closure through [rearm]; heap tie-break
   counters equal event ids (both advance in lockstep from zero), so
   re-inserting under seq = id reproduces the original pop order
   exactly.  Cancelled-but-unpopped heap entries are deliberately
   dropped: skipping them is side-effect-free. *)
let capture t =
  let pend =
    List.filter_map
      (fun (prio, seq, _) -> if flag_is_set t seq then Some (seq, prio) else None)
      (Heap.capture t.queue)
  in
  {
    s_clock = t.clock.now;
    s_next_id = t.next_id;
    s_fired = t.fired;
    s_pending = List.sort (fun (a, _) (b, _) -> Int.compare a b) pend;
  }

let restore t st =
  Heap.clear t.queue;
  Heap.set_next_seq t.queue st.s_next_id;
  Bytes.fill t.flags 0 (Bytes.length t.flags) '\000';
  ensure_flag_capacity t st.s_next_id;
  t.pending_count <- 0;
  Hashtbl.reset t.rearm_times;
  t.clock.now <- st.s_clock;
  t.next_id <- st.s_next_id;
  t.fired <- st.s_fired;
  List.iter (fun (id, at) -> Hashtbl.replace t.rearm_times id at) st.s_pending

let rearm t ~id action =
  match Hashtbl.find_opt t.rearm_times id with
  | None ->
      invalid_arg
        (Printf.sprintf "Scheduler.rearm: event %d is not awaiting restore" id)
  | Some at ->
      Hashtbl.remove t.rearm_times id;
      Heap.add_with_seq t.queue ~prio:at ~seq:id action;
      set_flag t id;
      t.pending_count <- t.pending_count + 1

let unrestored t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.rearm_times []
  |> List.sort Int.compare
