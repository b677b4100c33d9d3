type event_id = int

(* The heap stores the event closures directly, keyed by (fire time,
   event id): every insert passes its event id as the heap's tie-break
   counter, so the counter of a popped entry IS the event id and no
   per-event id record is allocated.

   Only events that can fire next sit in the heap.  Two kinds of entry
   would otherwise crowd it:

   - Packet deliveries.  A link's wire is FIFO in (time, id) order (the
     delivery clamp keeps times nondecreasing and ids only grow), so
     the global event order is a k-way merge of the wires with
     everything else, and the heap needs only each wire's head.  A
     [lane] holds a wire's (time, id) pairs in unboxed arrays; the head
     is in the heap, and when it fires the next pair enters the heap
     under its own id.
   - Cancelled entries.  Cancellation is lazy (a cleared pending bit),
     and a retransmission timer cancelled and re-armed on every ack
     leaves one dead entry per ack for about one RTO.  [stale] counts
     them; once they exceed a quarter of the heap (and a small floor),
     [compact] filters them out with an O(n) rebuild, so a rebuild is
     paid for by at least n/4 cancels. *)

(* Pending-or-not is one bit per event id in a bitmap — [Bytes]
   indexed by [id - flag_base] — rather than a hash table: ids are
   dense and never reused, so the bitmap gives branch-cheap O(1)
   schedule, fire and cancel with no per-event allocation.  The bitmap
   is a window that covers every pending id; ids below it are not
   pending.  When a new id falls past its end, [make_room] slides the
   window up to the least pending id and grows it only if the pending
   span needs more than half of it.  Its size therefore follows the
   span of pending ids (under 10^5 ids on figure 6), not the number of
   ids ever issued (4 M in a 20 s run, some 700 M at paper length).
   [pending_count] is maintained on every transition, so cancelling a
   fired, unknown or already-cancelled id cannot drift the pending
   count (cancel is a strict no-op unless the bit is set). *)

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

type t = {
  queue : (unit -> unit) Heap.t;
  mutable flags : Bytes.t;  (* bit [id - flag_base]: [id] is pending *)
  mutable flag_base : int;  (* a multiple of 8, <= every pending id *)
  mutable pending_count : int;
  mutable stale : int;  (* cancelled entries still in [queue] *)
  clock : clock;
  mutable next_id : int;
  mutable fired : int;
  mutable taps : taps option;
}

(* A FIFO of (fire time, event id) pairs sharing one action, in a ring
   of power-of-two capacity.  While [len > 0] the front pair is in the
   owner's heap with [fire] as its value; the other pairs are not. *)
and lane = {
  owner : t;
  mutable times : Float.Array.t;
  mutable ids : int array;
  mutable head : int;
  mutable len : int;
  mutable action : unit -> unit;
  mutable fire : unit -> unit;  (* retire the head, then [action] *)
}

let initial_flag_bytes = 1024

let create () =
  {
    queue = Heap.create ();
    flags = Bytes.make initial_flag_bytes '\000';
    flag_base = 0;
    pending_count = 0;
    stale = 0;
    clock = { now = 0.0 };
    next_id = 0;
    fired = 0;
    taps = None;
  }

(* [lsr] makes an id below the window a huge byte index, so one bounds
   test covers both ends.  [flag_base] is a multiple of 8, so the bit
   within the byte is [id land 7]. *)
let flag_is_set t id =
  let byte = (id - t.flag_base) lsr 3 in
  byte < Bytes.length t.flags
  && Char.code (Bytes.unsafe_get t.flags byte) land (1 lsl (id land 7)) <> 0

(* The least pending id: the heap holds it, since every lane entry
   behind a head has a larger id than the head. *)
let least_pending t = Heap.min_seq t.queue flag_is_set t

(* Move the window so that it starts at the least pending id (or at
   [id], if that is less) and reaches past [id].  Sliding in place
   leaves at least half the window free, and growing doubles it, so
   the O(window + heap) cost is paid once per window/2 new ids. *)
let make_room t id =
  let lo = least_pending t in
  let base = (if lo < id then lo else id) land lnot 7 in
  if base < t.flag_base then
    invalid_arg
      (Printf.sprintf "Scheduler: event %d precedes the pending window" id);
  let len = Bytes.length t.flags in
  let shift = (base - t.flag_base) lsr 3 in
  let kept = if shift < len then len - shift else 0 in
  let need = ((id - base) lsr 3) + 1 in
  if 2 * need <= len then begin
    Bytes.blit t.flags shift t.flags 0 kept;
    Bytes.fill t.flags kept (len - kept) '\000'
  end
  else begin
    let grown = Bytes.make (Stdlib.max (2 * len) (2 * need)) '\000' in
    Bytes.blit t.flags shift grown 0 kept;
    t.flags <- grown
  end;
  t.flag_base <- base

let ensure_flag_capacity t id =
  if (id - t.flag_base) lsr 3 >= Bytes.length t.flags then make_room t id

let set_flag t id =
  ensure_flag_capacity t id;
  let byte = (id - t.flag_base) lsr 3 in
  Bytes.unsafe_set t.flags byte
    (Char.chr (Char.code (Bytes.unsafe_get t.flags byte) lor (1 lsl (id land 7))))

(* Only called on an id whose bit is set, so inside the window. *)
let clear_flag t id =
  let byte = (id - t.flag_base) lsr 3 in
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

let[@inline never] in_the_past fn time now =
  invalid_arg
    (Printf.sprintf "Scheduler.%s: %g is in the past (now %g)" fn time now)

(* [schedule_at] and [schedule_after] are [@inline]: their float
   argument then reaches the heap's unboxed priority array without
   being boxed at any call. *)
(* lint: hot schedule_at -- every scheduled event; the fire time must
   reach the heap unboxed *)
let[@inline] schedule_at t time action =
  if not (Float.is_finite time) then not_finite "schedule_at" "fire time" time;
  if time < t.clock.now then in_the_past "schedule_at" time t.clock.now;
  let id = t.next_id in
  t.next_id <- id + 1;
  Heap.add_with_seq t.queue ~prio:time ~seq:id action;
  set_flag t id;
  t.pending_count <- t.pending_count + 1;
  id

let[@inline] schedule_after t delay action =
  if not (Float.is_finite delay) then not_finite "schedule_after" "delay" delay;
  schedule_at t (t.clock.now +. delay) action

(* Compaction keeps [stale <= max compact_floor (heap length / 4)]
   after every cancel.  The floor spares small heaps a rebuild every
   few cancels. *)
let compact_floor = 32

let compact t =
  Heap.filter_seq t.queue flag_is_set t;
  t.stale <- 0

let cancel t id =
  if id >= 0 && id < t.next_id && flag_is_set t id then begin
    clear_flag t id;
    t.pending_count <- t.pending_count - 1;
    t.stale <- t.stale + 1;
    if t.stale > compact_floor && 4 * t.stale > Heap.length t.queue then
      compact t
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
(* lint: hot step -- fires every simulated event; perfbench's sim.*
   per-layer numbers are mostly this function *)
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
        else begin
          t.stale <- t.stale - 1;
          `Skipped
        end
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

let heap_length t = Heap.length t.queue

(* --- delivery lanes ------------------------------------------------- *)

module Lane = struct
  type t = lane

  let initial_capacity = 16

  let grow l =
    let cap = Array.length l.ids in
    let new_cap = if cap = 0 then initial_capacity else 2 * cap in
    let times = Float.Array.create new_cap in
    let ids = Array.make new_cap 0 in
    for i = 0 to l.len - 1 do
      let k = (l.head + i) land (cap - 1) in
      Float.Array.unsafe_set times i (Float.Array.unsafe_get l.times k);
      Array.unsafe_set ids i (Array.unsafe_get l.ids k)
    done;
    l.times <- times;
    l.ids <- ids;
    l.head <- 0

  let[@inline] last_index l = (l.head + l.len - 1) land (Array.length l.ids - 1)

  let[@inline] append l ~time ~id =
    if l.len = Array.length l.ids then grow l;
    let k = (l.head + l.len) land (Array.length l.ids - 1) in
    Float.Array.unsafe_set l.times k time;
    Array.unsafe_set l.ids k id;
    l.len <- l.len + 1

  (* lint: hot Lane.fire -- every packet delivery; retires the head
     that just fired and moves the next pair into the heap without
     boxing its time *)
  let fire l =
    let t = l.owner in
    l.head <- (l.head + 1) land (Array.length l.ids - 1);
    l.len <- l.len - 1;
    if l.len > 0 then
      Heap.add_with_seq t.queue
        ~prio:(Float.Array.unsafe_get l.times l.head)
        ~seq:(Array.unsafe_get l.ids l.head)
        l.fire;
    l.action ()

  let create sched =
    let l =
      {
        owner = sched;
        times = Float.Array.create 0;
        ids = [||];
        head = 0;
        len = 0;
        action = ignore;
        fire = ignore;
      }
    in
    l.fire <- (fun () -> fire l);
    l

  let set_action l action = l.action <- action

  let[@inline never] out_of_order time last =
    invalid_arg
      (Printf.sprintf
         "Scheduler.Lane.push: %g precedes the lane's last entry %g" time last)

  (* [@inline] like [schedule_at]: the fire time reaches the heap and
     the lane's float array without being boxed. *)
  (* lint: hot Lane.push -- every packet that finishes serialization;
     the fire time must reach the lane unboxed *)
  let[@inline] push l time =
    let t = l.owner in
    if not (Float.is_finite time) then not_finite "Lane.push" "fire time" time;
    if time < t.clock.now then in_the_past "Lane.push" time t.clock.now;
    if l.len > 0 then begin
      let last = Float.Array.unsafe_get l.times (last_index l) in
      if time < last then out_of_order time last
    end;
    let id = t.next_id in
    t.next_id <- id + 1;
    set_flag t id;
    t.pending_count <- t.pending_count + 1;
    if l.len = 0 then Heap.add_with_seq t.queue ~prio:time ~seq:id l.fire;
    append l ~time ~id
end

