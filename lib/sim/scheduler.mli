(** Discrete-event scheduler.

    Time is a [float] in seconds.  Events are closures fired in
    nondecreasing time order; simultaneous events fire in scheduling
    order.  Events can be cancelled through the handle returned at
    scheduling time (used for retransmission timers). *)

type t

type event_id = int
(** Handle for cancelling a scheduled event.  Ids are dense, start at 0
    and never repeat within a run. *)

val create : unit -> t

val now : t -> float
(** Current simulated time (seconds). *)

val schedule_at : t -> float -> (unit -> unit) -> event_id
(** [schedule_at t time f] fires [f] at absolute [time].  Scheduling in
    the past, or at a non-finite time (NaN or infinite, which would
    poison the heap ordering), raises [Invalid_argument]. *)

val schedule_after : t -> float -> (unit -> unit) -> event_id
(** [schedule_after t delay f] fires [f] [delay] seconds from now.
    Raises [Invalid_argument] on a negative or non-finite delay. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event.  Cancelling an event that already fired,
    was already cancelled, or never existed is a strict no-op: it
    neither perturbs {!pending} nor affects any other event.  A
    cancelled event stays in the heap until it is popped or until
    cancelled entries exceed a quarter of the heap, when they are all
    filtered out in one O(n) pass.  Lane entries ({!Lane.push}) have no
    handle and cannot be cancelled. *)

val step : t -> float -> [ `Fired | `Skipped | `Done ]
(** Pop one event at or before the horizon: [`Fired] executed it,
    [`Skipped] discarded a lazily-cancelled entry, [`Done] means the
    queue is exhausted or the next event lies beyond the horizon.  The
    run loops are built on this; it is the per-event hot path and must
    stay allocation-free. *)

val run_until : t -> float -> unit
(** Execute events in order until the queue is empty or the next event
    is past the horizon; the clock ends at exactly the horizon. *)

val run_until_empty : t -> max_events:int -> unit
(** Run until no events remain or [max_events] have fired. *)

val pending : t -> int
(** Number of pending (non-cancelled) events, lane entries included. *)

val heap_length : t -> int
(** Entries in the event heap: every pending event that is not queued
    behind a lane's head, plus cancelled entries not yet discarded.
    Read-only; for depth probes and tests. *)

val set_registry : t -> Obs.Registry.t option -> unit
(** Install (or remove, with [None]) a metrics registry.  With one
    installed, each fired event bumps the ["sim.events_fired"] counter,
    updates the ["sim.time"] gauge, and offers a decimated
    ["sim.heartbeat"] sample (simulated time vs events fired).  Probing
    is passive: it never schedules events, so runs are bit-identical
    with observability on or off. *)

val events_fired : t -> int
(** Total number of events executed so far. *)

(** {1 Delivery lanes}

    A lane is a FIFO of events that share one action and fire in the
    order they were pushed: a link's deliveries.  Only the lane's front
    entry sits in the heap; when it fires, the next one enters the heap
    under its own event id.  Pop order, event ids and {!pending} are
    exactly as if every entry had been scheduled with {!schedule_at},
    but the heap holds one entry per non-empty lane instead of one per
    packet on a wire. *)

module Lane : sig
  type sched := t

  type t

  val create : sched -> t
  (** A new, empty lane of the scheduler, whose action is [ignore]
      until {!set_action}. *)

  val set_action : t -> (unit -> unit) -> unit
  (** The action every entry of the lane runs when it fires. *)

  val push : t -> float -> unit
  (** [push l time] schedules the lane's action at absolute [time]
      under the next event id.  [time] must be finite, not in the past,
      and no earlier than the lane's last entry, or [Invalid_argument]
      is raised.  No handle is returned: lane entries cannot be
      cancelled.  Allocates nothing beyond amortized growth. *)

  val fire : t -> unit
  (** The heap action of the lane's front entry: retire it, move the
      next entry into the heap, run the lane's action.  The scheduler
      calls it when the front entry fires; calling it from anywhere
      else breaks the lane. *)
end
