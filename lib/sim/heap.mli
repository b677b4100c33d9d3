(** Binary min-heap keyed by [(priority, tie-break counter)].

    The heap is the core of the discrete-event scheduler: events are
    ordered by simulated time, and events scheduled for the same time
    fire in insertion order (the monotone counter breaks ties), which
    keeps simulations deterministic.

    The backing store is a structure of arrays (unboxed priorities,
    unboxed counters, uniform value slots), so the hot sift path never
    follows a per-element pointer and insertion allocates nothing
    beyond amortized growth.  Slots vacated by {!pop} (and the whole
    store on {!clear}) are overwritten, so a drained heap
    retains no reference to any value it ever held. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val add : 'a t -> prio:float -> 'a -> unit
(** [add t ~prio x] inserts [x] with priority [prio].  Elements with
    equal priority are returned in insertion order. *)

val min_prio : 'a t -> float option
(** Priority of the minimum element, if any. *)

val top_prio : 'a t -> float
(** Priority of the minimum element.  Unlike {!min_prio} this does not
    allocate an option; raises [Invalid_argument] on an empty heap, so
    callers on the hot path pair it with {!is_empty}. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum element with its priority. *)

val top_seq : 'a t -> int
(** Tie-break counter of the minimum element; raises [Invalid_argument]
    on an empty heap. *)

val pop_top : 'a t -> 'a
(** Remove the minimum element and return only its value, allocating
    nothing — the hot-path combination with {!top_prio}/{!top_seq}.
    Raises [Invalid_argument] on an empty heap. *)

val pop_entry : 'a t -> (float * int * 'a) option
(** Like {!pop} but also returns the element's tie-break counter. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum element without removing it. *)

val clear : 'a t -> unit
(** Remove all elements. *)

val add_with_seq : 'a t -> prio:float -> seq:int -> 'a -> unit
(** [add_with_seq t ~prio ~seq x] inserts [x] under an explicit
    tie-break counter instead of the internal one.  The scheduler keys
    every entry by its event id this way, so the counter of a popped
    event {e is} its id.  The caller guarantees [seq] uniqueness; the
    internal counter is not advanced.  Allocates nothing beyond
    amortized growth. *)

val filter_seq : 'a t -> ('e -> int -> bool) -> 'e -> unit
(** [filter_seq t keep env] removes every element whose tie-break
    counter [s] fails [keep env s] and rebuilds the heap in place in
    O(n).  The survivors keep their keys, so they pop in the same order
    as before.  Vacated slots are overwritten, and the call allocates
    nothing when [keep] is a top-level function. *)

val min_seq : 'a t -> ('e -> int -> bool) -> 'e -> int
(** [min_seq t keep env] is the least tie-break counter [s] in the heap
    with [keep env s], or [max_int] if there is none.  O(n); allocates
    nothing when [keep] is a top-level function. *)

val iter : 'a t -> f:(float -> 'a -> unit) -> unit
(** Iterate over all elements in unspecified order. *)
