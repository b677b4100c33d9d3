(* Array-based binary min-heap.  Ordering is lexicographic on
   (priority, sequence number) so that insertions at equal priority pop
   in FIFO order — required for deterministic event scheduling.

   The layout is a structure of arrays: priorities live in an unboxed
   [float array], tie-break counters in an [int array], and values in a
   uniform pointer array.  Sift operations therefore compare raw floats
   and ints without chasing a boxed entry record per element, and
   adding an element allocates nothing beyond amortized array growth.

   Values are stored through [Obj.repr] in a uniform (non-flat) array
   created from an immediate, so the representation is safe for every
   ['a] including [float] (floats are stored boxed, never unboxed, and
   all accesses go through the uniform-array path).  Vacated slots are
   overwritten with the immediate dummy on [pop] and [clear], so a
   drained heap keeps no value (and hence no closure, packet or sender
   captured by one) reachable. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let dummy : Obj.t = Obj.repr 0

let create () =
  { prios = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* (prio, seq) at index [i] precedes index [j]. *)
let[@inline] lt t i j =
  let pi = Array.unsafe_get t.prios i and pj = Array.unsafe_get t.prios j in
  if pi < pj then true
  else if pi > pj then false
  else Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j

let grow t =
  let cap = Array.length t.prios in
  if t.size = cap then begin
    let new_cap = if cap = 0 then initial_capacity else 2 * cap in
    let prios = Array.make new_cap 0.0 in
    let seqs = Array.make new_cap 0 in
    let vals = Array.make new_cap dummy in
    Array.blit t.prios 0 prios 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.prios <- prios;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Sifts are hole-based: instead of swapping three arrays at every
   level, the moving element's (prio, seq) stay in registers while
   displaced entries are pulled into the hole, and the caller writes
   the moving element once at the returned index.  Both are loops
   marked [@inline]: a float argument to a function that is not
   inlined is boxed on every call, so the moving priority must never
   cross a call.  Unsafe accesses are in-bounds by construction
   ([grow] ran / indices < [t.size]). *)

(* Final index for an element [(prio, seq)] inserted at hole [i],
   pulling larger parents down as it ascends. *)
let[@inline] sift_up_hole t ~prio ~seq i =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get t.prios parent in
    if prio < pp || (prio = pp && seq < Array.unsafe_get t.seqs parent) then begin
      Array.unsafe_set t.prios !i pp;
      Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs parent);
      Array.unsafe_set t.vals !i (Array.unsafe_get t.vals parent);
      i := parent
    end
    else moving := false
  done;
  !i

(* Final index for an element [(prio, seq)] descending from hole [i],
   pulling the smaller child up at each level. *)
let[@inline] sift_down_hole t ~prio ~seq i =
  let i = ref i in
  let moving = ref true in
  while !moving && (2 * !i) + 1 < t.size do
    let left = (2 * !i) + 1 in
    let right = left + 1 in
    let c = if right < t.size && lt t right left then right else left in
    let cp = Array.unsafe_get t.prios c in
    if cp < prio || (cp = prio && Array.unsafe_get t.seqs c < seq) then begin
      Array.unsafe_set t.prios !i cp;
      Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs c);
      Array.unsafe_set t.vals !i (Array.unsafe_get t.vals c);
      i := c
    end
    else moving := false
  done;
  !i

let[@inline] push t ~prio ~seq value =
  grow t;
  let v = Obj.repr value in
  let i = sift_up_hole t ~prio ~seq t.size in
  t.size <- t.size + 1;
  Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i v

(* [@inline] so the priority reaches the unboxed array without being
   boxed at the call: the scheduler inlines this into [schedule_at]. *)
(* lint: hot add -- every scheduled event; must not box the priority *)
let[@inline] add t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t ~prio ~seq value

(* Insert under a caller-chosen tie-break counter: the scheduler keys
   every entry by its event id, so the counter of a popped entry is its
   id.  The caller owns seq uniqueness; [next_seq] is left untouched.  [@inline]
   for the same reason as [add]. *)
(* lint: hot add_with_seq -- every scheduled event and every delivery
   lane head; must not box the priority *)
let[@inline] add_with_seq t ~prio ~seq value = push t ~prio ~seq value

let clear t =
  t.prios <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.size <- 0

(* Cold paths live in [@inline never] helpers: a closure or a [Printf]
   call inside a hot function keeps it from being inlined, and the
   floats such a message mentions would be boxed. *)
let[@inline never] empty_heap fn = invalid_arg (fn ^ ": empty heap")

(* Stable-order backstop: everything still in the heap was >= the
   popped root (in (prio, seq) order), so the new root must be too. *)
let[@inline never] check_pop_order t ~prio ~seq =
  Invariant.require
    (not (t.prios.(0) < prio || (t.prios.(0) = prio && t.seqs.(0) < seq)))
    (fun () ->
      Printf.sprintf
        "Heap.pop: successor (%g, #%d) precedes popped entry (%g, #%d)"
        t.prios.(0) t.seqs.(0) prio seq)

let min_prio t = if t.size = 0 then None else Some t.prios.(0)

(* lint: hot top_prio -- read once per scheduler step; must stay a bare
   unboxed array load *)
let[@inline] top_prio t =
  if t.size = 0 then empty_heap "Heap.top_prio";
  Array.unsafe_get t.prios 0

let peek t =
  if t.size = 0 then None
  else Some (t.prios.(0), (Obj.obj t.vals.(0) : 'a))

let top_seq t =
  if t.size = 0 then empty_heap "Heap.top_seq";
  Array.unsafe_get t.seqs 0

(* Allocation-free root removal for the scheduler's fire loop: the
   caller reads (prio, seq) via [top_prio]/[top_seq] first, so only the
   value crosses the call.  The former last element descends from the
   root hole; its vacated slot is cleared so the popped (or moved)
   value never stays reachable from the backing array. *)
(* lint: hot pop_top -- the scheduler fire loop's root removal; PR 6's
   2-2.5x events/s win rests on this staying allocation-free *)
let pop_top t =
  if t.size = 0 then empty_heap "Heap.pop_top";
  let prio = Array.unsafe_get t.prios 0 in
  let seq = Array.unsafe_get t.seqs 0 in
  let value : 'a = Obj.obj (Array.unsafe_get t.vals 0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let mp = Array.unsafe_get t.prios last in
    let ms = Array.unsafe_get t.seqs last in
    let mv = Array.unsafe_get t.vals last in
    Array.unsafe_set t.vals last dummy;
    let i = sift_down_hole t ~prio:mp ~seq:ms 0 in
    Array.unsafe_set t.prios i mp;
    Array.unsafe_set t.seqs i ms;
    Array.unsafe_set t.vals i mv;
    if !Invariant.enabled then check_pop_order t ~prio ~seq
  end
  else Array.unsafe_set t.vals 0 dummy;
  value

(* lint: hot pop_entry -- draining pop over the live heap; one option
   cell per entry is its only allowed allocation *)
let pop_entry t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) in
    let seq = t.seqs.(0) in
    (* lint: allow alloc-hot -- the Some-triple is the drain API; one
       cell per drained entry, off the per-event fire loop *)
    Some (prio, seq, pop_top t)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) in
    Some (prio, pop_top t)
  end

(* Drop every entry whose seq fails [keep env], then restore the heap
   property bottom-up (Floyd): O(n) for the filter and the rebuild
   together.  The survivors' (prio, seq) keys are untouched, so they pop
   in the same total order as before.  [keep] and [env] are separate
   arguments so that a caller can pass a top-level function and its
   state without building a closure per call; nothing here allocates. *)
let filter_seq t keep env =
  let n = t.size in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get t.seqs i in
    if keep env s then begin
      let k = !j in
      if k < i then begin
        Array.unsafe_set t.prios k (Array.unsafe_get t.prios i);
        Array.unsafe_set t.seqs k s;
        Array.unsafe_set t.vals k (Array.unsafe_get t.vals i)
      end;
      j := k + 1
    end
  done;
  let live = !j in
  for i = live to n - 1 do
    Array.unsafe_set t.vals i dummy
  done;
  t.size <- live;
  for i = (live / 2) - 1 downto 0 do
    let p = Array.unsafe_get t.prios i in
    let s = Array.unsafe_get t.seqs i in
    let v = Array.unsafe_get t.vals i in
    let k = sift_down_hole t ~prio:p ~seq:s i in
    Array.unsafe_set t.prios k p;
    Array.unsafe_set t.seqs k s;
    Array.unsafe_set t.vals k v
  done

(* Least seq among the entries whose seq passes [keep env], or
   [max_int]; allocation-free under the same terms as [filter_seq]. *)
let min_seq t keep env =
  let m = ref max_int in
  for i = 0 to t.size - 1 do
    let s = Array.unsafe_get t.seqs i in
    if s < !m && keep env s then m := s
  done;
  !m

let iter t ~f =
  for i = 0 to t.size - 1 do
    f t.prios.(i) (Obj.obj t.vals.(i) : 'a)
  done
