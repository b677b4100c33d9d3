(* Debug-gated runtime invariants — the dynamic backstop to the static
   determinism linter (lib/lint).  The linter can prove "no ambient
   entropy reached this file"; it cannot prove "the heap popped in
   stable order on this run".  These checks can, and because probing is
   passive (no events scheduled, no RNG drawn, no output emitted), an
   instrumented run stays byte-identical to an uninstrumented one.

   Gate: the RLA_DEBUG_INVARIANTS environment variable at startup
   (1/true/yes/on), or [set_enabled] from tests.  Disabled, a check site
   costs one ref read and a branch, provided the site is written as
   [if !enabled then check_x ...] with the [require] call and its
   message thunk in an [@inline never] helper.  A closure written at
   the site itself stops the compiler from inlining the enclosing hot
   function, and the floats the message mentions may then be boxed. *)

exception Violation of string

let env_enabled =
  match Sys.getenv_opt "RLA_DEBUG_INVARIANTS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* Written once at startup (or from single-domain test setup) before
   any worker domain exists; workers only read it. *)
(* lint: allow shared-mutable-capture -- set before any Domain.spawn;
   workers only read it, and a stale read just skips a debug check *)
let enabled = ref env_enabled

let set_enabled b = enabled := b

(* Counters are informational but shared across shard workers, so they
   must be atomic or parallel runs would under-count (and race). *)
let checks = Atomic.make 0

let failures = Atomic.make 0

let checks_run () = Atomic.get checks

let failures_seen () = Atomic.get failures

let reset_counters () =
  Atomic.set checks 0;
  Atomic.set failures 0

(* [msg] is a thunk so the failure string is only built when the check
   actually fails; call sites guard on [!enabled] themselves (see the
   top of this file for the disabled cost). *)
let require cond msg =
  Atomic.incr checks;
  if not cond then begin
    Atomic.incr failures;
    raise (Violation (msg ()))
  end
