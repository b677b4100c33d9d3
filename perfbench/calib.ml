(* A fixed calibration kernel that uses no simulator code: the
   binary-trees allocation benchmark, whose short-lived small blocks and
   minor collections are the kind of work a simulated event does.  Each
   measured process times it right after its simulation, and run.py
   divides the processor times it reports by it, so that a shared host
   that runs slower for a while does not read as a slower simulator.  A
   change to the simulator cannot move this kernel. *)

type tree = Leaf | Node of tree * tree

let rec make d = if d = 0 then Leaf else Node (make (d - 1), make (d - 1))
let rec check = function Leaf -> 1 | Node (l, r) -> 1 + check l + check r

let run () =
  let t0 = Sys.time () in
  let long_lived = make 16 in
  let nodes = ref 0 in
  for half = 2 to 8 do
    let d = 2 * half in
    for _ = 1 to 1 lsl (21 - d) do
      nodes := !nodes + check (make d)
    done
  done;
  ignore (Sys.opaque_identity (check long_lived + !nodes));
  Sys.time () -. t0
