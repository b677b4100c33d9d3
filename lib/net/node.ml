(* Every table is keyed by an int (address, group, flow) and looked up
   on every hop, so they use an int-specialised [Hashtbl.Make] probed
   with [find]/[Not_found]: no polymorphic hash or equality call, and
   no [Some] cell per lookup.  Per-node tables rather than dense arrays
   indexed by address: a node routes to every address, so arrays would
   cost O(n^2) memory on the 10^4-10^5-node sharded trees.  No table is
   ever iterated, so the hash function cannot affect any output. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  id : Packet.addr;
  pool : Packet.Pool.t;
  routes : Link.t Itbl.t;
  mcast : Link.t list Itbl.t;
  groups : unit Itbl.t;
  handlers : (Packet.t -> unit) Itbl.t;
  mutable undeliverable : int;
}

let create ~pool id =
  {
    id;
    pool;
    routes = Itbl.create 16;
    mcast = Itbl.create 4;
    groups = Itbl.create 4;
    handlers = Itbl.create 8;
    undeliverable = 0;
  }

let id t = t.id

let set_route t ~dest link = Itbl.replace t.routes dest link

let route t ~dest = Itbl.find_opt t.routes dest

let mcast_routes t ~group =
  match Itbl.find t.mcast group with links -> links | exception Not_found -> []

let add_mcast_route t ~group link =
  let links = mcast_routes t ~group in
  if not (List.exists (fun l -> Link.id l = Link.id link) links) then
    Itbl.replace t.mcast group (links @ [ link ])

let join t ~group = Itbl.replace t.groups group ()

let joined t ~group = Itbl.mem t.groups group

let attach t ~flow handler = Itbl.replace t.handlers flow handler

let detach t ~flow = Itbl.remove t.handlers flow

(* Handlers may read the packet for the duration of the call only; the
   caller still owns the reference and releases (or forwards) it after
   the handler returns. *)
let deliver_local t pkt =
  match Itbl.find t.handlers pkt.Packet.flow with
  | handler -> handler pkt
  | exception Not_found -> t.undeliverable <- t.undeliverable + 1

(* Multicast fan-out helpers: recursion over the branch list instead of
   [List.iter] closures, which would capture [pkt] on every hop. *)
let rec retain_each pkt = function
  | [] -> ()
  | _ :: rest ->
      Packet.Pool.retain pkt;
      retain_each pkt rest

let rec send_each pkt = function
  | [] -> ()
  | link :: rest ->
      Link.send link pkt;
      send_each pkt rest

(* [receive] owns one reference to [pkt] and settles it on every path:
   terminal deliveries (and undeliverable packets) release it back to
   the pool, each forwarding [Link.send] consumes one reference, and a
   multicast fan-out over [n] links retains [n - 1] extra references
   up front so every branch owns its own claim on the shared record. *)
(* lint: hot receive -- every packet at every node it reaches; one
   table probe per hop, no option or closure *)
let receive t pkt =
  match pkt.Packet.dst with
  | Packet.Unicast a when a = t.id ->
      deliver_local t pkt;
      Packet.Pool.release t.pool pkt
  | Packet.Unicast a -> (
      match Itbl.find t.routes a with
      | link -> Link.send link pkt
      | exception Not_found ->
          t.undeliverable <- t.undeliverable + 1;
          Packet.Pool.release t.pool pkt)
  | Packet.Multicast g -> (
      if Itbl.mem t.groups g then deliver_local t pkt;
      match mcast_routes t ~group:g with
      | [] -> Packet.Pool.release t.pool pkt
      | [ link ] -> Link.send link pkt
      | first :: rest ->
          retain_each pkt rest;
          Link.send first pkt;
          send_each pkt rest)

let undeliverable t = t.undeliverable
