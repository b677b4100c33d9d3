(** RLA receiver endpoint.

    Joins the session's multicast group at its node, consumes data
    (original transmissions arriving down the tree and retransmissions
    arriving by multicast or unicast), and acknowledges every data
    packet by unicast to the sender using the SACK format. *)

type t

val create :
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  sender:Net.Packet.addr ->
  ?ack_jitter:float ->
  ?start:int ->
  unit ->
  t
(** [ack_jitter] (default 2 ms) delays each acknowledgment by a uniform
    random processing time, desynchronising the ack bursts that a
    multicast delivery triggers across equal-RTT receivers (see
    {!Params.ack_jitter}).

    [start] (default 0) is the first sequence number this endpoint is
    responsible for: a receiver joining a running session acknowledges
    from the sender's current frontier instead of waiting forever for
    packets sent before it existed.  Replaces any handler a previous
    endpoint for the same flow had registered at the node. *)

val node_id : t -> Net.Packet.addr

val expected : t -> int
(** Next in-order packet expected. *)

val received_total : t -> int

val duplicates : t -> int

val rexmits_received : t -> int
