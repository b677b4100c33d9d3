(** TCP SACK receiver endpoint.

    Consumes data packets, delivers them in order (conceptually — by
    default the application is an infinite sink) and acknowledges every
    packet with the cumulative ack plus up to three SACK blocks, most
    recently changed first, echoing the data packet's timestamp.

    The hardened endpoint also answers SYNs (negotiating options),
    advertises a finite receive window when one is modeled, responds to
    zero-window probes, and validates RST and far-out-of-window data
    sequences per RFC 5961 — a blind injection draws a challenge ack
    instead of tearing the connection down. *)

type window = {
  capacity : int;  (** Receive-buffer size, packets (>= 1). *)
  app_rate : float;
      (** Application drain rate, packets/s, as a deterministic
          function of simulated time — no consumption events. *)
}

type t

val create :
  ?window:window ->
  ?wscale:int ->
  ?rst_strict:bool ->
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  peer:Net.Packet.addr ->
  unit ->
  t
(** Attach a receiver for [flow] at [node], acknowledging to [peer].
    Without [window] no finite window is advertised (acks carry
    {!Wire.no_rwnd}), matching the pre-hardening behavior.  [wscale]
    (default 0) is the shift offered at SYN time and applied to the
    advertised field; [rst_strict] (default [true]) selects RFC 5961
    RST validation — [false] models a legacy stack that accepts any
    in-window RST. *)

val expected : t -> int
(** Next in-order packet expected. *)

val received_total : t -> int
(** Data packets that arrived (including duplicates). *)

val duplicates : t -> int

val out_of_order_pending : t -> int
(** Packets buffered above the in-order point. *)

val closed : t -> bool
(** An accepted RST tore the connection down; the endpoint goes
    silent (no acks, no data processing). *)

val window_scale : t -> int
(** Effective shift after any SYN negotiation. *)

val set_rst_strict : t -> bool -> unit
(** Toggle RFC 5961 RST validation (for legacy-stack experiments). *)

val rst_accepted : t -> int

val rst_challenged : t -> int
(** In-window inexact RSTs answered with a challenge ack. *)

val rst_dropped : t -> int
(** RSTs outside the receive window, silently discarded. *)

val challenge_acks : t -> int

val ghost_data : t -> int
(** Data segments dropped by sequence validation (blind injection). *)

val probes_received : t -> int
(** Zero-window probes answered. *)
