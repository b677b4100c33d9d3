(** End-to-end sharded RLA scenario on a generated topology.

    Builds an {!Engine.t} over a {!Partition.kruskal} split of the
    topology, installs global routing (unicast toward the source, a
    multicast distribution tree over the BFS paths to every receiver,
    per-receiver unicast branches for retransmissions), starts one RLA
    session rooted at [src] spanning all shards plus per-pair competing
    TCP flows, runs warmup and measurement through the barrier-round
    engine, and renders the merged deterministic outputs (fairness
    table, per-shard registry JSON, merged trace CSV).

    All outputs are byte-identical for any [workers] value: the shard
    structure is fixed by the partition, never by the worker count. *)

type config = {
  topo : Net.Topo.t;
  parts : int;  (** Requested part count for {!Partition.kruskal}. *)
  src : int;  (** RLA source node. *)
  receivers : int list;  (** Multicast group members; non-empty. *)
  tcp_pairs : (int * int) list;
      (** Competing TCP flows.  Each pair must live entirely inside one
          shard (sender, receiver and the routed path between them):
          TCP endpoints share one network object. *)
  workers : int;  (** Domains per barrier round; results-invariant. *)
  duration : float;
  warmup : float;
  seed : int;
  rla_params : Rla.Params.t;
  with_registry : bool;
      (** Install per-shard metrics registries and render
          [registry_json] / [trace_csv] (empty strings otherwise). *)
}

type error =
  | Zero_delay_cut of int * int
      (** A shard-crossing link has no propagation delay — zero
          lookahead (from {!Engine.create}). *)
  | Cross_shard_tcp of int * int
      (** A TCP pair's endpoints or routed path leave its shard. *)
  | Bad_config of string
  | Checkpoint_unsupported
      (** Sharded runs cannot be checkpointed: a checkpoint
          ([Ckpt.Sharing_ckpt]) replays a sharing-experiment config,
          and a sharded run is not one.  Requesting a checkpoint is
          rejected up front — never silently ignored. *)

type result = {
  shards : int;
  workers : int;
  lookahead : float;
  rounds : int;
  events_fired : int;
  n_receivers : int;
  cut_edges : int;
  rla : Rla.Sender.snapshot;
  tcp : ((int * int) * Tcp.Sender.snapshot) list;  (** In [tcp_pairs] order. *)
  jain : float;
      (** Jain index over the competing TCP send rates (1.0 when there
          are none). *)
  fairness_table : string;
  registry_json : string;
  trace_csv : string;
}

val run : ?checkpoint:float * string -> config -> (result, error) Stdlib.result
(** Build and run the scenario.  [checkpoint] (interval, directory) is
    accepted only to be rejected with {!Checkpoint_unsupported} — the
    single validation point behind the CLI flags. *)

val error_to_string : error -> string
