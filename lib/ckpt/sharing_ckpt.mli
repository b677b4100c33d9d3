(** Checkpoint/restore for the paper's main (tree-sharing) experiment.

    A run is a deterministic function of its
    {!Experiments.Sharing.config}, so a checkpoint stores no simulation
    state: it holds the config, the time [T] it was taken at, and a
    digest of state read at [T].  Restoring replays: {!load} rebuilds
    the session with {!Experiments.Sharing.setup}, drives it to [T]
    through the same run loop as the original run, and checks the
    digest.  A run restored at [T] and driven to its duration is
    byte-identical — trace CSV, registry JSON and fairness tables — to
    the uninterrupted run, because it {e is} that run.

    Supported runs are the plain sharing scenario (RLA session + 27
    background TCPs).  Fault-injected runs are not checkpointable from
    the CLI: the churn driver owns extra flow state outside the
    session. *)

val section_names : string list
(** The sections a checkpoint carries, in file order: [meta], [config]
    and [digest]. *)

type meta = {
  time : float;  (** Simulation clock when the checkpoint was taken. *)
  registry : bool;  (** The run had a metrics registry. *)
  journal : bool;  (** The run had an event journal attached. *)
}

val read_meta :
  Codec.section list -> (meta * Experiments.Sharing.config, Codec.error) result
(** Decode just the [meta] and [config] sections (cheap inspection —
    no replay). *)

val save :
  path:string ->
  time:float ->
  config:Experiments.Sharing.config ->
  session:Experiments.Sharing.session ->
  ?registry:Obs.Registry.t ->
  ?journal:Journal.t ->
  unit ->
  unit
(** Write a checkpoint of [session] into [path] (write-then-rename).
    [time] must be the current simulation clock.  Reading the digest is
    passive: no events scheduled, no RNG draws, so saving never
    perturbs the run.  [registry] and [journal] are only recorded as
    present, so that {!load} rebuilds them. *)

type error =
  | Codec_error of Codec.error
  | Bad_time of float
      (** The recorded time is negative, not finite, or beyond the
          config's duration. *)
  | Bad_config of string  (** {!Experiments.Sharing.setup} rejected it. *)
  | Digest_mismatch of { expected : string; actual : string }
      (** Replaying the config to [T] did not reach the recorded state
          (hex digests): the file was edited, or the simulator changed
          since it was written. *)

val error_to_string : error -> string

type loaded = {
  config : Experiments.Sharing.config;
  session : Experiments.Sharing.session;
  registry : Obs.Registry.t option;
      (** Rebuilt by the replay when the checkpointed run had one. *)
  journal : Journal.t option;
      (** Rebuilt by the replay when the checkpointed run had one. *)
  time : float;  (** Clock at the checkpoint; the session is poised there. *)
}

val load : path:string -> (loaded, error) result
(** Replay the checkpointed run to its time and verify the digest.
    Costs the simulation time up to [T].  Never raises: truncation,
    corruption, a bad time or config and a digest mismatch all come
    back as [Error]. *)

val run_with_checkpoints :
  ?registry:Obs.Registry.t ->
  ?journal:Journal.t ->
  every:float ->
  dir:string ->
  prefix:string ->
  Experiments.Sharing.config ->
  Experiments.Sharing.result
(** The canonical checkpointed run loop: set the session up, then
    advance to [duration] saving [dir]/[prefix]_t<time>.ckpt at every
    multiple of [every] (boundaries are slice points of the ordinary
    run loop, so results are byte-identical to
    {!Experiments.Sharing.run}).  [dir] is created if missing. *)

val resume_run :
  ?every:float ->
  ?dir:string ->
  ?prefix:string ->
  loaded ->
  Experiments.Sharing.result
(** Continue a loaded checkpoint to its config's [duration], applying
    the warm-up measurement reset only if the checkpoint predates it.
    With [every]/[dir] supplied, keeps writing checkpoints at the same
    boundaries the original run would have hit. *)

val checkpoint_file : dir:string -> prefix:string -> time:float -> string
(** The path [run_with_checkpoints] writes for a given boundary. *)
