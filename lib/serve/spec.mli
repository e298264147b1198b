(** Request semantics shared by the serve front end and its backends:
    turning a validated
    {!Protocol.submit} into the experiment configuration, benchmark
    models and custom-sweep points it denotes, computing artifact render
    keys — the identity used both for graph-level dedup and for shard
    routing — and declaring artifact render nodes on a graph.

    The front end and its forked shards must agree exactly on all of
    this: the front end routes an artifact to the shard its render key
    hashes to, and the shard dedups equal work under the same key. The
    keys digest [Marshal] bytes with [Closures], which is stable across
    forked shards because they share one process image. *)

type t = {
  config : Vliw_vp.Config.t;
      (** core fields plus machine-config overrides, fully applied *)
  models : Vp_workload.Spec_model.t list;
  csv : bool;
  sweeps : (string * (string * Vliw_vp.Config.t) list) list;
      (** custom sweeps, each point's overrides applied on top of
          [config] *)
}

val of_submit : Protocol.submit -> (t, Protocol.reject) result
(** Validate and resolve a submit: benchmark names
    ([unknown_benchmark]), machine-config overrides ([bad_config]) and
    custom-sweep points ([bad_sweep]). Pure — admission decisions
    (quotas, shutdown) stay with the caller. *)

val build_config :
  width:int -> seed:int -> threshold:float -> Vliw_vp.Config.t
(** The CLI-equivalent core configuration (see bin/vliw_vp.ml);
    byte-identity of served results depends on both sides building the
    identical [Config.t]. *)

val resolve_models :
  string list -> (Vp_workload.Spec_model.t list, string) result
(** [[]] means the full benchmark set; [Error name] on an unknown one. *)

val render_key : t -> artifact:string -> string
(** Content address of one artifact's render node. Custom sweeps salt in
    their applied point configs, so same-named sweeps with different
    points never dedup onto each other. *)

val shard_of_key : workers:int -> string -> int
(** The shard an artifact key routes to — a stable function of the key
    alone, so equal work always lands on the same shard (preserving
    in-flight dedup) and the mapping survives a shard re-fork. *)

val declare_artifact :
  Vp_exec.Graph.t -> t -> string -> string Vp_exec.Graph.node
(** Declare the artifact's work on the graph; the node's value is the
    artifact's rendered bytes — exactly what [vliw_vp all] prints for it,
    trailing separator newline included. Raises [Invalid_argument] on an
    artifact name {!Protocol.expand_experiments} would have rejected. *)
