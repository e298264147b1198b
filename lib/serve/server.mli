(** The resident simulation daemon behind [vliw_vp serve].

    {!run} owns the calling thread: it binds the Unix (and optionally a
    loopback TCP) listener and runs one [select] loop — the front end —
    that accepts connections, decodes {!Protocol} frames, admits
    requests and streams results back. Admitted work goes to one of two
    backends:
    - [workers = 0], {e in-process}: artifacts are declared as
      content-addressed nodes on {e one} shared {!Vp_exec.Graph} whose
      resident worker domains execute them. Overlapping requests — from
      one client or many — resolve to in-flight nodes, to results the
      graph already holds, or to the warm on-disk store; each payload
      simulation runs once per process lifetime.
    - [workers = N > 0], {e forked shards}: [N] shard processes, each
      running the same loop with the in-process backend over a socketpair.
      An artifact's {!Spec.render_key} picks its shard
      ({!Spec.shard_of_key}), so equal work from any client dedups inside
      one shard's graph; all shards share the on-disk store. A shard that
      exits or wedges (EOF, or >15 s of heartbeat silence) is killed and
      re-forked; requests with work on it get a structured [worker_lost]
      error.

    Production envelope, identical on both backends:
    - {e admission control}: at most [max_pending] admitted-but-unfinished
      requests server-wide and [client_quota] per connection; excess
      submits are rejected immediately with a structured [error] frame
      ([overloaded] / [quota_exceeded]) — the server never silently hangs
      a client;
    - {e timeouts}: every request carries a deadline ([timeout_s] in the
      request, else [default_timeout_s]); past it the client gets an
      [error] frame with code [timeout]. The timeout only answers the
      client: work already declared runs to completion and stays warm for
      future requests, since shared nodes belong to no single request;
    - {e graceful shutdown}: a [shutdown] request, SIGINT or SIGTERM stop
      the listeners, reject new submits with [shutting_down], drain every
      admitted request to its [done]/[error] frame, flush the sockets,
      stop the workers (or shards) and remove the socket file;
    - {e telemetry}: a [stats] request answers with the {!Telemetry}
      snapshot (request counters, latency percentiles, per-client
      counters, graph dedup and cache hit rate; sharded, the shards'
      graph/cache sections summed plus a [workers] section); [stats_file]
      additionally gets a JSON snapshot every [stats_every_s] seconds and
      once at shutdown. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** additional 127.0.0.1 TCP listener *)
  max_pending : int;  (** admitted-but-unfinished requests, server-wide *)
  client_quota : int;  (** admitted-but-unfinished requests per connection *)
  default_timeout_s : float;  (** per request; [0.] disables *)
  max_frame : int;
  stats_file : string option;  (** periodic telemetry snapshot target *)
  stats_every_s : float;
  node_cap : int option;
      (** graph node-cache LRU bound (see {!Vp_exec.Graph.set_node_cap}),
          per shard; [None] = unbounded *)
}

val default_config : socket:string -> unit -> config
(** 64 pending, 16 per client, 300 s timeout, 4 MiB frames, no TCP, no
    stats file, unbounded node cache. *)

val run :
  ?on_ready:(unit -> unit) ->
  workers:int ->
  make_exec:(unit -> Vp_exec.Context.t) ->
  config ->
  Jsonx.t
(** Run the daemon until shutdown; returns the final telemetry snapshot.
    [workers = 0] runs in-process; [workers > 0] forks that many shards
    (raises [Invalid_argument] when negative). [make_exec] builds the
    execution context in the process that simulates — once here when
    in-process, once inside each freshly forked shard otherwise; its
    [jobs] sets the resident worker domains and its [store] is the
    shared warm cache, so every shard's context must point at the same
    store. [on_ready] fires once the listeners are bound and every shard
    is forked (used by tests and the in-process bench harness to know
    when to connect).

    Fork discipline: with [workers > 0], call this before any domain
    exists in the process — [Unix.fork] refuses to run once one does,
    and the front end never spawns one itself, which keeps re-forking a
    crashed shard legal for the life of the daemon. *)
