(** Daemon telemetry: request counters, per-client counters, latency
    percentiles. All calls happen on the serve loop thread — the type is
    deliberately not thread-safe.

    The [stats] response and the periodic snapshot file both render
    {!json}, which combines these server-side counters with the shared
    execution context's {!Vp_exec.Progress.snapshot} — the cache hit rate
    and in-flight dedup count that prove overlapping requests resolve to
    one computation. *)

type t

val create : unit -> t

(** {1 Connection lifecycle} *)

val client_connected : t -> cid:int -> peer:string -> unit
val client_disconnected : t -> cid:int -> unit

(** {1 Request lifecycle} *)

val received : t -> unit
(** Any parsed request frame. *)

val accepted : t -> cid:int -> unit
val completed : t -> cid:int -> wall:float -> unit
val failed : t -> cid:int -> unit
val timed_out : t -> cid:int -> unit

val abandoned : t -> cid:int -> unit
(** An admitted request settled because its client disconnected. Every
    accepted request ends in exactly one of {!completed}, {!failed},
    {!timed_out} or this, so [accepted = completed + failed + timed_out +
    abandoned] once nothing is in flight. *)

val rejected : t -> cid:int -> code:string -> unit

(** {1 Rendering} *)

val json : t -> pool:Vp_exec.Progress.snapshot -> queue_depth:int -> Jsonx.t
(** The full stats object: {!core_sections} followed by
    {!pool_sections}. *)

val core_sections : t -> queue_depth:int -> (string * Jsonx.t) list
(** Just the server-side sections ([uptime_s], [requests], [latency],
    [clients]) — the sharded backend composes these with graph/cache
    sections aggregated across its shards' snapshots and a [workers]
    section of its own. *)

val pool_sections : Vp_exec.Progress.snapshot -> (string * Jsonx.t) list
(** The [graph] and [cache] sections of one execution context's
    counters (including [node_evictions], the node-cache LRU's count of
    dropped completed nodes). *)
