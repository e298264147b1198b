(* The resident simulation daemon: one front-end loop over one of two
   backends.

   The {e front end} is a single-threaded [Unix.select] loop over
   non-blocking sockets. It owns everything client-facing, each piece
   written once: the listeners (or one pre-connected descriptor),
   accepting, frame decoding, admission, request deadlines, the stats
   file, the wake pipe, SIGINT/SIGTERM and drain. Admitted work goes to a
   backend:

   - {e in-process} ([Local]): each artifact is declared as a
     content-addressed node on one shared {!Vp_exec.Graph} whose resident
     worker domains execute it. The artifact subscribes with
     [Graph.on_complete]; the callback, on whichever worker domain
     finished the node, pushes the result onto a mutex-protected
     completion queue and pokes the wake pipe, so the loop never blocks
     on a simulation. Overlapping requests from any number of clients
     resolve to in-flight nodes, to results the graph still holds, or to
     the on-disk store: each payload simulation runs once.
   - {e forked shards} ([Shards]): each artifact's {!Spec.render_key}
     hashes to a shard ({!Spec.shard_of_key}), and the artifacts of one
     shard go to it as one sub-submit over a socketpair. Equal work from
     any client lands on the same shard and dedups in its graph; the
     mapping is a pure function of the key, so it survives re-forks. A
     shard that exits or wedges (EOF, or heartbeat silence past
     [dead_after_s]) is SIGKILLed and reaped, the requests with sub-work
     on it fail with [worker_lost], and the slot is re-forked.

   A forked shard runs this same loop with the in-process backend over
   its socketpair: no listeners, no signal handlers, unbounded admission
   (the front end already enforced it). It exits once it has no listener
   and no connection left, or when the front end tells it to shut down.

   Fork discipline: [Unix.fork] refuses to run once any domain exists, so
   the sharded front end forks every shard before any domain is created
   and never spawns one itself; each shard spawns its own graph workers
   after the fork, which keeps re-forking legal for the life of the
   daemon. *)

module G = Vp_exec.Graph
module P = Protocol

type config = {
  socket_path : string;
  tcp_port : int option;  (** additional 127.0.0.1 TCP listener *)
  max_pending : int;  (** admitted-but-unfinished requests, server-wide *)
  client_quota : int;  (** admitted-but-unfinished requests per connection *)
  default_timeout_s : float;  (** per request; [0.] disables *)
  max_frame : int;
  stats_file : string option;  (** periodic telemetry snapshot target *)
  stats_every_s : float;
  node_cap : int option;  (** graph node-cache LRU bound; [None] = unbounded *)
}

let default_config ~socket () =
  {
    socket_path = socket;
    tcp_port = None;
    max_pending = 64;
    client_quota = 16;
    default_timeout_s = 300.0;
    max_frame = P.default_max_frame;
    stats_file = None;
    stats_every_s = 10.0;
    node_cap = None;
  }

let heartbeat_every_s = 2.0
let dead_after_s = 15.0
let stop_grace_s = 5.0

(* --- state ------------------------------------------------------------- *)

type conn = {
  io : Frameio.t;
  cid : int;
  mutable outstanding : int;  (* admitted requests not yet settled *)
  mutable dropped : bool;
}

type req = {
  rid : string;
  rconn : conn;
  total : int;
  mutable delivered : int;  (* result frames sent *)
  mutable settled : bool;  (* done, errored, timed out or client gone *)
  deadline : float option;
  rt0 : float;
}

type completion = {
  c_req : req;
  c_artifact : string;
  c_result : (string, string) result;
}

type local = {
  exec : Vp_exec.Context.t;
  graph : G.t;
  cmutex : Mutex.t;
  mutable completions : completion list;  (* reversed *)
}

type worker = {
  slot : int;
  pid : int;
  wio : Frameio.t;
  spawned : float;
  restarts : int;  (* re-forks of this slot before this incarnation *)
  mutable up : bool;
  mutable last_seen : float;  (* any frame from the shard *)
  mutable last_ping : float;
  mutable routed : int;  (* lifetime artifacts routed to this slot *)
  mutable inflight : int;  (* unsettled sub-requests *)
  mutable last_pool : Jsonx.t option;  (* most recent stats response *)
}

type sub = { s_req : req; s_worker : worker }

(* One fan-out stats collection: a client [stats] request or the periodic
   snapshot-file tick polls every live shard and aggregates the replies. *)
type poll = {
  p_id : string;  (* the id the shards echo back *)
  p_reply : (conn * string) option;  (* [None] is the snapshot file *)
  mutable p_pending : int list;  (* slots not yet heard from *)
  mutable p_pools : Jsonx.t list;
}

type shards = {
  run_shard : Unix.file_descr -> unit;  (* what a forked child runs *)
  workers : worker option array;
  subs : (string, sub) Hashtbl.t;
  polls : (string, poll) Hashtbl.t;
  mutable next_sid : int;
  mutable next_poll : int;
  mutable stopping : bool;  (* drained; shards told to exit *)
  mutable stop_deadline : float;
}

type backend = Local of local | Shards of shards

type t = {
  cfg : config;
  backend : backend;
  telemetry : Telemetry.t;
  buf : Bytes.t;  (* the one read buffer, shared by every descriptor *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  interrupted : bool Atomic.t;  (* set by the SIGINT/SIGTERM handler *)
  mutable listeners : (Unix.file_descr * string) list;  (* fd, peer name *)
  mutable conns : conn list;
  mutable live : req list;
  mutable outstanding : int;
  mutable shutting : bool;
  mutable next_cid : int;
  mutable last_stats : float;
}

let send conn json = if not conn.dropped then Frameio.send conn.io json
let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let wake t =
  (* a full pipe already guarantees a pending wakeup *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_r t.buf 0 (Bytes.length t.buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let push_completion t l c =
  Mutex.protect l.cmutex (fun () -> l.completions <- c :: l.completions);
  wake t

let take_completions l =
  List.rev
    (Mutex.protect l.cmutex (fun () ->
         let cs = l.completions in
         l.completions <- [];
         cs))

let all_workers s = Array.to_list s.workers |> List.filter_map Fun.id
let live_workers s = List.filter (fun w -> w.up) (all_workers s)

(* --- stats ------------------------------------------------------------- *)

let workers_json s =
  Jsonx.List
    (List.map
       (fun w ->
         Jsonx.Obj
           [
             ("slot", Jsonx.Int w.slot);
             ("pid", Jsonx.Int w.pid);
             ("up", Jsonx.Bool w.up);
             ("restarts", Jsonx.Int w.restarts);
             ("routed", Jsonx.Int w.routed);
             ("inflight", Jsonx.Int w.inflight);
             ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. w.spawned));
           ])
       (all_workers s))

(* Sum the graph/cache sections of the shards' own stats objects. Peak
   in-flight is summed too: it over-counts true simultaneity across
   shards, but as a capacity figure the sum of per-shard peaks is the
   honest bound on what the fleet had running. *)
let aggregate t s pools =
  let sum sect field =
    List.fold_left
      (fun acc p ->
        match Jsonx.member sect p with
        | Some o -> acc + Option.value ~default:0 (Jsonx.int_member field o)
        | None -> acc)
      0 pools
  in
  let hits = sum "cache" "hits" and misses = sum "cache" "misses" in
  let total = hits + misses in
  let ints sect fields =
    Jsonx.Obj (List.map (fun f -> (f, Jsonx.Int (sum sect f))) fields)
  in
  Jsonx.Obj
    (Telemetry.core_sections t.telemetry ~queue_depth:t.outstanding
    @ [
        ( "graph",
          ints "graph"
            [
              "jobs_queued"; "jobs_done"; "jobs_failed"; "deduped";
              "peak_in_flight"; "node_evictions";
            ] );
        ( "cache",
          Jsonx.Obj
            [
              ("hits", Jsonx.Int hits);
              ("misses", Jsonx.Int misses);
              ("evicted", Jsonx.Int (sum "cache" "evicted"));
              ( "hit_rate",
                Jsonx.Float
                  (if total = 0 then 0.0
                   else float_of_int hits /. float_of_int total) );
            ] );
        ("workers", workers_json s);
      ])

(* The snapshot as of now: the local graph's counters, or the shards'
   most recent stats responses. *)
let stats_json t =
  match t.backend with
  | Local l ->
      Telemetry.json t.telemetry
        ~pool:(Vp_exec.Progress.snapshot l.exec.Vp_exec.Context.progress)
        ~queue_depth:t.outstanding
  | Shards s ->
      aggregate t s (List.filter_map (fun w -> w.last_pool) (all_workers s))

let write_stats_file t json =
  match t.cfg.stats_file with
  | None -> ()
  | Some path -> (
      try
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Jsonx.to_string json);
            output_char oc '\n');
        Sys.rename tmp path
      with Sys_error _ -> ())

let publish t reply json =
  match reply with
  | Some (conn, id) ->
      send conn (P.event ~id ~event:"stats" [ ("stats", json) ])
  | None -> write_stats_file t json

let finish_poll t s p =
  Hashtbl.remove s.polls p.p_id;
  publish t p.p_reply (aggregate t s p.p_pools)

(* Answer a client's [stats] ([reply = Some]) or refresh the stats file
   ([None]): at once in-process, after every live shard has answered a
   poll when sharded. *)
let request_stats t reply =
  match t.backend with
  | Local _ -> publish t reply (stats_json t)
  | Shards s ->
      let id = Printf.sprintf "st:%d" s.next_poll in
      s.next_poll <- s.next_poll + 1;
      let ws = live_workers s in
      let p =
        {
          p_id = id;
          p_reply = reply;
          p_pending = List.map (fun w -> w.slot) ws;
          p_pools = [];
        }
      in
      if ws = [] then finish_poll t s p
      else begin
        Hashtbl.replace s.polls id p;
        List.iter
          (fun w ->
            Frameio.send w.wio
              (Jsonx.Obj [ ("op", Jsonx.Str "stats"); ("id", Jsonx.Str id) ]))
          ws
      end

let poll_drop_slot t s slot =
  Hashtbl.fold (fun _ p acc -> p :: acc) s.polls []
  |> List.iter (fun p ->
         if List.mem slot p.p_pending then begin
           p.p_pending <- List.filter (fun x -> x <> slot) p.p_pending;
           if p.p_pending = [] then finish_poll t s p
         end)

let maybe_write_stats t =
  let file_poll_pending () =
    match t.backend with
    | Local _ -> false
    | Shards s ->
        Hashtbl.fold (fun _ p acc -> acc || p.p_reply = None) s.polls false
  in
  if t.cfg.stats_file <> None && not t.shutting then begin
    let now = Unix.gettimeofday () in
    if now -. t.last_stats >= t.cfg.stats_every_s
       && not (file_poll_pending ())
    then begin
      t.last_stats <- now;
      request_stats t None
    end
  end

(* --- request lifecycle ------------------------------------------------- *)

(* Every admitted request settles exactly once, counted as completed,
   failed, timed out or abandoned. *)
let settle t (r : req) =
  r.settled <- true;
  r.rconn.outstanding <- max 0 (r.rconn.outstanding - 1);
  t.outstanding <- max 0 (t.outstanding - 1)

let fail t (r : req) (rej : P.reject) =
  if not r.settled then begin
    send r.rconn (P.error ~id:r.rid rej);
    settle t r;
    let cid = r.rconn.cid in
    if rej.code = "timeout" then Telemetry.timed_out t.telemetry ~cid
    else Telemetry.failed t.telemetry ~cid
  end

let expired (r : req) now =
  match r.deadline with Some d -> now > d | None -> false

let time_out t (r : req) =
  fail t r
    (P.reject "timeout" "request exceeded its budget after %d/%d artifacts"
       r.delivered r.total)

(* One artifact's bytes. Budget enforcement is by deadline, not by luck of
   scheduling: a result that arrives past the deadline is a timeout even
   if no tick has fired yet. *)
let deliver t (r : req) ~artifact ~data =
  if (not r.settled) && expired r (Unix.gettimeofday ()) then time_out t r;
  if not r.settled then begin
    send r.rconn (P.result ~id:r.rid ~artifact ~data);
    r.delivered <- r.delivered + 1;
    if r.delivered = r.total then begin
      let wall = Unix.gettimeofday () -. r.rt0 in
      send r.rconn (P.done_ ~id:r.rid ~wall_s:wall);
      settle t r;
      Telemetry.completed t.telemetry ~cid:r.rconn.cid ~wall
    end
  end

let check_timeouts t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun r -> if (not r.settled) && expired r now then time_out t r)
    t.live;
  t.live <- List.filter (fun r -> not r.settled) t.live

let reject t conn ~id (rej : P.reject) =
  Telemetry.rejected t.telemetry ~cid:conn.cid ~code:rej.code;
  send conn (P.error ~id rej)

(* --- the sharded backend ----------------------------------------------- *)

let reap w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error (_, _, _) -> ()

(* Descriptors a freshly forked shard inherited but must not hold open:
   the listeners (else a dead front end's socket stays connectable), the
   wake pipe, every client connection and every other shard's link. *)
let child_close_list t s =
  List.map fst t.listeners
  @ [ t.wake_r; t.wake_w ]
  @ List.map (fun c -> Frameio.fd c.io) t.conns
  @ List.map (fun w -> Frameio.fd w.wio) (live_workers s)

let spawn t s slot ~restarts ~routed =
  flush stdout;
  flush stderr;
  let front_fd, shard_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (* The shard serves the socketpair until told to drain, then dies.
         The front end owns signal-driven shutdown; a shard must survive
         the terminal's ^C reaching the whole foreground process group. *)
      let code =
        try
          List.iter
            (fun sg -> Sys.set_signal sg Sys.Signal_ignore)
            [ Sys.sigint; Sys.sigterm; Sys.sigpipe ];
          List.iter close_quiet (front_fd :: child_close_list t s);
          s.run_shard shard_fd;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close shard_fd;
      Unix.set_nonblock front_fd;
      let now = Unix.gettimeofday () in
      s.workers.(slot) <-
        Some
          {
            slot;
            pid;
            wio = Frameio.create ~max_frame:t.cfg.max_frame front_fd;
            spawned = now;
            restarts;
            up = true;
            last_seen = now;
            last_ping = now;
            routed;
            inflight = 0;
            last_pool = None;
          }

(* A shard is gone — EOF, I/O error or heartbeat silence. Kill and reap
   it, fail every request with an in-flight sub on it (the client's
   resubmit hits the re-forked shard and, for whatever other shards
   finished meanwhile, the warm store), settle any stats polls waiting on
   it, and re-fork the slot. During the final drain shards exit on
   purpose: just reap, never re-fork. *)
let on_worker_gone t s w =
  if w.up then begin
    w.up <- false;
    Frameio.close w.wio;
    reap w;
    if not s.stopping then begin
      Hashtbl.fold
        (fun sid sub acc ->
          if sub.s_worker == w then (sid, sub) :: acc else acc)
        s.subs []
      |> List.iter (fun (sid, sub) ->
             Hashtbl.remove s.subs sid;
             let r = sub.s_req in
             fail t r
               (P.reject "worker_lost"
                  "shard %d (pid %d) died with the request in flight (%d/%d \
                   artifacts delivered); resubmit to retry"
                  w.slot w.pid r.delivered r.total));
      poll_drop_slot t s w.slot;
      spawn t s w.slot ~restarts:(w.restarts + 1) ~routed:w.routed
    end
    else poll_drop_slot t s w.slot
  end

(* Route by render key: the shard an artifact hashes to is the shard whose
   graph holds (or will hold) that exact node, so concurrent equal
   requests dedup inside it. Duplicate names in one request share a key,
   hence a shard. *)
let route s (r : req) spec (sb : P.submit) ~timeout =
  let n = Array.length s.workers in
  let buckets = Array.make n [] in
  List.iter
    (fun a ->
      let k =
        Spec.shard_of_key ~workers:n (Spec.render_key spec ~artifact:a)
      in
      buckets.(k) <- a :: buckets.(k))
    sb.experiments;
  Array.iteri
    (fun slot arts ->
      match (arts, s.workers.(slot)) with
      | [], _ -> ()
      | _, None -> assert false (* every slot is forked at startup *)
      | arts, Some w ->
          let sid = Printf.sprintf "s:%d" s.next_sid in
          s.next_sid <- s.next_sid + 1;
          Hashtbl.replace s.subs sid { s_req = r; s_worker = w };
          w.routed <- w.routed + List.length arts;
          w.inflight <- w.inflight + 1;
          Frameio.send w.wio
            (P.json_of_submit
               {
                 sb with
                 id = sid;
                 experiments = List.rev arts;
                 timeout_s = timeout;
               }))
    buckets

let close_sub s w sid =
  Hashtbl.remove s.subs sid;
  w.inflight <- max 0 (w.inflight - 1)

let handle_worker_frame t s w payload =
  w.last_seen <- Unix.gettimeofday ();
  match Jsonx.parse payload with
  | Error _ -> () (* a corrupt frame surfaces as a Frame_error upstream *)
  | Ok json -> (
      let str k = Option.value ~default:"" (Jsonx.string_member k json) in
      let id = str "id" in
      let sub = Hashtbl.find_opt s.subs id in
      match (Jsonx.string_member "event" json, sub) with
      | Some "stats", _ -> (
          let pool = Jsonx.member "stats" json in
          if pool <> None then w.last_pool <- pool;
          match Hashtbl.find_opt s.polls id with
          | None -> ()
          | Some p ->
              p.p_pools <- Option.to_list pool @ p.p_pools;
              p.p_pending <- List.filter (fun x -> x <> w.slot) p.p_pending;
              if p.p_pending = [] then finish_poll t s p)
      | Some "result", Some sub ->
          deliver t sub.s_req ~artifact:(str "artifact") ~data:(str "data")
      | Some "done", Some _ -> close_sub s w id
      | Some "error", Some sub ->
          close_sub s w id;
          let code =
            Option.value ~default:"job_failed"
              (Jsonx.string_member "code" json)
          in
          fail t sub.s_req (P.reject code "%s" (str "message"))
      | _ -> ())

let read_worker t s w =
  let on_frame = handle_worker_frame t s w in
  match Frameio.read_step w.wio ~buf:t.buf ~on_frame with
  | `Ok | `Closed -> ()
  | `Eof | `Io_error | `Frame_error _ -> on_worker_gone t s w

let heartbeat t s =
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      if now -. w.last_seen > dead_after_s then on_worker_gone t s w
      else if
        now -. w.last_seen > heartbeat_every_s
        && now -. w.last_ping > heartbeat_every_s
      then begin
        w.last_ping <- now;
        Frameio.send w.wio
          (Jsonx.Obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Str "hb") ])
      end)
    (live_workers s)

(* Drained: tell every shard to exit, and kill the ones still up once the
   grace period is over. *)
let stop_shards t s =
  if not s.stopping then begin
    s.stopping <- true;
    s.stop_deadline <- Unix.gettimeofday () +. stop_grace_s;
    List.iter
      (fun w ->
        Frameio.send w.wio
          (Jsonx.Obj
             [ ("op", Jsonx.Str "shutdown"); ("id", Jsonx.Str "bye") ]))
      (live_workers s)
  end
  else if Unix.gettimeofday () > s.stop_deadline then
    List.iter (on_worker_gone t s) (live_workers s)

(* --- client requests --------------------------------------------------- *)

let handle_submit t conn (sb : P.submit) =
  if t.shutting then
    reject t conn ~id:sb.id
      (P.reject "shutting_down" "server is draining for shutdown")
  else if t.outstanding >= t.cfg.max_pending then
    reject t conn ~id:sb.id
      (P.reject "overloaded" "pending queue full (%d requests); retry later"
         t.cfg.max_pending)
  else if conn.outstanding >= t.cfg.client_quota then
    reject t conn ~id:sb.id
      (P.reject "quota_exceeded"
         "client has %d requests outstanding (quota %d)" conn.outstanding
         t.cfg.client_quota)
  else
    match Spec.of_submit sb with
    | Error rej -> reject t conn ~id:sb.id rej
    | Ok spec -> (
        let timeout =
          match sb.timeout_s with
          | Some ts when ts > 0.0 -> Some ts
          | Some _ -> None
          | None ->
              if t.cfg.default_timeout_s > 0.0 then
                Some t.cfg.default_timeout_s
              else None
        in
        let now = Unix.gettimeofday () in
        let r =
          {
            rid = sb.id;
            rconn = conn;
            total = List.length sb.experiments;
            delivered = 0;
            settled = false;
            deadline = Option.map (fun ts -> now +. ts) timeout;
            rt0 = now;
          }
        in
        conn.outstanding <- conn.outstanding + 1;
        t.outstanding <- t.outstanding + 1;
        t.live <- r :: t.live;
        Telemetry.accepted t.telemetry ~cid:conn.cid;
        send conn
          (P.accepted ~id:sb.id ~artifacts:sb.experiments
             ~queue_depth:t.outstanding);
        match t.backend with
        | Shards s -> route s r spec sb ~timeout
        | Local l ->
            (* Declaring is cheap (payloads run on the worker domains), and
               the callbacks only touch the completion queue. *)
            List.iter
              (fun artifact ->
                let node = Spec.declare_artifact l.graph spec artifact in
                G.on_complete l.graph node (fun result ->
                    push_completion t l
                      { c_req = r; c_artifact = artifact; c_result = result }))
              sb.experiments)

let handle_completion t (c : completion) =
  match c.c_result with
  | Ok data -> deliver t c.c_req ~artifact:c.c_artifact ~data
  | Error msg ->
      fail t c.c_req
        (P.reject "job_failed" "%s (artifact %s)" msg c.c_artifact)

let handle_frame t conn payload =
  match Jsonx.parse payload with
  | Error msg ->
      send conn
        (P.error ~id:"" (P.reject "bad_request" "unparseable frame: %s" msg))
  | Ok json -> (
      Telemetry.received t.telemetry;
      match P.request_of_json json with
      | Error (id, rej) -> reject t conn ~id rej
      | Ok (P.Ping id) -> send conn (P.event ~id ~event:"pong" [])
      | Ok (P.Stats id) -> request_stats t (Some (conn, id))
      | Ok (P.Shutdown id) ->
          t.shutting <- true;
          send conn (P.event ~id ~event:"shutting_down" [])
      | Ok (P.Submit sb) -> handle_submit t conn sb)

(* --- connections ------------------------------------------------------- *)

let drop_conn t conn =
  if not conn.dropped then begin
    conn.dropped <- true;
    (* requests of a vanished client: nobody to answer, count them *)
    List.iter
      (fun r ->
        if r.rconn == conn && not r.settled then begin
          settle t r;
          Telemetry.abandoned t.telemetry ~cid:conn.cid
        end)
      t.live;
    t.live <- List.filter (fun r -> not r.settled) t.live;
    (match t.backend with
    | Local _ -> ()
    | Shards s ->
        (* polls that would answer this client resolve to nowhere *)
        Hashtbl.filter_map_inplace
          (fun _ p ->
            match p.p_reply with
            | Some (c, _) when c == conn -> None
            | _ -> Some p)
          s.polls);
    Telemetry.client_disconnected t.telemetry ~cid:conn.cid;
    Frameio.close conn.io;
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

let add_conn t fd ~peer =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  Telemetry.client_connected t.telemetry ~cid ~peer;
  t.conns <-
    {
      io = Frameio.create ~max_frame:t.cfg.max_frame fd;
      cid;
      outstanding = 0;
      dropped = false;
    }
    :: t.conns

let accept_loop t (listener, peer_name) =
  let rec go () =
    match Unix.accept ~cloexec:true listener with
    | fd, addr ->
        Unix.set_nonblock fd;
        add_conn t fd
          ~peer:
            (match addr with
            | Unix.ADDR_UNIX _ -> peer_name
            | Unix.ADDR_INET (host, port) ->
                Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_conn t conn =
  let on_frame = handle_frame t conn in
  match Frameio.read_step conn.io ~buf:t.buf ~on_frame with
  | `Ok | `Closed -> ()
  | `Eof | `Io_error -> drop_conn t conn
  | `Frame_error msg ->
      send conn (P.error ~id:"" (P.reject "protocol" "%s" msg));
      (* flush the error best-effort, then drop *)
      ignore (Frameio.write_step conn.io);
      drop_conn t conn

let close_listeners t =
  List.iter (fun (fd, _) -> close_quiet fd) t.listeners;
  t.listeners <- []

(* --- the loop ---------------------------------------------------------- *)

let make cfg backend ~listeners =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg;
    backend;
    telemetry = Telemetry.create ();
    buf = Bytes.create 65536;
    wake_r;
    wake_w;
    interrupted = Atomic.make false;
    listeners;
    conns = [];
    live = [];
    outstanding = 0;
    shutting = false;
    next_cid = 1;
    last_stats = Unix.gettimeofday ();
  }

let local exec cfg =
  let graph = G.create exec in
  G.set_node_cap graph cfg.node_cap;
  Local { exec; graph; cmutex = Mutex.create (); completions = [] }

let finished t =
  t.shutting && t.outstanding = 0
  && List.for_all (fun c -> not (Frameio.pending_out c.io)) t.conns
  &&
  match t.backend with
  | Local _ -> true
  | Shards s -> s.stopping && live_workers s = []

let serve ?(on_ready = fun () -> ()) t =
  (match t.backend with Local l -> G.start_workers l.graph | Shards _ -> ());
  on_ready ();
  let rec loop () =
    if Atomic.get t.interrupted || (t.listeners = [] && t.conns = []) then
      t.shutting <- true;
    if t.shutting then close_listeners t;
    (match t.backend with
    | Shards s when t.shutting && t.outstanding = 0 -> stop_shards t s
    | _ -> ());
    if not (finished t) then begin
      let links =
        match t.backend with
        | Local _ -> []
        | Shards s -> List.map (fun w -> w.wio) (live_workers s)
      in
      let ios = links @ List.map (fun c -> c.io) t.conns in
      let reads =
        (t.wake_r :: List.map fst t.listeners) @ List.map Frameio.fd ios
      in
      let writes =
        List.filter_map
          (fun io ->
            if Frameio.pending_out io then Some (Frameio.fd io) else None)
          ios
      in
      (* Tick only when something is time-driven: live deadlines, drain,
         stats polls, the stats file, or shard heartbeats (every 2 s). A
         fully idle in-process daemon blocks until a socket or the wake
         pipe wakes it — zero allocation and zero CPU between requests,
         which also keeps a resident daemon from defeating heap
         stabilization for anything else in the process, e.g. the bench
         harness. *)
      let timeout =
        if t.live <> [] || t.shutting then 0.2
        else
          match t.backend with
          | Local _ -> if t.cfg.stats_file = None then -1.0 else 0.2
          | Shards s ->
              if Hashtbl.length s.polls > 0 then 0.2 else heartbeat_every_s
      in
      let readable, _, _ =
        match Unix.select reads writes [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let ready fd = List.mem fd readable in
      if ready t.wake_r then drain_wake t;
      List.iter (fun l -> if ready (fst l) then accept_loop t l) t.listeners;
      List.iter
        (fun c ->
          if (not c.dropped) && ready (Frameio.fd c.io) then read_conn t c)
        t.conns;
      (match t.backend with
      | Local l -> List.iter (handle_completion t) (take_completions l)
      | Shards s ->
          List.iter
            (fun w ->
              if w.up && ready (Frameio.fd w.wio) then read_worker t s w)
            (live_workers s));
      check_timeouts t;
      (* ping quiet shards, then flush everything queued, this
         iteration's frames included *)
      (match t.backend with
      | Local _ -> ()
      | Shards s ->
          heartbeat t s;
          List.iter
            (fun w ->
              if w.up && Frameio.pending_out w.wio then
                match Frameio.write_step w.wio with
                | `Ok -> ()
                | `Io_error -> on_worker_gone t s w)
            (live_workers s));
      List.iter
        (fun c ->
          if (not c.dropped) && Frameio.pending_out c.io then
            match Frameio.write_step c.io with
            | `Ok -> ()
            | `Io_error -> drop_conn t c)
        t.conns;
      maybe_write_stats t;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_listeners t;
      (match t.backend with
      | Local l -> G.stop_workers l.graph
      | Shards s ->
          List.iter
            (fun w ->
              w.up <- false;
              Frameio.close w.wio;
              reap w)
            (live_workers s));
      write_stats_file t (stats_json t);
      List.iter (drop_conn t) t.conns;
      close_quiet t.wake_r;
      close_quiet t.wake_w)
    loop;
  stats_json t

(* --- entry point ------------------------------------------------------- *)

let unix_listener path =
  (if Sys.file_exists path then
     (* stale socket from a dead daemon is unlinked; a live one is an error *)
     let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
         Unix.close probe;
         failwith
           (Printf.sprintf "socket %s: a daemon is already listening" path)
     | exception Unix.Unix_error (_, _, _) ->
         Unix.close probe;
         (try Sys.remove path with Sys_error _ -> ()));
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let tcp_listener port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

(* A forked shard: the in-process backend over the socketpair, with
   admission unbounded and no deadline of its own — forwarded sub-submits
   carry the front end's timeout as an explicit [timeout_s]. *)
let run_shard make_exec cfg fd =
  let cfg =
    {
      cfg with
      max_pending = max_int / 2;
      client_quota = max_int / 2;
      default_timeout_s = 0.0;
      stats_file = None;
    }
  in
  let t = make cfg (local (make_exec ()) cfg) ~listeners:[] in
  Unix.set_nonblock fd;
  add_conn t fd ~peer:"front end";
  ignore (serve t)

let run ?on_ready ~workers ~make_exec cfg =
  if workers < 0 then invalid_arg "Server.run: workers must be >= 0";
  (* Listeners exist before any fork so the shards can close their
     inherited copies; the shards themselves never accept. *)
  let listeners =
    (unix_listener cfg.socket_path, cfg.socket_path)
    :: List.map
         (fun p -> (tcp_listener p, "tcp"))
         (Option.to_list cfg.tcp_port)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove cfg.socket_path with Sys_error _ -> ())
    (fun () ->
      let backend =
        if workers = 0 then local (make_exec ()) cfg
        else
          Shards
            {
              run_shard = run_shard make_exec cfg;
              workers = Array.make workers None;
              subs = Hashtbl.create 64;
              polls = Hashtbl.create 8;
              next_sid = 0;
              next_poll = 0;
              stopping = false;
              stop_deadline = 0.0;
            }
      in
      let t = make cfg backend ~listeners in
      (match backend with
      | Shards s ->
          Array.iteri
            (fun slot _ -> spawn t s slot ~restarts:0 ~routed:0)
            s.workers
      | Local _ -> ());
      (* The handler also writes the wake pipe so a signal that lands just
         before an idle (infinite-timeout) select still wakes the loop. *)
      let on_signal _ =
        Atomic.set t.interrupted true;
        wake t
      in
      let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
      let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigint old_int;
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigpipe old_pipe)
        (fun () -> serve ?on_ready t))
