(** The query service: a [Unix.select] event loop serving the {!Wire}
    protocol over a {!Shard.Cluster} — one shard whose writer runs on
    the loop's own domain, or several writer domains, with or without
    reader domains.

    One single-threaded loop owns the network: the listening socket,
    every connection's read/write state machine, and the {!Admission}
    gate — so no locks on connection state, and a natural batching
    boundary: all the writes that arrive within one loop iteration
    commit under one WAL sync per shard.

    Requests are submitted to the cluster; their callbacks fill the
    reserved response slots, at once (a query on a one-shard cluster) or
    when the loop calls [Shard.Cluster.drain] (the cluster's wake pipe
    sits in the [select] read set, so the loop sleeps until either a
    socket or a completion is ready).

    Per iteration ({!step}):

    + [select] on the listener (while accepting), every readable
      connection that is not backpressured, and every connection with
      pending output;
    + accept new connections (non-blocking);
    + read and decode frames; admitted requests go to the cluster,
      everything refused gets its typed error response at once.  A
      connection that sends an undecodable frame is answered with
      [Bad_request] and closed after the response flushes (framing can
      no longer be trusted);
    + drain the cluster — the one-shard group commit, then completions
      posted by writer and reader domains;
    + write out response bytes (non-blocking, partial writes carried to
      the next iteration).

    {2 Ordering}

    Responses go back to each connection strictly in request order, even
    though a query answered mid-iteration completes before a write
    waiting on the batch sync: each request reserves a response slot at
    decode time and the writer only flushes the filled prefix.

    {2 Connections}

    A connection whose descriptor reaches FD_SETSIZE (1024), which
    [select] cannot watch, is answered with a typed [Overloaded] error
    and closed at accept; the loop keeps serving the others.

    {2 Backpressure}

    A connection whose pending output exceeds [high_water] stops being
    {e read} until the client drains it — a client that pipelines
    without reading responses stalls itself, not the server.

    {2 Shutdown}

    {!request_shutdown} (or a wire [Shutdown] request) starts the drain:
    stop accepting, answer requests already received, flush every
    connection, then {!step} returns [false] and {!run} returns.  The
    serve CLI maps SIGTERM/SIGINT to exactly this, so a deployed server
    exits 0 with every acknowledged write durable. *)

type config = {
  max_in_flight : int;  (** {!Admission} in-flight cap (default 1024). *)
  max_queue_depth : int;  (** {!Admission} write-queue cap (default 256). *)
  high_water : int;
      (** Per-connection pending-output bytes beyond which reads pause
          (default 256 KiB). *)
}

val default_config : config

type t

val listen_unix : path:string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket, removing a stale socket
    file at [path] first.  @raise Unix.Unix_error on bind failure. *)

val listen_tcp : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen on TCP [host:port] (default host 127.0.0.1);
    returns the bound port (useful with [port:0]). *)

val create :
  ?config:config ->
  ?telemetry:Telemetry.Tracer.t ->
  ?metrics:Telemetry.Metrics.t ->
  cluster:Shard.Cluster.t ->
  listen:Unix.file_descr ->
  unit ->
  t
(** Serve [cluster] on a listening socket.  The caller owns the
    cluster's lifecycle: create it first, and call
    [Shard.Cluster.shutdown] after {!run} returns.  Health is per shard:
    a write to a degraded shard bounces with its engine's typed error
    ([Read_only] once the engine is read-only) while healthy shards keep
    accepting.  [metrics] (default a private registry) receives
    [server_*] counters and the queue-depth gauge. *)

val step : t -> timeout:float -> bool
(** One event-loop iteration, blocking in [select] at most [timeout]
    seconds.  Returns [false] once the server has fully drained after a
    shutdown request — the loop is over, every socket closed.  Exposed
    so tests can single-step the server deterministically against
    in-process clients. *)

val run : t -> unit
(** [while step t ~timeout:1.0 do () done] — serve until shutdown. *)

val request_shutdown : t -> unit
(** Begin the drain; safe to call from a signal handler. *)

val shutting_down : t -> bool
val connections : t -> int
val requests : t -> int

val cluster : t -> Shard.Cluster.t

val admission : t -> Admission.t
val metrics : t -> Telemetry.Metrics.t

val telemetry : t -> Telemetry.Tracer.t

(** {2 Observability}

    {!enable_phases} turns on per-request phase accounting: every
    admitted Query/Insert/Delete carries a {!Telemetry.Phases.cell}
    charged stage by stage (decode, admission wait, queue wait, batch
    build, WAL append, fsync share, replication-quorum wait, engine
    apply, reply flush) and finished into the recorder's histograms when
    its response bytes reach the socket.  The wire [Observe] request —
    and {!observe_json} for in-process consumers like the metrics HTTP
    endpoint — answers with one JSON document of live gauges: per-shard
    watermark/reader lag and snapshot age, queue depths, retention
    horizon distance, disk pressure, the phase summary, flight-recorder
    state, and extension-contributed fields. *)

val enable_phases : t -> Telemetry.Phases.recorder -> unit

val phase_recorder : t -> Telemetry.Phases.recorder option

val set_flight : t -> Telemetry.Flight.t -> unit
(** Register the process flight recorder so [Observe] reports its dump
    count and ring occupancy. *)

val flight : t -> Telemetry.Flight.t option

val set_observe_extra : t -> (unit -> (string * Telemetry.Json.t) list) -> unit
(** Extra top-level fields merged into the [Observe] document — the
    replication extension reports its role and follower lag here. *)

val last_write_trace : t -> int64 option
(** Trace id of the most recent traced write accepted by this server.
    The replication hub stamps outgoing WAL-frame pushes with it so a
    tagged write's shipping and follower replay join its trace. *)

val observe_json : t -> string
(** The [Observe] reply document (also served to wire requests). *)

(** {2 Loop extension}

    How {!Replica} plugs replication into the event loop without the
    server knowing its semantics: an extension claims the replication
    opcodes ([Wal_subscribe] / [Wal_ack] / [Replica_stats] / [Promote]),
    a per-iteration tick ships WAL frames, watched fds put a follower's
    upstream socket into the [select] read set, and a close hook
    reclaims subscriber state.  Without an extension the replication
    opcodes are answered with [Err Invalid_request]. *)

(** The extension's view of the connection a replication request arrived
    on. *)
type ext_ctx = {
  ext_conn : int;
      (** Connection id — stable for the connection's life, never
          reused by this server. *)
  ext_push : bytes -> unit;
      (** Stage pre-encoded frame bytes on this connection, out of band
          of the request/response slot queue.  No-op once the connection
          is dead. *)
  ext_pending : unit -> int;
      (** Unflushed output bytes on this connection — the flow-control
          signal for pacing pushed frames. *)
}

(** What the extension did with a replication request. *)
type ext_outcome =
  | Ext_reply of Wire.response  (** Answer in order, like any request. *)
  | Ext_subscribe of Wire.response
      (** Answer {e and} mark the connection a subscription: the reply is
          staged immediately (ahead of any pushed frame), the high-water
          read pause no longer applies, and subsequent non-replication
          requests on it are rejected. *)
  | Ext_silent  (** No response ([Wal_ack] is fire-and-forget). *)
  | Ext_pass  (** Not handled — the server answers [Err Invalid_request]. *)

val set_extension : t -> (ext_ctx -> Wire.request -> ext_outcome) -> unit
(** Install the replication request handler.  Called from the event loop
    for every replication opcode while the server is accepting (during a
    drain they are answered [Shutting_down] without consulting it). *)

val set_tick : t -> (unit -> unit) -> unit
(** Called once per {!step}, after the group commit (new WAL records are
    durable and shippable, gate callbacks have run) and before responses
    are pumped and written — anything the tick fills or pushes flushes
    within the same step. *)

val on_conn_close : t -> (int -> unit) -> unit
(** Called with the connection id whenever a connection dies, however it
    dies — the extension drops the matching subscriber. *)

val add_watch : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Put [fd] in the loop's [select] read set and run the callback when
    it is readable — how a follower's upstream socket shares the loop
    with served connections.  Re-adding an fd replaces its callback. *)

val remove_watch : t -> Unix.file_descr -> unit

val stats : t -> Wire.stats
(** The snapshot served to wire [Stats] requests: the cluster totals. *)

val shard_stats : t -> Wire.shard_stat list
(** The per-shard rows served to wire [Shard_stats] requests, with each
    engine's live page I/O counters. *)
