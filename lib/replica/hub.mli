(** The leader half of WAL shipping.

    A hub tails the leader engine's own on-disk WAL ({!Wal.Tail}) into a
    {!Backlog} window and pushes CRC-framed record payloads to
    subscribers over their server connections, piggybacking the durable
    and commit watermarks on every [Wal_frames] message (an empty one is
    the heartbeat).  It plugs into the {!Server} event loop through the
    extension hook — {!attach}, or per-callback for a promoted follower
    that owns the dispatch itself.

    {2 The no-lost-acks gate}

    The hub is also the semi-synchronous commit gate.  Installed as the
    one-shard cluster's gate ({!Shard.Cluster.set_gate}), it intercepts
    every group commit's completion:
    with [sync_replicas = 0] acks release as soon as the leader's own
    fsync returns (classic single-node durability); with
    [sync_replicas = k >= 1] they release only once [k] followers have
    acknowledged — replayed {e and fsynced} — the batch's last sequence.
    A client ack then certifies the write exists on [1 + k] logs, so the
    failover rule "promote the most-advanced follower" can never lose an
    acked write: the promoted watermark is at least the highest acked
    sequence.  With fewer than [k] live followers, acks stall — strict
    semantics, chosen over silently degrading the guarantee.

    The tail is only polled while [Durable.wal_unsynced = 0], so a
    follower can never hold a record the leader could still lose, and
    follower watermarks never exceed the leader's durable watermark.

    {2 Fencing}

    Positive evidence of a newer leadership term — a [Wal_subscribe] or
    [Wal_ack] carrying [epoch > epoch t] — deposes this leader: the hub
    invokes its step-down hook exactly once ({!attach} wires it to put
    admission in standby and remove the cluster's gate, so no further
    client write is accepted or acked), drops its subscribers (silence
    trips their failure detectors; their resubscription is refused with
    [Fenced], sending them after the real leader), and keeps serving
    queries.  Recovery is the operator's, or a re-seeded follower's.

    A WAL record must fit one wire message ([Wire.max_payload_bytes]);
    the tail poll fails loudly on an unshippable record rather than let
    replication stall silently. *)

type t

val create :
  ?vfs:Storage.Vfs.t ->
  ?metrics:Telemetry.Metrics.t ->
  ?cap:int ->
  ?sync_replicas:int ->
  ?heartbeat_s:float ->
  ?flow_limit:int ->
  ?epoch:int ->
  ?promotions:int ->
  path:string ->
  Durable.t ->
  t
(** A hub over the engine opened at [path] (the tail opens a second read
    handle on [Durable.wal_path path] through [vfs], without the log's
    one-process guard).  Pre-loads the
    records already in the log into the backlog.  [cap] bounds backlog
    frames (default 65536); [heartbeat_s] (default 0.5) paces
    watermark-only frames to idle subscribers; [flow_limit] (default
    1 MiB) stops pushing to a subscriber whose unflushed output exceeds
    it; [epoch]/[promotions] seed the fencing state (a promoted follower
    carries its own forward).  [metrics] receives the [replica_*] gauges
    and counters. *)

val attach : t -> Server.t -> unit
(** Wire the hub into a server it owns outright: extension handler, tick,
    connection-close hook, and the gate of the server's one-shard
    cluster. *)

(** {1 The pieces, for callers that own the dispatch} *)

val handle : t -> Server.ext_ctx -> Wire.request -> Server.ext_outcome
(** [Wal_subscribe] (fencing, then window checks — behind the backlog
    floor {e or ahead of the durable watermark} answers [Rebootstrap] —
    then attach), [Wal_ack] (advance, release gates), [Replica_stats],
    [Promote] (refused — this node already leads). *)

val set_step_down : t -> (unit -> unit) -> unit
(** Hook run exactly once on the first fencing evidence (see module
    doc).  {!attach} installs the standard one; callers owning the
    dispatch themselves must install their own. *)

val set_frame_trace : t -> (unit -> int64 option) -> unit
(** Supplier of the trace id stamped on outgoing [Wal_frames] pushes —
    {!attach} wires it to {!Server.last_write_trace}, so a tagged
    write's shipping and the follower's replay join its trace.  Callers
    owning the dispatch (a promoted follower) install their own. *)

val observe_extra : t -> unit -> (string * Telemetry.Json.t) list
(** The leader's [Observe] contribution: role, watermarks, per-follower
    acked sequence and lag.  {!attach} installs it via
    {!Server.set_observe_extra}. *)

val fenced : t -> bool
(** Whether deposition evidence has been seen (sticky). *)

val tick : t -> unit
(** Poll the tail, release satisfied gates, ship backlog to every
    subscriber within flow control, heartbeat the idle ones, reap
    subscribers that fell behind the window. *)

val gate : t -> max_seq:int -> fire:(unit -> unit) -> unit
(** The group-commit gate (see the module doc). *)

val conn_closed : t -> int -> unit
(** Drop the subscriber on that connection, if any. *)

val stats : t -> Wire.replica_stats

val epoch : t -> int
val set_epoch : t -> int -> unit
(** Raise the fencing epoch (never lowers). *)

val durable : t -> int
(** The fsync-covered sequence — what may be shipped. *)

val commit_watermark : t -> int
(** The sequence whose acks may be released (see module doc). *)

val frames_shipped : t -> int
val stale_acks : t -> int
(** Acks carrying an old epoch, ignored — the deposed-leader residue. *)

val followers : t -> (int * int) list
(** [(connection id, acked sequence)] per live subscriber. *)

val pending_gates : t -> int
(** Group commits whose acks are still held back. *)
