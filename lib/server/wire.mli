(** The network wire protocol: versioned, length-prefixed, CRC32-framed
    binary messages over a byte stream.

    Every message travels as one {!Storage.Frame}, [len u32 | crc u32 |
    payload]:

    {v
    payload (v1) = 1 u8 | tag u8 | body
    payload (v2) = 2 u8 | trace i64 | tag u8 | body
    v}

    Version 2 differs from version 1 only by the trace id interposed
    between the version and the tag — the distributed-tracing request id
    that stitches spans across processes.  Negotiation is per-frame: an
    encoder without [?trace] emits version 1 byte for byte as before, so
    old clients interoperate with new servers (and vice versa for every
    v1 message); the decoder accepts both versions and the [*_traced]
    variants surface the id.

    [len] is validated against {!max_payload_bytes} {e before} any
    allocation, and the CRC before the payload is interpreted.  Integers
    are little-endian ({!Storage.Codec}); the [version] is the first
    payload byte, so the CRC covers it.

    The decoder is total: any byte sequence yields either a decoded
    message, {!decoded.Incomplete} (a well-formed prefix — read more
    bytes), or a typed {!error} — never an exception, and it never reads
    past [pos + avail].

    Responses carry no request ids: the server answers each connection's
    requests strictly in arrival order, so pipelined clients match
    responses to requests by position. *)

val version : int
(** Baseline protocol version (1): untraced frames. *)

val version_traced : int
(** Protocol version 2: identical to v1 plus a trace id after the
    version byte. *)

val max_payload_bytes : int
(** Sanity bound on one payload; larger length prefixes are {!Oversized}. *)

(** {1 Messages} *)

type agg = Sum | Count | Avg

type request =
  | Query of { agg : agg; klo : int; khi : int; tlo : int; thi : int }
      (** Range-temporal aggregate over [\[klo,khi) x \[tlo,thi)]. *)
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }
  | Checkpoint  (** Snapshot the warehouse and truncate its log. *)
  | Stats  (** Server and engine counters; see {!stats}. *)
  | Health  (** The engine's current {!Durable.health}. *)
  | Ping
  | Shutdown
      (** Ask the server to drain — stop accepting, finish queued work,
          flush every connection, exit its loop. *)
  | Shard_stats
      (** Per-shard counters and watermarks; a single-shard server
          answers with one entry covering the whole key domain. *)
  | Wal_subscribe of { epoch : int; from_seq : int }
      (** Replication handshake: stream WAL records with sequence numbers
          above [from_seq].  [epoch] is the highest fencing epoch the
          follower has seen; a leader with a lower epoch has been deposed
          and must answer [Err Fenced]. *)
  | Wal_ack of { epoch : int; seq : int }
      (** Follower → leader: every record up to [seq] is replayed {e and
          fsynced} on the follower.  Fire-and-forget: no response. *)
  | Replica_stats  (** Replication role, watermarks, and counters. *)
  | Promote
      (** Ask a follower to promote itself to leader now (manual
          failover).  A leader answers [Err Invalid_request]. *)
  | Vacuum of { horizon : int; max_pages_per_step : int }
      (** Raise the retention horizon to [horizon] and reclaim dead pages
          online, [max_pages_per_step] pages per WAL-logged chunk (0
          means the server default).  Every shard vacuums to the horizon
          or its own clock, whichever is older.  Answered with
          {!Vacuum_reply}.  Followers answer [Err Invalid_request]:
          retention is driven on the leader and reaches followers
          through the shipped WAL. *)
  | Observe
      (** Live observability snapshot: per-shard and per-follower lag
          gauges, snapshot age, backlog depth, vacuum horizon distance,
          flight-recorder state.  Answered with {!Observe_reply}. *)

type error_code =
  | Bad_request  (** The frame decoded but the message made no sense. *)
  | Invalid_request
      (** Precondition violation (key out of range, 1TNF conflict, time
          going backwards) — the engine state is untouched. *)
  | Overloaded  (** Admission control shed the request; retry later. *)
  | Read_only
      (** The engine is in read-only degradation: writes are rejected,
          queries keep serving. *)
  | Write_failed  (** The update was not applied (typed storage error). *)
  | Shutting_down  (** The server is draining and takes no new work. *)
  | Fenced
      (** The sender's fencing epoch is stale: a newer leader exists.
          Deposed leaders and lagging followers must stop and re-sync. *)
  | Rebootstrap
      (** A replication subscriber cannot be served from the in-memory
          backlog — behind the evicted floor, or ahead of the leader's
          durable watermark (divergent history).  Retrying is useless:
          the node must be re-seeded from a checkpoint copy, or an
          operator must promote it. *)
  | Below_horizon
      (** The query's time range dips below the engine's retention
          horizon: the versions it would read have been vacuumed.  The
          engine state is untouched; narrow the range or query another
          replica with a longer retention. *)

val pp_error_code : Format.formatter -> error_code -> unit

type stats = {
  updates : int;  (** Inserts + deletes applied over the engine's life. *)
  alive : int;
  pages : int;
  now : int;
  health : Durable.health;
  queue_depth : int;  (** Writes queued for the next group commit. *)
  in_flight : int;  (** Admitted requests not yet answered. *)
  conns : int;
  requests : int;  (** Requests decoded over the server's life. *)
  shed : int;  (** Requests answered [Overloaded]. *)
  batches : int;  (** Group commits flushed. *)
  batched_writes : int;  (** Writes acknowledged through group commit. *)
  wal_syncs : int;
  horizon : int;  (** Retention horizon; versions below it are vacuumed. *)
  pages_reclaimed : int;  (** Pages freed or pruned by vacuum, engine life. *)
  vacuum_steps : int;  (** Vacuum chunks applied, engine life. *)
}

(** One shard's row in a [Shard_stats] reply: its key range, the
    writer's committed version watermark, the minimum watermark the
    reader replicas have applied (their snapshot lag), queue depth, group
    commit counters, health, and I/O — see {!Shard.Snapshot}. *)
type shard_stat = {
  shard : int;
  s_klo : int;
  s_khi : int;  (** Half-open key range [\[s_klo, s_khi)]. *)
  watermark : int;
  reader_watermark : int;
  s_now : int;
  s_alive : int;
  s_queue : int;
  s_batches : int;
  s_acked : int;
  s_wal_syncs : int;
  s_health : Durable.health;
  s_io_reads : int;
  s_io_writes : int;
  s_io_syncs : int;
}

(** A node's replication role: [R_single] (no replication attached),
    [R_leader] (ships WAL frames, gates acks), [R_follower] (replays
    frames, serves read-only queries). *)
type role = R_single | R_leader | R_follower

type replica_stats = {
  r_role : role;
  r_epoch : int;  (** Current fencing epoch. *)
  r_durable : int;
      (** Leader: fsync-covered WAL prefix (what may be shipped).
          Follower: its own replayed-and-fsynced watermark. *)
  r_commit : int;
      (** Leader: replication-acknowledged watermark — with
          [sync_replicas >= 1] the prefix whose client acks may be
          released.  Follower: equals [r_durable]. *)
  r_leader_durable : int;
      (** Follower: the leader's durable watermark as last heard;
          leader: [= r_durable]. *)
  r_lag : int;
      (** Leader: durable − min subscriber ack (0 with no subscribers);
          follower: leader durable − own replayed watermark. *)
  r_frames_shipped : int;
  r_frames_replayed : int;
  r_promotions : int;  (** Failover promotions performed by this process. *)
  r_followers : (int * int) list;  (** Leader: (subscriber id, acked seq). *)
}

type response =
  | Agg of { sum : int; count : int }
      (** Answer to any {!Query}: AVG is [sum/count], client-side. *)
  | Ack  (** Insert / delete / checkpoint / shutdown succeeded. *)
  | Err of { code : error_code; detail : string }
  | Stats_reply of stats
  | Health_reply of Durable.health
  | Pong
  | Shard_stats_reply of shard_stat list
  | Sub_ok of { epoch : int; floor : int; durable : int }
      (** Subscription accepted at [epoch]; the leader's backlog reaches
          back to sequence [floor] (exclusive) and its durable watermark
          is [durable].  A follower below [floor] needs a snapshot
          transfer and is refused instead. *)
  | Wal_frames of { epoch : int; durable : int; commit : int; frames : bytes list }
      (** A batch of WAL record payloads in sequence order, each a
          {!Storage.Frame} inside the message, as in the log.  An
          empty [frames] list is a heartbeat carrying watermarks only. *)
  | Replica_stats_reply of replica_stats
  | Vacuum_reply of {
      v_horizon : int;  (** The horizon the store now enforces. *)
      v_steps : int;  (** WAL-logged chunks the vacuum ran as. *)
      v_pages_freed : int;
      v_pages_pruned : int;  (** Pages with dead records dropped in place. *)
      v_records_dropped : int;
    }  (** Answer to {!request.Vacuum}. *)
  | Observe_reply of string
      (** JSON text (parse with {!Telemetry.Json.of_string}); the schema
          is owned by the server so gauges can grow without wire
          changes. *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
val pp_shard_stat : Format.formatter -> shard_stat -> unit
val pp_role : Format.formatter -> role -> unit

(** {1 Encoding} *)

val encode_request : ?trace:int64 -> request -> bytes
(** The complete frame, ready to write.  Without [?trace] this is the
    version-1 encoding, byte for byte; with it, the version-2 encoding
    carrying the trace id. *)

val encode_response : ?trace:int64 -> response -> bytes

val frame : bytes -> bytes
(** Frame an arbitrary payload (length prefix + CRC + payload verbatim).
    The payload must already start with its version and tag bytes —
    {!encode_request}/{!encode_response} are built on this; tests use it
    to craft adversarial frames (wrong version, unknown tag, junk body)
    whose checksum is nevertheless valid.
    @raise Invalid_argument if the payload is empty or exceeds
    {!max_payload_bytes}. *)

(** {1 Decoding} *)

type error =
  | Oversized of int  (** Length prefix beyond {!max_payload_bytes}. *)
  | Bad_length of int  (** Length prefix too small to hold any message. *)
  | Bad_crc  (** Checksum mismatch: the payload is corrupt. *)
  | Unknown_version of int
  | Unknown_tag of int
  | Bad_payload of string
      (** The payload ended early, held an out-of-range field, or had
          trailing bytes after a complete message. *)

val pp_error : Format.formatter -> error -> unit

type 'a decoded =
  | Complete of 'a * int
      (** The message plus the total frame bytes consumed (header and
          payload), so the caller can advance its buffer. *)
  | Incomplete
      (** A valid prefix of a frame — not an error, read more bytes.  A
          stream that {e ends} here was truncated mid-frame. *)
  | Fail of error

val decode_request : buf:bytes -> pos:int -> avail:int -> request decoded
(** Decode one frame from [buf.(pos .. pos+avail)].  Never raises, never
    reads outside that window.  Accepts v1 and v2 frames; any trace id
    is dropped — use {!decode_request_traced} to see it. *)

val decode_response : buf:bytes -> pos:int -> avail:int -> response decoded

val decode_request_traced :
  buf:bytes -> pos:int -> avail:int -> (request * int64 option) decoded
(** Like {!decode_request} but surfacing the v2 trace id ([None] on v1
    frames). *)

val decode_response_traced :
  buf:bytes -> pos:int -> avail:int -> (response * int64 option) decoded

val is_write : request -> bool
(** [Insert] and [Delete] — the requests group commit batches and a
    read-only engine rejects. *)
