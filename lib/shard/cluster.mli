(** The serving engine behind [serve]: one writer per key shard, optional
    reader domains with lock-free snapshot replicas, and a
    scatter-gather front end for the single-threaded event loop.

    {2 Topology}

    {v
                      main domain (event loop)
              submit_write / submit_query / drain
                 |                        |
        writer mailboxes           reader mailboxes
         (one per shard)           (one per reader)
                 |                        |
     +-----------+-----------+      +-----+------+
     | writer 0  | writer 1  |      | reader 0 ..|
     | Durable.s0| Durable.s1| ---> | Rta replica|
     | WAL + grp | WAL + grp | cast | per shard  |
     | commit    | commit    |      | (no locks) |
     +-----------+-----------+      +------------+
            |   publish Snapshot.stat   |  publish applied watermark
            +------> Atomic cells <-----+
    v}

    Each writer owns its shard's {!Durable} engine and WAL outright — no
    other domain ever touches them — and runs the group commit: take a
    batch of writes, apply them (logged, unsynced), issue {e one} WAL
    sync, then acknowledge.  After the sync it broadcasts the batch's
    applied ops to every reader mailbox and publishes a fresh
    {!Snapshot.stat} (the version watermark).  Reader domains apply the
    broadcasts to private in-memory {!Warehouse} replicas and answer
    queries from them with no locks at all — the MVSBT's published
    versions are immutable, so a replica at watermark [W] is a true
    snapshot.

    {2 One shard}

    A one-shard cluster runs the same worker code on the caller's domain
    — no writer domain, no mailbox, no hop per request.  Writes queue
    until {!drain} (or {!await}, or a checkpoint or vacuum) commits them,
    [max_batch] to a WAL sync, so everything the event loop decodes in
    one iteration shares one fsync; a submit never blocks.  Queries are
    answered at once from committed state: they see only writes whose
    sync has returned and never split a batch.  Its stats are read live
    from the engine, so writes applied behind the cluster's back (a
    follower's replay) show up too.  Only a one-shard cluster takes a
    replication gate ({!set_gate}).

    {2 Ordering (read-your-writes)}

    A writer enqueues the reader broadcast {e before} posting the write's
    completion, and mailboxes are FIFO — so any query submitted after a
    write's acknowledgement was observed lands behind that write's
    broadcast in every reader's queue and sees it applied.  Queries
    submitted concurrently with writes may read an older watermark; each
    per-shard replica is always a consistent committed prefix
    (version-skew across shards is allowed and tested).

    {2 Completions}

    Domains never touch event-loop state.  Every submission carries a
    callback; the owning domain computes the result and posts a thunk to
    the completion queue, waking the event loop through {!wake_fd} (a
    self-pipe added to its [select] read set).  The loop calls {!drain}
    to run completed thunks — on the main domain, so callbacks may touch
    connection and admission state freely.

    With [readers = 0] queries scatter to the writers (which interleave
    them with batches); with [readers > 0] each query goes whole to one
    reader, round-robin, and is decomposed there. *)

module E := Storage.Storage_error

type config = {
  readers : int;
  max_batch : int;  (** Writes per group commit, per shard. *)
  mailbox_capacity : int;
  sim_io_ns : int;
      (** Simulated device latency charged per logical page touch on the
          query path — extends the repo's I/O cost-model convention to
          wall clock, so reader scaling is observable even on a
          single-core host (queries overlap their simulated I/O waits).
          [0] (the default) disables it. *)
}

val default_config : config
(** [{ readers = 0; max_batch = 64; mailbox_capacity = 1024; sim_io_ns = 0 }] *)

type outcome = Applied | Rejected of string | Failed of E.t
(** Per-write result: [Applied] means logged, applied, and covered by a
    returned WAL sync on its shard; [Rejected] is a precondition
    violation that left the engine untouched (it never poisons the rest
    of its batch); [Failed] is an I/O failure on the append or the batch
    sync, and nothing it covers is acknowledged. *)

type error =
  | Invalid of string  (** Precondition violation, or a shut-down cluster. *)
  | Below_horizon of { at : int; horizon : int }
      (** The window reaches below a shard's retention horizon. *)
  | Io of E.t

type t

val shard_path : string -> shards:int -> int -> string
(** Where shard [i] of a [shards]-shard warehouse at [path] lives:
    [path] itself for one shard, else [path.s<i>]. *)

val create :
  ?config:config ->
  ?telemetry:Telemetry.Tracer.t ->
  ?boundaries:int list ->
  Durable.t array ->
  t
(** Serve one open engine per shard (shard [i] owns keys in
    [Router.range]), seed each reader's replicas from their state, and
    spawn the domains: a writer per shard when there are several, and
    [readers] readers.  The engines should be open under [Wal.Never] —
    the group commit owns the sync — and must agree on [max_key].  The
    caller keeps them: close them after {!shutdown}.  [telemetry]
    receives [shard.batch] / [shard.query] / [reader.query] spans; each
    domain registers a thread name with
    {!Telemetry.Tracer.set_thread_name} so Chrome exports label its
    lane.
    @raise Invalid_argument on a bad shard/reader count. *)

val router : t -> Router.t
val config : t -> config

(** {1 Submission — main domain only} *)

val submit_write :
  t ->
  ?cell:Telemetry.Phases.cell ->
  ?trace:int64 ->
  Op.t ->
  (outcome -> unit) ->
  unit
(** Route to the owning shard's writer.  The callback runs from a later
    {!drain}.  [cell] rides to the owning writer, which charges the
    request's queue wait, batch build, WAL append, fsync share, and tree
    apply to it; a writer domain's completion charges the way back as
    queue wait too.  [trace] is re-installed as the ambient trace id
    around the engine apply so the shard's spans join the request's
    trace. *)

val submit_query :
  t ->
  ?cell:Telemetry.Phases.cell ->
  ?trace:int64 ->
  klo:int ->
  khi:int ->
  tlo:int ->
  thi:int ->
  ((int * int, error) result -> unit) ->
  unit
(** Scatter-gather SUM/COUNT over the rectangle; the callback receives
    the merged pair (AVG is sum/count client-side, as on the wire).
    With readers the cell rides to the one serving reader (queue wait +
    apply charged there, the way back as queue wait); on the scatter
    path the whole round trip is charged as the apply phase from the
    main domain, because several writer domains may hold parts of one
    query concurrently.  Below a shard's horizon the answer is
    [Below_horizon], whichever writer or reader serves it. *)

val submit_checkpoint : t -> ((unit, error) result -> unit) -> unit
(** Checkpoint every shard behind every write submitted before it;
    first error wins. *)

val submit_vacuum :
  t ->
  horizon:int ->
  max_pages_per_step:int ->
  ((Rta.vacuum_report, error) result -> unit) ->
  unit
(** Vacuum every shard behind every write submitted before it (see
    {!Durable.vacuum}).  Each shard vacuums to [horizon] or to its own
    clock, whichever is older — shard clocks advance independently —
    and reader replicas follow.  The merged report carries the newest
    horizon any shard took, summed steps and progress; first error
    wins. *)

val set_gate : t -> (max_seq:int -> fire:(unit -> unit) -> unit) option -> unit
(** Replication ack gate.  With a gate installed, a batch that durably
    applied at least one write does {e not} run its callbacks; the gate
    receives the engine's post-batch update count ([max_seq]) and a
    [fire] thunk that runs them.  A semi-sync replication hub holds
    [fire] until enough followers have acknowledged [max_seq], so a
    client ack then certifies durability on leader {e and} replicas.
    Batches with no durable write bypass the gate.  [fire] must be
    called exactly once, from the caller's domain.
    @raise Invalid_argument unless the cluster has one shard. *)

(** {1 The completion loop} *)

val wake_fd : t -> Unix.file_descr
(** Readable whenever completions are pending; add to [select]. *)

val drain : t -> int
(** Commit the writes queued on a one-shard cluster, then run pending
    completion thunks on the calling (main) domain; returns how many
    thunks ran. *)

val outstanding : t -> int
(** Submissions whose callbacks have not run yet. *)

val pending_writes : t -> int
(** Outstanding writes — the cluster's admission queue depth. *)

val await : t -> unit
(** Drain until [outstanding t = 0] (blocking on {!wake_fd}) — for
    direct drivers (bench, tests) with no event loop. *)

(** {1 Observation — lock-free, any time} *)

type shard_info = {
  shard : int;
  klo : int;
  khi : int;  (** The shard's half-open key range. *)
  stat : Snapshot.stat;
      (** The writer's latest publication (read live on a one-shard
          cluster). *)
  io : Telemetry.Io_stats.snapshot;
      (** The engine's live page I/O counters (atomic, so current even
          under query-only traffic). *)
  queue : int;  (** Writes waiting for the writer. *)
  reader_watermark : int;
      (** Min applied watermark across readers — how far snapshot serving
          lags the committed watermark.  Equals [stat.watermark] when
          there are no readers. *)
}

val shard_infos : t -> shard_info list

val totals : t -> Snapshot.stat
(** Per-shard stats merged: counters summed, [now] and [horizon] maxed,
    [health] the worst across shards. *)

val io_totals : t -> Telemetry.Io_stats.snapshot
(** Live whole-system I/O: the per-shard engine counters merged through
    {!Telemetry.Io_stats.merge} (domain-safe: the counters are atomic). *)

val health : t -> Durable.health
(** Worst shard health. *)

val shutdown : t -> unit
(** Commit queued writes, close the writer mailboxes (they drain), join
    the writers, then the readers; run remaining completions.
    Idempotent; submissions afterwards are refused. *)
