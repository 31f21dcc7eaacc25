(** The multicore sharded serving engine: one writer domain per key
    shard, optional reader domains with lock-free snapshot replicas, and
    a scatter-gather front end for the single-threaded event loop.

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
    other domain ever touches them — and runs the PR-5 group commit:
    drain a batch of writes from its mailbox, apply them (logged,
    unsynced), issue {e one} WAL sync, then acknowledge.  After the sync
    it broadcasts the batch's applied ops to every reader mailbox and
    publishes a fresh {!Snapshot.stat} (the version watermark).  Reader
    domains apply the broadcasts to private in-memory {!Warehouse}
    replicas and answer queries from them with no locks at all — the
    MVSBT's published versions are immutable, so a replica at watermark
    [W] is a true snapshot.

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

    With [readers = 0] queries scatter to the {e writer} domains (which
    interleave them with batches); with [readers > 0] each query goes
    whole to one reader, round-robin, and is decomposed there. *)

module E := Storage.Storage_error

type config = {
  shards : int;
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
(** [{ shards = 2; readers = 0; max_batch = 64; mailbox_capacity = 1024;
      sim_io_ns = 0 }] *)

type outcome = Applied | Rejected of string | Failed of E.t
(** Per-write result, exactly the {!Batcher} contract: [Applied] means
    logged, applied, and covered by a returned WAL sync on its shard. *)

type query_error =
  | Bad_query of string  (** Precondition violation. *)
  | Io of E.t

type t

val create :
  ?config:config ->
  ?telemetry:Telemetry.Tracer.t ->
  ?engine_config:Mvsbt.config ->
  ?pool_capacity:int ->
  ?checkpoint_every:int ->
  ?boundaries:int list ->
  ?store:Storage.Store_kind.t ->
  ?arena_backing:[ `Auto | `Map | `Buffered ] ->
  max_key:int ->
  path:string ->
  unit ->
  t
(** Open (recovering) one {!Durable} engine per shard under
    [<path>.s<i>], seed each reader's replicas from the recovered
    state, and spawn the domains.  [store]/[arena_backing] select each
    shard engine's page backend, as in {!Durable.open_} (reader replicas
    stay in memory — they are throwaway copies).  Engines run under [Wal.Never] — the
    per-shard group commit owns the sync, as in {!Batcher}.  [telemetry]
    receives [shard.batch] / [shard.query] / [reader.query] spans from
    the worker domains; each domain registers a thread name with
    {!Telemetry.Tracer.set_thread_name} so Chrome exports label its
    lane.
    @raise Invalid_argument on a bad shard/reader count. *)

val router : t -> Router.t
val config : t -> config

val recovery : t -> (int * Durable.recovery_report) array
(** Per-shard recovery outcome from {!create}, for the serve banner. *)

(** {1 Submission — main domain only} *)

val submit_write :
  t ->
  ?cell:Telemetry.Phases.cell ->
  ?trace:int64 ->
  Op.t ->
  (outcome -> unit) ->
  unit
(** Route to the owning shard's writer.  The callback runs from a later
    {!drain}.  [cell] rides to the owning writer domain, which charges
    the request's queue wait, batch build, WAL append, fsync share, and
    tree apply to it; the completion charges the way back to the main
    domain as queue wait too.  [trace] is re-installed as the ambient trace id
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
  ((int * int, query_error) result -> unit) ->
  unit
(** Scatter-gather SUM/COUNT over the rectangle; the callback receives
    the merged pair (AVG is sum/count client-side, as on the wire).
    With readers the cell rides to the one serving reader (queue wait +
    apply charged there, the way back as queue wait); on the scatter path the whole round trip is
    charged as the apply phase from the main domain, because several
    writer domains may hold parts of one query concurrently. *)

val submit_checkpoint : t -> ((unit, E.t) result -> unit) -> unit
(** Checkpoint every shard; first error wins. *)

(** {1 The completion loop} *)

val wake_fd : t -> Unix.file_descr
(** Readable whenever completions are pending; add to [select]. *)

val drain : t -> int
(** Run pending completion thunks on the calling (main) domain; returns
    how many ran. *)

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
  stat : Snapshot.stat;  (** The writer's latest publication. *)
  queue : int;  (** Writer mailbox depth. *)
  reader_watermark : int;
      (** Min applied watermark across readers — how far snapshot serving
          lags the committed watermark.  Equals [stat.watermark] when
          there are no readers. *)
}

val shard_infos : t -> shard_info list

val totals : t -> Snapshot.stat
(** Per-shard stats merged: counters summed, [now] maxed, [health] the
    worst across shards. *)

val io_totals : t -> Telemetry.Io_stats.snapshot
(** Live whole-system I/O: the per-shard engine counters merged through
    {!Telemetry.Io_stats.merge} (domain-safe: the counters are atomic). *)

val health : t -> Durable.health
(** Worst shard health. *)

val shutdown : t -> unit
(** Close the writer mailboxes (they drain), join the writers (each
    closes its engine), then readers; run remaining completions.
    Idempotent. *)
