(** The durable warehouse engine: checkpoint + write-ahead log.

    {!Rta.save}/{!Rta.load} snapshots alone lose every update since the
    last snapshot on a crash.  This wrapper closes that window: each
    [insert]/[delete] is framed into a {!Wal} record {e before} it is
    applied to the two MVSBTs, and a {e checkpoint} persists the whole
    warehouse through the existing snapshot machinery and then truncates
    the log.  Opening an engine is therefore always a recovery:

    + load the latest checkpoint if one exists (else start empty);
    + replay the log tail on top of it, skipping records the checkpoint
      already covers and stopping cleanly at a torn or corrupt frame;
    + truncate the torn tail so the log is well-formed again.

    Every WAL record carries the warehouse's update sequence number, so a
    crash {e between} writing a checkpoint and truncating the log cannot
    double-apply updates on recovery.

    On-disk layout under a path prefix [p]:
    - [p.wal] — the log;
    - [p.ckpt-<gen>.lkst], [p.ckpt-<gen>.lklt], [p.ckpt-<gen>.meta] — the
      snapshot files of checkpoint generation [<gen>], every chunk framed
      with its length and CRC32 ({!Mvsbt.Chunks});
    - [p.ckpt] — a small CRC-framed pointer naming the committed
      generation.  The snapshot files and the directory are fsynced
      before the pointer is atomically renamed into place (the single
      commit point), and the WAL is truncated only after that — so a
      crash at any step leaves either the old checkpoint or the new one,
      never a mix, and never discards log records whose effects are not
      yet durable;
    - under [store = Mmap], [p.store.lkst.pages] and [p.store.lklt.pages]
      — the overlays: the pages that closed since the committed
      checkpoint, which holds the rest (a page that can still change is
      edited in a RAM slot).  A cache that every open and every
      checkpoint empties and nothing reads back.  Under [store = Memory]
      the overlays are RAM, and there are no such files.

    Checkpoint and log are the one recovery source, and both are
    checksummed: a checkpoint chunk that fails its CRC fails the open
    under every store, and {!scrub} checks the same bytes ahead of time.

    Mutate the warehouse only through this module; going behind its back
    via {!Rta.insert} on {!warehouse} would leave updates unlogged.

    {2 Error handling and health}

    The mutating entry points ({!insert}, {!delete}, {!checkpoint})
    return [(unit, Storage.Storage_error.t) result] instead of leaking
    I/O exceptions; precondition violations (bad key, time going
    backwards) are still [Invalid_argument] — those are caller bugs, not
    disk weather.  All engine I/O runs behind {!Storage.Vfs.with_retry}
    (configurable via [retry]), so transient failures are absorbed with
    bounded exponential backoff before anything surfaces.

    The engine tracks a {!health} state machine:
    - [Healthy] — normal service;
    - [Degraded] — serving, but retries were needed recently or the last
      checkpoint attempt failed;
    - [Read_only] — a log append surfaced an error even after retries
      (canonically [ENOSPC]).  Entered sticky for the life of the
      handle: updates are rejected with a typed [Read_only_store] error
      while queries keep serving from the consistent in-memory state,
      which contains exactly the acknowledged updates.  Reopening the
      path recovers normally — nothing acknowledged is ever lost. *)

type t

type recovery_report = {
  replayed : int;
      (** WAL records replayed during recovery (applied or seq-skipped). *)
  dropped_bytes : int;
      (** Bytes of torn/corrupt WAL tail discarded by this recovery. *)
  checkpoint_gen : int option;
      (** The committed checkpoint generation recovery started from;
          [None] when the warehouse was rebuilt from the WAL alone. *)
}

val pp_recovery_report : Format.formatter -> recovery_report -> unit

type health =
  | Healthy
  | Degraded  (** Retries happening, or the last checkpoint attempt failed. *)
  | Read_only
      (** Persistent write failure: updates rejected, queries serving. *)

val pp_health : Format.formatter -> health -> unit

type pressure =
  | Normal
  | Soft  (** Above the soft watermark: serving, vacuuming aggressively. *)
  | Hard  (** Above the hard watermark: updates rejected, maintenance allowed. *)

val pp_pressure : Format.formatter -> pressure -> unit

type retention =
  | Keep_all
  | Keep_last of int
      (** Auto-vacuum target: keep the last [span] time units; under
          watermark pressure the engine vacuums to [now - span]. *)

val open_ :
  ?config:Mvsbt.config ->
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?sync_policy:Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?wal_stats:Wal.Stats.t ->
  ?wal_wrap:(Wal.file -> Wal.file) ->
  ?retry:Storage.Retry.policy option ->
  ?telemetry:Telemetry.Tracer.t ->
  ?vfs:Storage.Vfs.t ->
  ?store:Storage.Store_kind.t ->
  ?watermarks:int * int ->
  ?disk_used:(unit -> int) ->
  ?retention:retention ->
  max_key:int ->
  path:string ->
  unit ->
  t
(** Open (and recover) the warehouse under path prefix [path], creating
    it if nothing is on disk yet.  [sync_policy] defaults to
    [Every_n 32]; [checkpoint_every] (default 0 = manual only) triggers
    an automatic {!checkpoint} once that many updates have accumulated
    since the last one.

    [store] (default [Memory]) picks where the warehouse's page frames
    live while the engine runs; both kinds serve from the one frame store
    ({!Storage.Page_store.Mmap}), and a query scans frames in place
    under either.  [Memory] copies the committed checkpoint's frames into
    RAM as the open verifies them, and keeps its overlays in RAM too: it
    touches no file but the WAL and the checkpoints.  [Mmap] reads each
    page from the committed checkpoint itself, mapped read-only, unless
    it was written since, in which case it is in an overlay mapped from
    a file under [path ^ ".store"]; where the OS will not map them
    (e.g. under [RTA_FORCE_NO_MMAP]), both are RAM images, as under
    [Memory].  A mapped file is read through the OS, not through [vfs],
    so a synthetic [vfs] takes [Memory].  The open verifies every chunk
    and writes no page ({!Rta.load}), then the WAL tail replays
    into the overlay.
    Every {!checkpoint} copies the stored frames into the next
    generation and then moves the trees onto it, emptying the overlays.
    The overlays are a {e cache}, never a recovery source, which is also
    why switching [store] between runs is always safe.  [telemetry] (default {!Telemetry.Tracer.noop})
    attaches a tracer to the whole stack: the engine emits
    [durable.recover] / [durable.insert] / [durable.delete] /
    [durable.checkpoint] spans and [durable.health] transition events,
    the warehouse and WAL their own [rta.*] / [mvsbt.*] / [wal.*] spans,
    and the engine's vfs is wrapped with {!Storage.Vfs.with_telemetry}
    so every syscall shows up as a [vfs.*] leaf span.  [wal_wrap] interposes on the log's byte layer —
    the hook {!Wal.Faulty} plugs into for crash testing.  Every file
    operation (log, checkpoint snapshots, pointer, directory fsyncs)
    goes through [vfs] (default {!Storage.Vfs.os}) wrapped in
    {!Storage.Vfs.with_retry} under the [retry] policy (default
    {!Storage.Retry.default}; pass [None] for no retries), charging
    retries to [stats]; passing {!Storage.Vfs.Memory} is what lets the
    crash-state explorer ([lib/faultsim]) journal and replay the
    engine's disk traffic.

    [watermarks = (soft, hard)] (default: none) arms the disk-pressure
    machine: after every mutation, checkpoint and vacuum step the engine
    probes [disk_used] (default: the WAL's current size — the one file
    that grows without bound between checkpoints) and compares it to the
    watermarks.  At or above [soft] the published health degrades and,
    with a [retention] policy other than [Keep_all], the engine
    auto-vacuums to [now - span] and checkpoints; at or above [hard]
    normal updates are rejected ([Read_only_store] with a watermark
    detail) while vacuum and checkpoint — the operations that reclaim
    space — remain allowed.  Pressure is not sticky: once maintenance
    shrinks usage below the watermarks, service resumes.  Configure
    retention on leaders only; followers receive the leader's vacuum
    through the shipped WAL and must not invent their own.
    The log is opened first, so under {!Storage.Vfs.os} its lock rejects
    a second process before it reads the checkpoint pointer, clears a
    generation or touches the overlays of an engine already running on
    [path].  A failed open closes the log and overlays it opened,
    and leaves the checkpoint and the log as it found them.
    @raise Failure if another process holds the log, an existing
    checkpoint disagrees with [max_key], or a snapshot file is malformed
    or of an older format.
    @raise Storage.Storage_error.Io if recovery I/O fails even after
    retries, or with [Checksum_mismatch], naming the file and the chunk
    index, if a checkpoint chunk fails its CRC (the handle is not
    created; nothing on disk is damaged beyond what already was). *)

val insert :
  t -> key:int -> value:int -> at:int -> (unit, Storage.Storage_error.t) result
(** Log, then apply.  Same contract as {!Rta.insert}; validation happens
    {e before} the record is logged, so a rejected update never pollutes
    the log.  [Error] means the update is {e not} logged and {e not}
    applied — the warehouse is exactly as before the call — and the
    engine has entered [Read_only] (or was already there).  May raise
    {!Wal.Crashed} under crash injection, in which case the update is
    not applied.
    @raise Invalid_argument on precondition violations (caller bugs). *)

val delete : t -> key:int -> at:int -> (unit, Storage.Storage_error.t) result
(** Log, then apply; see {!insert}. *)

val sync_wal : t -> (unit, Storage.Storage_error.t) result
(** Force the WAL to disk now, regardless of the engine's sync policy —
    the commit half of group commit: a shard writer opens the engine with
    [Wal.Never], applies a batch of {!insert}/{!delete} calls (each
    logged but not yet fsynced), then calls this once before
    acknowledging any of them.  [Ok] means every update applied so far is
    durable.  No-op ([Ok]) when nothing is unsynced.  On [Error] the
    engine enters [Read_only] — an fsync the device refused means the
    logged tail may or may not survive a crash, and later acknowledgments
    would silently sit on top of it.  Refused with [Read_only_store] when
    already [Read_only]. *)

val checkpoint : t -> (unit, Storage.Storage_error.t) result
(** Snapshot the warehouse and truncate the log.  Durable once this
    returns [Ok]; crash-safe at every intermediate step.  On [Error] the
    previously committed checkpoint and the full WAL are intact — no
    acknowledged update is at risk — and the engine degrades to
    [Degraded] but keeps accepting updates; a failed attempt's
    generation number is never reused.  A stored page that fails its
    checksum is such an error ([Checksum_mismatch]; the next open
    rebuilds a page of the overlay, and {!scrub} repairs one of the
    committed checkpoint).  Under [Mmap], once the new pointer is
    durable the trees move onto the new generation — its files become
    their bases, the overlays are emptied and the old mappings released
    — before the old generation is removed; a tree that cannot be moved
    stays on its old base and overlay, which still hold every page, and
    the engine stays [Degraded] (with {!last_error} saying why) until a
    later checkpoint moves it.  The checkpoint itself still counts.
    Refused with [Read_only_store] when the engine is [Read_only]. *)

(** {2 Vacuum (crash-safe retention)}

    The WAL-logged face of {!Rta.vacuum_begin}/{!Rta.vacuum_apply}: the
    horizon and each chunk's explicit page actions are logged {e before}
    they touch the trees, so a crash at any point mid-vacuum replays to a
    consistent state — the horizon is re-established first, then each
    logged chunk re-frees/re-prunes exactly the pages it named (the
    appliers tolerate already-done work).  Vacuum records consume update
    sequence numbers like inserts, so checkpoint cut-offs and replica
    watermarks stay exact; followers fed by a WAL shipper replay the
    leader's vacuum with no extra machinery. *)

val vacuum_begin : t -> horizon:int -> (unit, Storage.Storage_error.t) result
(** Log, then raise the retention horizon on the warehouse.  Allowed
    while the engine is pressure-degraded (gates on the I/O machine
    only).
    @raise Invalid_argument if the horizon is negative, moves backwards,
    or exceeds the warehouse clock (caller bugs, checked before
    logging). *)

val vacuum_chunk :
  t -> Rta.vacuum_action list -> (Rta.vacuum_progress, Storage.Storage_error.t) result
(** Log one chunk of planned actions (see {!Rta.vacuum_plan}), then
    apply it. *)

val vacuum :
  ?max_pages_per_step:int ->
  t ->
  horizon:int ->
  (Rta.vacuum_report, Storage.Storage_error.t) result
(** [vacuum_begin] + plan + one [vacuum_chunk] per [max_pages_per_step]
    (default 128, max 65536 — a chunk must fit one WAL record) actions,
    then a WAL sync so the retention work is durable before the report
    says it happened.  Queries keep serving between chunks.  On [Error]
    the logged prefix is applied and consistent; re-running the same
    vacuum after the cause clears (or after recovery) finishes the
    remainder idempotently. *)

val horizon : t -> int
(** The warehouse's retention horizon ([= Rta.horizon (warehouse t)]). *)

val store_kind : t -> Storage.Store_kind.t
(** The page backend this engine was opened with. *)

val vacuums : t -> int
(** Completed [vacuum] runs by this handle (manual + watermark-driven). *)

val pressure : t -> pressure
(** Current disk-pressure state ([Normal] when no watermarks are set). *)

val refresh_pressure : t -> pressure
(** Re-probe disk usage against the watermarks now (normally done after
    every mutation) and return the resulting state — for callers whose
    [disk_used] can change without the engine mutating anything. *)

val disk_used : t -> int
(** What the engine's disk-usage probe currently reads. *)

val retention : t -> retention

val io_health : t -> health
(** The sticky I/O half of the published {!health}, pressure excluded —
    [Read_only] here means a real write failure, not a full-ish disk. *)

val warehouse : t -> Rta.t
(** The live warehouse, for queries ({!Rta.sum_count} and friends). *)

val sum_count : t -> klo:int -> khi:int -> tlo:int -> thi:int -> int * int
(** Convenience passthrough to {!Rta.sum_count}. *)

val recovery_report : t -> recovery_report
(** What the recovery that opened this handle found and did. *)

val replayed_on_open : t -> int
(** [= (recovery_report t).replayed]. *)

val updates_since_checkpoint : t -> int

val checkpoints : t -> int
(** Checkpoints taken by this handle (manual + automatic). *)

val wal_stats : t -> Wal.Stats.t

val wal_unsynced : t -> int
(** Records appended to the WAL but not yet covered by an fsync — zero
    exactly when everything logged is durable.  A log shipper polls its
    tail only at zero, so it never ships a record a crash could still
    lose (followers must not get ahead of the leader's durable
    watermark). *)

val wal_path : string -> string
(** The WAL file path for an engine opened at [path] ([path ^ ".wal"]) —
    where a replication tailer opens its second read handle. *)

val sync_policy : t -> Wal.sync_policy

val health : t -> health
(** Current health; see the module preamble for the transitions. *)

val on_health_change : t -> (health -> health -> unit) -> unit
(** Register [f] to run on every health {e transition} (not per-op
    re-assertions) as [f previous next], after the new state is
    committed — so [f] observing {!health} sees [next].  Lets a serving
    layer flip write-rejection the instant the engine degrades instead of
    polling.  Hooks run in registration order (newest first), may not
    unregister, and exceptions they raise are swallowed. *)

val last_error : t -> Storage.Storage_error.t option
(** The most recent I/O error the engine absorbed or surfaced; [None]
    after a clean operation returns the engine to [Healthy]. *)

val io_stats : t -> Storage.Io_stats.t
(** The stats sink the engine charges retries and page I/O to (the one
    passed to {!open_}, or a private one). *)

val telemetry : t -> Telemetry.Tracer.t
(** The tracer the engine emits to (the one passed to {!open_}, or
    {!Telemetry.Tracer.noop}). *)

val set_phase_cell : t -> Telemetry.Phases.cell option -> unit
(** Phase-breakdown hook: while a cell is installed, each update's WAL
    append and tree apply charge their time to it ({!Telemetry.Phases}).
    The group-commit layer installs the op's cell just around the op and
    clears it after; [None] (the default) costs one comparison. *)

val close : t -> unit
(** Fsync the log (best effort), then release the log, the overlays and
    the checkpoint mappings; no checkpoint is taken.  Never raises a
    typed I/O error: whatever the log already holds is what recovery will
    see. *)

(** {2 Scrub}

    Scrub checks ahead of time what recovery reads: the three files of
    the committed checkpoint, chunk by chunk, and the frames of the log.
    It takes no lock and never writes the log; closing its descriptor
    leaves the one-process guard of an engine open on the log in
    place. *)

type chunk = { file : string; index : int }
(** A checkpoint chunk: its file and its number from 0 (for a snapshot,
    0 is the state, 1 the page count, then one chunk per page). *)

type scrub_report = {
  chunks_checked : int;
  corrupt : chunk list;  (** Every chunk that failed its CRC; sorted. *)
  repaired : chunk list;  (** Corrupt chunks rewritten from the twin. *)
  irreparable : chunk list;  (** Corrupt chunks no usable twin covers. *)
  wal_frames : int;  (** Log frames that verified. *)
  wal_corrupt : int list;
      (** Offsets of fully-present log frames that failed their CRC.  Scrub
          never repairs the log: a twin's log bytes differ. *)
}

val scrub_clean : scrub_report -> bool
(** No corrupt chunk and no corrupt log frame. *)

val pp_chunk : Format.formatter -> chunk -> unit
val pp_scrub_report : Format.formatter -> scrub_report -> unit

val scrub :
  ?stats:Storage.Io_stats.t ->
  ?vfs:Storage.Vfs.t ->
  ?repair_from:string ->
  path:string ->
  unit ->
  scrub_report
(** Verify every chunk of the committed checkpoint of the warehouse at
    path prefix [path] (none if nothing was ever checkpointed) and every
    frame of its log.  A chunk whose length field is damaged ends the
    walk of its file, reported corrupt and irreparable.

    [repair_from] names a twin: a warehouse built from the same updates
    and checkpointed at the same update count, whose checkpoint is then
    byte-identical to a clean copy of this one.  When both [.meta]
    chunks verify and record the same update count, each corrupt chunk
    is rewritten in place from the twin's chunk at the same index (which
    must verify and sit at the same offset), and the file is fsynced.
    Otherwise every corrupt chunk is reported irreparable.

    Counters: each chunk verified bumps [stats]' [scrubbed], each
    failure [crc_failures], each rewrite [repaired].
    @raise Failure if there is neither a checkpoint nor a log at [path],
    the checkpoint pointer is corrupt, or a checkpoint file is of another
    format.
    @raise Sys_error if a file of the committed checkpoint is missing. *)

val inject_bit_flips :
  ?vfs:Storage.Vfs.t -> path:string -> seed:int -> flips:int -> unit -> chunk list
(** Corruption injection for tests and demos: flip one random bit in
    each of [flips] distinct chunks of the committed checkpoint's two
    snapshots (fewer if they hold fewer chunks), always inside a
    CRC-covered payload, so every flip is detectable by {!scrub}, and
    fsync.  [.meta] is never hit, so a twin stays usable.  Returns the
    chunks hit, sorted.
    @raise Failure if the warehouse has no checkpoint. *)
