(** Physical I/O counters.

    The paper's evaluation estimates running time as
    [#I/O x average disk access time + measured CPU time] (section 5).
    Every page store and buffer pool in this code base charges its physical
    page operations to an [Io_stats.t], so experiments can report the same
    quantity without real disks.

    {2 I/Os versus events}

    Not every counter is a disk transfer; callers aggregating "I/O cost"
    must know which is which.

    {e Page I/Os} — each increment corresponds to one page the cost model
    charges:
    - [reads], [writes] — physical page transfers;
    - [frees] — page disposals (section 4.2.3): handing a page back is
      charged as one I/O by the paper's accounting even though the
      mapped store only retires the id.

    {e Events} — bookkeeping with no per-increment transfer of their own:
    - [allocs] — page-id allocation; the first write pays the I/O;
    - [syncs] — [fsync] barriers (a durability cost, not a page transfer);
    - [crc_failures], [scrubbed], [repaired] — integrity outcomes (the
      underlying block reads/writes are charged separately where they
      happen);
    - [errors_injected], [retries], [read_only_transitions] — robustness
      bookkeeping.

    {2 Domain safety}

    Every counter is an [Atomic]: a [t] incremented from several domains
    at once (shard engines behind one tracer, shared pools) never loses
    updates, and {!snapshot} / {!merge} from another domain read
    consistent per-counter values.  A {!snapshot} is not a cross-counter
    atomic cut — individual counters may be captured a few increments
    apart — but each counter's value is exact, so sums across shards
    never undercount. *)

type t

val create : unit -> t

val reads : t -> int
(** I/O — physical page reads (buffer-pool misses, or direct store reads). *)

val writes : t -> int
(** I/O — physical page writes (dirty evictions, flushes, direct writes). *)

val allocs : t -> int
(** Event — pages allocated over the lifetime of the store. *)

val frees : t -> int
(** I/O — pages returned to the store (page-disposal optimisation). *)

val syncs : t -> int
(** Event — [fsync]s a page store issued against its file.  A mapped
    store's overlay is a cache that is never synced, and the checkpoint
    it reads in place is synced by the engine that wrote it, so no store
    in this code base counts any; the counter stays in reports and on
    the wire. *)

val crc_failures : t -> int
(** Event — page reads and scrubbed checkpoint chunks whose CRC32 did
    not match — detected bit-rot. *)

val scrubbed : t -> int
(** Event — checkpoint chunks whose checksum a scrub pass verified. *)

val repaired : t -> int
(** Event — corrupt checkpoint chunks a scrub pass rewrote from a twin. *)

val errors_injected : t -> int
(** Event — faults fired by [Vfs.Inject] — nonzero only under error
    injection. *)

val retries : t -> int
(** Event — transient I/O errors absorbed by a retry loop ([Retry.run] /
    [Vfs.with_retry]) instead of surfacing to the caller. *)

val read_only_transitions : t -> int
(** Event — times a [Durable] engine entered its [Read_only] health state
    after a persistent write failure. *)

val pages_reclaimed : t -> int
(** Event — dead pages reclaimed by vacuum (each is also charged as a
    [free]; this counter isolates retention work from ordinary merges). *)

val vacuum_steps : t -> int
(** Event — bounded compaction steps executed by vacuum. *)

val mapped_reads : t -> int
(** Event — page reads served by decoding straight out of a memory
    mapping ([Mmap] stores).  Each is {e also} charged as a [read] — the
    logical page transfer the cost model and the Theorem-1/2 bound
    checker count — so mapped stores stay comparable with the in-memory
    store; this counter isolates how many of those transfers were
    zero-copy. *)

val mapped_writes : t -> int
(** Event — page writes encoded straight into a memory mapping.  Each is
    also charged as a [write]; see {!mapped_reads}. *)

val msyncs : t -> int
(** Event — dirty ranges of a mapping pushed to the platter by [msync].
    Overlays are a cache that is never synced, so this reads 0; the
    counter stays in reports. *)

val readaheads : t -> int
(** Event — pages hinted to the kernel ahead of a root-to-leaf descent
    ([posix_madvise(WILLNEED)] or a pool prefetch).  Advisory: no
    guaranteed transfer, so never part of {!total_io}. *)

val total_io : t -> int
(** [reads + writes + frees] — every operation charged as a page I/O
    (see the module preamble for the classification). *)

val record_read : t -> unit
val record_write : t -> unit
val record_alloc : t -> unit
val record_free : t -> unit
val record_sync : t -> unit
val record_crc_failure : t -> unit
val record_scrubbed : t -> unit
val record_repaired : t -> unit
val record_error_injected : t -> unit
val record_retry : t -> unit
val record_read_only_transition : t -> unit

val record_pages_reclaimed : t -> int -> unit
(** [record_pages_reclaimed t n] adds [n] reclaimed pages in one atomic
    bump (vacuum reclaims in batches). *)

val record_vacuum_step : t -> unit
val record_mapped_read : t -> unit
val record_mapped_write : t -> unit

val record_readaheads : t -> int -> unit
(** [record_readaheads t n] adds the [n] pages one batched descent
    prefetch hinted. *)

val reset : t -> unit
(** Zero all counters. *)

type snapshot = {
  reads : int;
  writes : int;
  allocs : int;
  frees : int;
  syncs : int;
  crc_failures : int;
  scrubbed : int;
  repaired : int;
  errors_injected : int;
  retries : int;
  read_only_transitions : int;
  pages_reclaimed : int;
  vacuum_steps : int;
  mapped_reads : int;
  mapped_writes : int;
  msyncs : int;
  readaheads : int;
}

val zero : snapshot
(** The all-zero snapshot — the identity of {!add}. *)

val snapshot : t -> snapshot

val add : snapshot -> snapshot -> snapshot
(** Per-field sum.  [add] and {!diff} are defined from the same field
    combinator, so they stay total inverses of each other as counters are
    added: [diff (add a b) b = a] for all [a], [b]. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference — the I/O incurred
    between the two snapshots. *)

val merge : snapshot list -> snapshot
(** Fold {!add} over per-shard (or per-domain) snapshots — the
    whole-system view the shard aggregator and [--stats-json] report
    next to the per-shard ones. *)

val absorb : t -> snapshot -> unit
(** Add a snapshot's counts into live counters (atomically per field) —
    merging a finished worker's tally into a system-wide [t]. *)

val snapshot_total_io : snapshot -> int
(** [reads + writes + frees] of a snapshot; see {!total_io}. *)

val pp : Format.formatter -> t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
