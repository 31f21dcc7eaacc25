(** Range-temporal aggregation with two MVSBTs — the paper's end-to-end
    system.

    The RTA problem (section 1): given a transaction-time warehouse,
    compute SUM / COUNT / AVG over the tuples whose key lies in a query
    key range {e and} whose interval intersects a query time interval.

    Theorem 1 reduces an RTA query to six point queries over two
    dominance-sum indices:

    - the {e LKST} index answers "aggregate of tuples with key < k alive
      at instant t";
    - the {e LKLT} index answers "aggregate of tuples with key < k whose
      end times are at most t".

    Both are MVSBTs (section 3): inserting a tuple [(k, v)] at [t] adds
    [v] to [\[k+1, maxkey\] × \[t, maxtime\]] of the LKST index; logically
    deleting it at [t'] adds [-v] there and [+v] to the same region of the
    LKLT index.  Each index carries a SUM × COUNT pair, so one structure
    pair serves SUM, COUNT and AVG simultaneously.

    The engine also keeps the set of currently-alive tuples (the
    warehouse's base table) so that a deletion by key can recover the
    tuple's attribute value. *)

type t

val create :
  ?config:Mvsbt.config ->
  ?pool_capacity:int ->
  ?policy:Storage.Evict.policy ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  ?path:string ->
  max_key:int ->
  unit ->
  t
(** A warehouse over keys [\[0, max_key)].  Both MVSBTs share the [stats]
    sink, the configuration and the pool settings: [pool_capacity]
    pages each (default 64) under [policy] (default
    {!Storage.Evict.Lru}, the paper's; a served warehouse runs
    {!Storage.Evict.Second_chance}).  [telemetry] attaches a tracer to the
    warehouse and both indices (see {!set_telemetry}).

    Both MVSBTs keep their pages as CRC-framed frames
    ({!Storage.Page_store.Mmap} behind pinning buffer pools), which
    queries scan in place: the pages sealed since the last checkpoint in
    overlays, the pages that can still change in RAM slots where writers
    edit them, and the rest
    in the checkpoint itself once there is one (see {!save_staged}).  A
    page stores its keys and times once each, in two sorted dictionaries,
    each record's keys and times as ranks into them, and each field in
    the bytes that page needs (about 12 a record, dictionaries included,
    over the benchmark's store); its frame takes those bytes.  With a
    [path], the overlays are [<path>.lkst.pages] and [<path>.lklt.pages],
    their frames back to back, and [backing] picks the arena flavour: the
    files are mapped, or the overlays are RAM and no file is touched
    ([`Buffered], and the fallback where mapping is unavailable) — see
    {!Storage.Arena.create}.  Without a [path] the overlays are RAM.  The
    overlays are a cache of this warehouse's pages, never read back: make
    the warehouse durable with {!save}, or run it under {!Durable}.
    @raise Invalid_argument on a configuration no tree can have. *)

val close : t -> unit
(** Release both trees' overlays (descriptors and mappings, or RAM
    chunks) and bases (the checkpoint's mapping, or its RAM image).  The
    warehouse must not be used afterwards. *)

val max_key : t -> int
val config : t -> Mvsbt.config

val stats : t -> Storage.Io_stats.t
val now : t -> int

val n_updates : t -> int
(** Total mutations applied: inserts + deletes + vacuum records (a
    {!vacuum_begin} and each {!vacuum_apply} step consume one sequence
    number each, so checkpoint cut-offs and replica watermarks stay
    exact across retention work). *)

val horizon : t -> int
(** Retention horizon (0 until a vacuum ran): query windows reaching
    below it raise {!Mvsbt.Below_horizon}. *)

val alive_count : t -> int

val insert : t -> key:int -> value:int -> at:int -> unit
(** A tuple with key [key] and attribute [value] becomes alive at [at].
    @raise Invalid_argument on a 1TNF violation (key already alive),
    an out-of-domain key, or non-monotone time. *)

val delete : t -> key:int -> at:int -> unit
(** Logically delete the alive tuple with key [key] at [at].
    @raise Invalid_argument if the key is not alive. *)

val is_alive : t -> key:int -> bool
val alive_value : t -> key:int -> int option

(** {1 Queries}

    All rectangles are half-open: keys in [\[klo, khi)], instants in
    [\[tlo, thi)].  Time bounds beyond {!now} are valid and see the
    current state. *)

val sum_count : t -> klo:int -> khi:int -> tlo:int -> thi:int -> int * int
(** [(SUM, COUNT)] over the query rectangle, via the Theorem-1 reduction:
    six MVSBT point queries, [O(log_b n)] I/Os total.
    @raise Mvsbt.Below_horizon when the (non-degenerate) window's first
    instant [max 0 tlo] lies below the retention {!horizon}. *)

val sum : t -> klo:int -> khi:int -> tlo:int -> thi:int -> int
val count : t -> klo:int -> khi:int -> tlo:int -> thi:int -> int

val avg : t -> klo:int -> khi:int -> tlo:int -> thi:int -> float option
(** [None] when no tuple qualifies. *)

val lkst : t -> key:int -> at:int -> int * int
(** Definition 1 — [(sum, count)] of tuples with key < [key] alive at
    [at].  One MVSBT point query. *)

val lklt : t -> key:int -> at:int -> int * int
(** Definition 2 — [(sum, count)] of tuples with key < [key] and end time
    at most [at]. *)

val page_count : t -> int
(** Live pages over both MVSBTs (the "two-MVSBT" space of figure 4a). *)

val overlay_bytes : t -> int
(** Bytes both overlays hold (see {!Mvsbt.Make.overlay_bytes}). *)

val record_count : t -> int
(** Total records (occupied slots) over both MVSBTs.  Full scan. *)

val root_count : t -> int
(** SB-tree roots over both MVSBTs (the [root*] directory sizes). *)

val height : t -> int
(** Height of the taller of the two current SB-trees. *)

val drop_cache : t -> unit
val check_invariants : t -> unit

(** {1 Telemetry}

    The warehouse emits [rta.insert] / [rta.delete] / [rta.point_query] /
    [rta.range_query] spans (and its MVSBTs their own
    [mvsbt.*] spans and events) to the attached tracer; with the default
    {!Telemetry.Tracer.noop} the cost is one branch per operation. *)

val telemetry : t -> Telemetry.Tracer.t

val set_telemetry : t -> Telemetry.Tracer.t -> unit
(** Attach a tracer to the warehouse and both of its MVSBT indices. *)

val page_touches : t -> int
(** Cumulative logical page accesses over both MVSBTs (cache hits
    included) — the quantity the paper's I/O bounds count.  Snapshot and
    difference around an operation to profile it; see
    {!Telemetry.Bound_check}. *)

(** {1 Persistence}

    A saved warehouse occupies three files: [<path>.lkst], [<path>.lklt]
    (the two MVSBT snapshots) and [<path>.meta] (the base table of alive
    tuples plus counters).  Each is a magic naming its format followed by
    {!Storage.Frame}s, each with its length and CRC32, so a load
    verifies every byte it reads. *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering of both MVSBT page graphs (debugging / docs). *)

val save : ?vfs:Storage.Vfs.t -> t -> path:string -> unit
(** Snapshot both MVSBTs and the base table to [path.lkst], [path.lklt]
    and [path.meta] (see {!Mvsbt.Make.save}).  The pages are copied as
    stored, frames and CRCs included, without decoding leaves; the files
    are byte-identical wherever the frames are.
    @raise Storage.Page_store.Corrupt_page if a stored page fails its
    checksum. *)

val save_staged : ?vfs:Storage.Vfs.t -> t -> path:string -> unit -> unit
(** {!save}, returning the rebase: run once the three files are durable,
    it moves each tree onto its new snapshot file and empties its overlay
    ({!Mvsbt.Make.save_staged}).  Each tree moves on its own.
    @raise Storage.Arena.Unavailable from the rebase if a file cannot be
    mapped; that tree stays on its previous base and overlay. *)

val try_save :
  ?vfs:Storage.Vfs.t -> t -> path:string -> (unit, Storage.Storage_error.t) result
(** {!save} with the typed error channel: a [Storage_error.Io] is
    returned as [Error], and so is a corrupt stored page, as a
    [Checksum_mismatch] ({!Storage.Page_store.protect}). *)

val load :
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  ?path:string ->
  snapshot:string ->
  unit ->
  t
(** Open a warehouse over the {!save}d snapshot [snapshot]: each tree
    reads its pages from its snapshot file, verified chunk by chunk as it
    is read once and then mapped read-only, or kept as a RAM image of its
    frames, and writes pages to a fresh, empty overlay at [path], as
    {!create} lays it out, or in RAM without a [path]
    ({!Mvsbt.Make.of_snapshot}).  Nothing is decoded and no page is
    written.  The page size follows the snapshot's config.  A loaded
    warehouse is a served one: its pools run
    {!Storage.Evict.Second_chance}.  A durable engine's warehouse, a
    reader replica's and the [--snapshot] of [rta_cli query] are loaded
    this way.
    @raise Storage.Storage_error.Io with [Checksum_mismatch], naming the
    file and chunk, if any chunk fails its CRC.
    @raise Failure on malformed, older-format or missing snapshot files,
    or on a page id that is negative or repeats. *)

val snapshot_files : (string * string) list
(** The three files of a {!save}: each extension with the magic its file
    starts with. *)

val snapshot_updates : ?vfs:Storage.Vfs.t -> path:string -> unit -> int
(** {!n_updates} of the warehouse saved at [path], read from its
    verified [.meta].
    @raise Storage.Storage_error.Io and [Failure] as {!load}. *)

(** {1 Vacuum (retention)}

    The MVSBT is partially persistent — every update allocates pages that
    are never reclaimed — so a long-running warehouse needs a retention
    horizon: versions below it are compacted away, and query windows
    reaching below it are refused with {!Mvsbt.Below_horizon} instead of
    silently wrong sums.

    The machinery is split so a WAL layer can make it crash-safe by
    logging before applying: {!vacuum_begin} (one WAL record: the
    horizon), then {!vacuum_plan} and one {!vacuum_apply} per chunk (one
    WAL record each: the explicit page actions, making replay
    deterministic regardless of scan order).  Appliers tolerate
    already-done work, so replaying a prefix after a crash and then
    re-vacuuming is idempotent.  {!vacuum} composes the three for
    callers without a WAL. *)

type side = Lkst | Lklt  (** The two MVSBTs. *)

type vacuum_action = {
  va_side : side;  (** Which of the two MVSBTs the page lives in. *)
  va_free : bool;  (** [true]: free the dead page; [false]: prune records. *)
  va_pid : int;
}

type vacuum_progress = {
  pages_freed : int;
  pages_pruned : int;  (** Pages that had dead records dropped in place. *)
  records_dropped : int;
}

val vacuum_progress_zero : vacuum_progress
val vacuum_progress_add : vacuum_progress -> vacuum_progress -> vacuum_progress

val vacuum_begin : t -> horizon:int -> unit
(** Raise the retention horizon on both MVSBTs (pruning [root*] tenures
    that ended below it) and consume one update sequence number.
    Idempotent at the same horizon.
    @raise Invalid_argument if the horizon is negative, moves backwards,
    or exceeds {!now}. *)

val vacuum_plan : ?max_pages:int -> t -> vacuum_action list list
(** Everything the current horizon allows reclaiming, as chunks of at
    most [max_pages] (default 128) actions, deterministic (ascending page
    id per side, LKST first).  Planning scans the stores but mutates
    nothing. *)

val vacuum_apply : t -> vacuum_action list -> vacuum_progress
(** Apply one chunk: free dead pages, prune dead records in place.
    Tolerant of pages already gone or already clean (replay/idempotence).
    Consumes one update sequence number and bumps
    [Io_stats.vacuum_steps]/[pages_reclaimed]. *)

type vacuum_report = {
  v_horizon : int;
  v_steps : int;  (** Chunks applied. *)
  v_progress : vacuum_progress;
}

val vacuum : ?max_pages:int -> t -> horizon:int -> vacuum_report
(** [vacuum_begin] + [vacuum_plan] + every [vacuum_apply], for callers
    without a WAL (the CLI on a flushed store, tests).  Durable engines
    should use [Durable.vacuum], which logs each piece first. *)
