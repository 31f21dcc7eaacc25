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
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  max_key:int ->
  unit ->
  t
(** A warehouse over keys [\[0, max_key)].  Both MVSBTs share the [stats]
    sink and the configuration.  [telemetry] attaches a tracer to the
    warehouse and both indices (see {!set_telemetry}). *)

val create_durable :
  ?config:Mvsbt.config ->
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?page_size:int ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  max_key:int ->
  path:string ->
  unit ->
  t
(** Like {!create}, but both MVSBTs keep their pages in real files
    ([<path>.lkst.pages] and [<path>.lklt.pages], fixed-size blocks behind
    pinning buffer pools, {!Storage.Page_store.Mmap}).  [page_size] must
    hold [config.b] records (~57 bytes each); it defaults to the smallest
    multiple of 4096 that does.  [backing] picks the arena flavour: the
    files are mapped and pages codec'd in place, or buffered where
    mapping is unavailable — see {!Storage.Arena.create}.  Alongside the
    page files, meta sidecars (one per index plus [<path>.rta.meta] for
    the base table and counters) are committed atomically on every
    {!flush}, so an existing warehouse can be {!reopen_durable}ed instead
    of destroyed.
    @raise Invalid_argument when the configuration cannot fit a page. *)

val reopen_durable :
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?page_size:int ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  path:string ->
  unit ->
  t
(** Reopen a warehouse previously built with {!create_durable} — which
    truncates; this does not — restoring the state committed by its last
    {!flush}.  Configuration and [max_key] come from the sidecars.  This
    is a {e clean-shutdown} restore: updates made after the last flush
    are lost, so pair the warehouse with the WAL engine ({!Durable}) when
    the update tail must survive crashes.
    @raise Failure on missing or corrupt sidecars/page files, or a
    [page_size] mismatch. *)

val flush : t -> unit
(** Write dirty pages of both indices back to their stores. *)

val try_flush : t -> (unit, Storage.Storage_error.t) result
(** {!flush} with the typed error channel: any [Storage_error.Io] the
    underlying stores raise is returned as [Error] instead.  Other
    exceptions (corruption [Failure]s, caller bugs) still raise. *)

val close : t -> unit
(** Release the page files of a durable warehouse (descriptors and
    mappings); a no-op for an in-memory one.  Unflushed pages are lost,
    and the warehouse must not be used afterwards. *)

val max_key : t -> int
val config : t -> Mvsbt.config

val min_page_size : Mvsbt.config -> int
(** Smallest on-disk page able to hold [config.b] durable records — the
    floor for [page_size] in {!create_durable} and friends. *)

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
    [rta.range_query] / [rta.flush] spans (and its MVSBTs their own
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
    tuples plus counters). *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering of both MVSBT page graphs (debugging / docs). *)

val save : ?vfs:Storage.Vfs.t -> t -> path:string -> unit
(** Snapshot both MVSBTs and the base table to [path.lkst], [path.lklt]
    and [path.meta] (see {!Mvsbt.Make.Persist}).  A durable warehouse's
    pages are copied as stored, without decoding leaves; the files are
    byte-identical whichever store holds the pages.
    @raise Storage.Page_store.Corrupt_page if a stored page fails its
    checksum. *)

val try_save :
  ?vfs:Storage.Vfs.t -> t -> path:string -> (unit, Storage.Storage_error.t) result
(** {!save} with the typed error channel, as {!try_flush}; a corrupt
    stored page is a [Checksum_mismatch] error too
    ({!Storage.Page_store.protect}). *)

val load :
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?vfs:Storage.Vfs.t ->
  path:string ->
  unit ->
  t
(** Load a {!save}d snapshot into heap pages.
    @raise Failure on malformed or missing snapshot files. *)

val load_durable :
  ?pool_capacity:int ->
  ?stats:Storage.Io_stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  snapshot:string ->
  path:string ->
  unit ->
  t
(** Load the {!save}d snapshot [snapshot] into fresh page files at
    [path], as {!create_durable} lays them out: pages move as encoded
    bytes ({!Mvsbt.Make.Durable.of_snapshot}), never decoded, one charged
    write each.  The page size follows the snapshot's config.  The meta
    sidecars are committed by the first {!flush}.
    @raise Failure on malformed or missing snapshot files. *)

(** {1 Scrub and repair}

    Every page block of a durable warehouse carries a CRC32 (verified on
    every read); {!scrub} proactively sweeps both page files and, given a
    trustworthy reference, repairs what it can. *)

type scrub_side = Lkst | Lklt

val pp_scrub_side : Format.formatter -> scrub_side -> unit

type scrub_report = {
  pages_checked : int;  (** Written pages verified across both MVSBTs. *)
  corrupt : (scrub_side * Storage.Page_id.t) list;
      (** Every checksum failure found; empty means the warehouse is clean. *)
  repaired : (scrub_side * Storage.Page_id.t) list;
      (** Corrupt pages rewritten from [repair_from]. *)
  irreparable : (scrub_side * Storage.Page_id.t) list;
      (** Corrupt pages no trustworthy reference covers. *)
}

val scrub_clean : scrub_report -> bool

val pp_scrub_report : Format.formatter -> scrub_report -> unit

val scrub :
  ?stats:Storage.Io_stats.t ->
  ?page_size:int ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  ?repair_from:t ->
  ?telemetry:Telemetry.Tracer.t ->
  path:string ->
  unit ->
  scrub_report
(** Verify the stored CRC32 of every written page of the warehouse at
    [path] (both MVSBT page files).  The warehouse must be quiescent — no
    open writer with unflushed state.

    [repair_from] is a reference warehouse to re-derive corrupt pages
    from, typically one recovered from the last checkpoint + WAL by the
    {!module:Durable} engine.  Page allocation is deterministic, so the
    reference holds the same logical pages under the same ids {e iff} it
    went through the same update sequence; {!scrub} enforces this by
    comparing update counters (the reference's {!n_updates} against the
    scrubbed warehouse's flushed sidecar) and reports every corrupt page
    irreparable on a mismatch rather than writing stale bytes.

    [page_size] defaults to the one {!reopen_durable} would use, from
    each index's meta sidecar.  Counters: each page verified bumps
    [stats]' [scrubbed], each failure [crc_failures], each rewrite
    [repaired].
    @raise Failure if the warehouse sidecar or a page-file header is
    missing or corrupt (scrub needs at least those to orient itself). *)

val inject_bit_flips :
  ?page_size:int ->
  ?vfs:Storage.Vfs.t ->
  ?backing:[ `Auto | `Map | `Buffered ] ->
  path:string ->
  seed:int ->
  flips:int ->
  unit ->
  (scrub_side * Storage.Page_id.t) list
(** Corruption injection for tests and demos: flip one random bit in each
    of [flips] distinct written pages (split across the two MVSBTs, fewer
    if the files are smaller), always inside the CRC-covered region of the
    block so every flip is detectable by {!scrub}.  [page_size] defaults
    as in {!scrub}.  Returns the pages hit. *)

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

type vacuum_action = {
  va_side : scrub_side;  (** Which of the two MVSBTs the page lives in. *)
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
