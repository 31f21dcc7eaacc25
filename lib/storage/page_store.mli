(** Page stores: the simulated disk.

    A page store owns a growing collection of fixed-size pages addressed by
    {!Page_id.t}.  Two implementations share one signature:

    - {!Mem} keeps payloads in memory — fast, used by tests and benchmarks;
      physical I/O is still charged to {!Io_stats} so experiments measure
      the same quantity the paper does.
    - {!Mmap} keeps each page in a fixed-size block of one page file,
      proving the structures are genuinely disk-resident.  The file is an
      {!Arena} — mapped, or a buffered image where mapping is unavailable
      — and pages are encoded and decoded in place through a
      {!PAGE_CODEC} over {!Zcodec}, with no intermediate [bytes].  Every
      block carries a CRC32 over its payload, verified on every read, so
      bit-rot is detected loudly ({!Corrupt_page}) instead of being
      decoded into garbage.

    Stores are deliberately dumb: no caching.  Layer {!Buffer_pool} on top
    for buffering. *)

exception Corrupt_page of { path : string; page : Page_id.t }
(** A page block whose stored CRC32 does not match its payload (or whose
    length field is out of range).  Counted in {!Io_stats.crc_failures}. *)

val protect : (unit -> 'a) -> ('a, Storage_error.t) result
(** {!Storage_error.protect}, which also returns a {!Corrupt_page} as a
    permanent [Checksum_mismatch] error on [Pread] of the page's file,
    naming the page in its detail. *)

module type S = sig
  type payload
  (** The in-memory representation of one page. *)

  type t

  val stats : t -> Io_stats.t
  (** The counter sink this store charges physical operations to. *)

  val alloc : t -> Page_id.t
  (** Allocate a fresh page id.  Charges an alloc, not an I/O; the first
      {!write} pays the I/O.  Ids are never reused, so stale references to
      freed pages stay detectably dangling instead of silently aliasing a
      new page. *)

  val read : t -> Page_id.t -> payload
  (** @raise Not_found if the page was never written or was freed. *)

  val write : t -> Page_id.t -> payload -> unit

  val free : t -> Page_id.t -> unit
  (** Return a page to the store (page-disposal optimisation).  The id is
      retired, never recycled. *)

  val mem : t -> Page_id.t -> bool
  val live_pages : t -> int
  (** Number of currently allocated, not-freed pages — the paper's space
      metric. *)

  val prefetch : t -> Page_id.t list -> unit
  (** Advisory: hint that these pages are about to be read (a buffer pool
      batches the root-to-leaf descent path through this).  No-op for
      {!Mem}, which has nothing to warm; {!Mmap} forwards the hint to the
      kernel via [posix_madvise].  Never charged as I/O. *)
end

module Mem (P : sig
  type t
end) : sig
  include S with type payload = P.t

  val create : ?stats:Io_stats.t -> unit -> t

  val reserve : t -> next:int -> unit
  (** Ensure future {!alloc}s return ids at or above [next].  Used when
      reloading a persisted structure whose pages carry their original
      ids. *)

  val install : t -> Page_id.t -> payload -> unit
  (** Install a page under an explicit id without charging I/O — snapshot
      loading only. *)

  val ids : t -> Page_id.t list
  (** Live page ids, ascending.  Charges nothing — enumeration for
      maintenance passes (vacuum), not a page transfer. *)
end

module type PAGE_CODEC = sig
  type t

  val encode : Zcodec.Writer.t -> t -> unit
  (** @raise Codec.Overflow if the payload exceeds the page size. *)

  val decode : Zcodec.Reader.t -> t
end

module Mmap (C : PAGE_CODEC) : sig
  include S with type payload = C.t

  val block_overhead : int
  (** Bytes of each block spent on the integrity frame ([len] + [crc], 8);
      the codec sees at most [page_size - block_overhead] bytes. *)

  val create :
    ?stats:Io_stats.t ->
    ?page_size:int ->
    ?mode:[ `Create | `Reopen ] ->
    ?vfs:Vfs.t ->
    ?tracer:Telemetry.Tracer.t ->
    ?backing:[ `Auto | `Map | `Buffered ] ->
    path:string ->
    unit ->
    t
  (** Every page occupies one fixed-size block of [page_size] bytes
      (default 4096, the paper's setting): block 0 holds a CRC32-framed
      header recording the geometry and the committed page count, and
      page [id] occupies block [1 + id], framed as [len][crc32][payload].
      The file is an {!Arena}, so pages are encoded/decoded in place
      through the {!PAGE_CODEC}.  Because the arena grows by doubling,
      the physical file length runs ahead of the used prefix; the header
      therefore carries the {e committed} page count, rewritten (and
      flushed separately, after the data ranges) on every {!sync}.

      With [`Create] (the default) the file is created or truncated.  With
      [`Reopen] an existing page file is opened in place: the header is
      validated against [page_size] before anything can write to the
      file, so a rejected reopen leaves it byte-identical.  The written
      set is every committed id minus the freed ids persisted in the
      [path ^ ".free"] sidecar ({!sync}/{!close} rewrite it atomically).
      If the sidecar is stale or torn the reopen degrades conservatively:
      pages freed after the last sync resurrect and {!live_pages}
      overcounts; after a clean {!sync} or {!close} liveness is exact.

      [backing] selects the arena flavour (default [`Auto]: real
      [map_file], falling back to a RAM buffer flushed through [vfs]
      where mapping is unavailable — see {!Arena.create}).  Each logical
      read/write is charged to [stats] as a [read]/[write] {e plus} a
      [mapped_read]/[mapped_write], so cost-model totals stay comparable
      with {!Mem} while the zero-copy share stays visible.  When [tracer]
      (default {!Telemetry.Tracer.noop}) is enabled, each {!read},
      {!write} and {!sync} emits a [page.read]/[page.write]/[page.sync]
      span carrying the page id.

      @raise Failure on a missing, foreign, or geometry-mismatched file
      under [`Reopen].
      @raise Arena.Unavailable under [backing:`Map] on platforms that
      refuse the mapping. *)

  val page_size : t -> int

  val backing : t -> Arena.backing
  (** Which arena flavour [`Auto] resolved to. *)

  val verify : t -> Page_id.t -> bool
  (** In-place CRC check of a written page's mapped block, without
      decoding.  [false] is also counted in {!Io_stats.crc_failures}.
      @raise Not_found if the page was never written or was freed. *)

  val read_block : t -> Page_id.t -> bytes
  (** Copy of the raw [page_size]-byte block, frame included — scrub and
      explorer plumbing. *)

  val write_block : t -> Page_id.t -> bytes -> unit
  (** Overwrite a page's raw block verbatim and mark it dirty.  Bypasses
      the codec {e and the CRC framing}; scrub/repair and fault-injection
      plumbing, not charged as a logical write. *)

  val written_ids : t -> Page_id.t list
  (** Every currently written (allocated, not freed) page id, ascending. *)

  val sync : t -> unit
  (** Flush dirty data ranges ([msync] per coalesced range), then commit
      the header's page count, then persist the freed-id sidecar — in
      that order, so a crash between barriers leaves the previous
      committed prefix intact.  Charged to {!Io_stats.syncs}; the range
      count lands in {!Io_stats.msyncs}. *)

  val close : t -> unit
  (** Persist the freed-id sidecar (best-effort) and release the file.
      Writes made since the last {!sync} reach the file (not necessarily
      the platter) on either backing, so the next [`Reopen] reads them.
      The committed page count is {!sync}'s alone: ids allocated since
      then are not part of the reopened store. *)

  val file_size_bytes : t -> int
  (** The used prefix, [(1 + next_id) * page_size] — the space metric. *)

  val mapped_capacity_bytes : t -> int
  (** Physical capacity of the arena file (runs ahead of
      {!file_size_bytes} because growth doubles). *)

  val remaps : t -> int
  (** Times growth re-established the mapping. *)

  val install_raw : t -> Page_id.t -> bytes -> pos:int -> len:int -> unit
  (** Install an already-encoded page under an explicit id, moving the
      alloc cursor past it — building a page file from a snapshot.  The
      [len] bytes of the buffer from [pos] are copied into the block and
      framed as [len][crc32][payload], the very block {!write} produces
      for the page they encode.  Unlike {!Mem.install} the physical
      write is real and charged as one write; only the alloc is skipped
      (the id is fixed by its previous life).
      @raise Codec.Overflow if the payload does not fit a block. *)

  val read_payload : t -> Page_id.t -> bytes
  (** A page's payload as the codec encoded it, CRC-checked but not
      decoded, copied out of the block.  Charged as one read, like
      {!read}.
      @raise Corrupt_page on a checksum mismatch.
      @raise Not_found if the page was never written or was freed. *)
end
