(** Page stores: the simulated disk.

    A page store owns a growing collection of fixed-size pages addressed by
    {!Page_id.t}.  Two implementations share one signature:

    - {!Mem} keeps payloads in memory — fast, used by tests and benchmarks;
      physical I/O is still charged to {!Io_stats} so experiments measure
      the same quantity the paper does.
    - {!Mmap} keeps each page in a fixed-size block of one page file,
      proving the structures are genuinely disk-resident.  The file is an
      {!Arena} — mapped, or a RAM image where mapping is unavailable —
      and pages are encoded and decoded in place through a
      {!PAGE_CODEC} over {!Zcodec}, with no intermediate [bytes].  The
      file is a cache of its owner's pages, never read back by a later
      store.  Every block carries a CRC32 over its payload, verified on
      every read, so bit-rot is detected loudly ({!Corrupt_page})
      instead of being decoded into garbage.

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
    ?tracer:Telemetry.Tracer.t ->
    ?backing:[ `Auto | `Map | `Buffered ] ->
    path:string ->
    unit ->
    t
  (** A fresh, empty store.  Every page occupies one fixed-size block of
      [page_size] bytes (default 4096, the paper's setting): page [id]
      occupies block [id], framed as [len][crc32][payload] — the frame
      of WAL records and checkpoint chunks.  The file is an {!Arena}
      ([backing] as in {!Arena.create}, default [`Auto]), so pages are
      encoded/decoded in place through the {!PAGE_CODEC}.

      Each logical read/write is charged to [stats] as a [read]/[write]
      {e plus} a [mapped_read]/[mapped_write], so cost-model totals stay
      comparable with {!Mem} while the zero-copy share stays visible.
      When [tracer] (default {!Telemetry.Tracer.noop}) is enabled, each
      {!read} and {!write} emits a [page.read]/[page.write] span carrying
      the page id.
      @raise Arena.Unavailable under [backing:`Map] on platforms that
      refuse the mapping. *)

  val page_size : t -> int

  val backing : t -> Arena.backing
  (** Which arena flavour [`Auto] resolved to. *)

  val written_ids : t -> Page_id.t list
  (** Every currently written (allocated, not freed) page id, ascending. *)

  val close : t -> unit
  (** Release the file (see {!Arena.close}). *)

  val file_size_bytes : t -> int
  (** The used prefix, [next_id * page_size] — the space metric. *)

  val install_raw : t -> Page_id.t -> bytes -> pos:int -> len:int -> unit
  (** Install a framed page under an explicit id, moving the alloc cursor
      past it — building a page file from a checkpoint.  The [len] bytes
      of the buffer from [pos] are a whole frame, [len][crc32][payload]
      as {!read_frame} returns it, and are copied into the block
      verbatim: the CRC is not recomputed, so the caller must have
      verified it.  Unlike {!Mem.install} the physical write is real and
      charged as one write; only the alloc is skipped (the id is fixed by
      its previous life).
      @raise Codec.Overflow if the frame does not fit a block or its
      length field disagrees with [len]. *)

  val read_frame : t -> Page_id.t -> bytes
  (** A page's whole frame, [len][crc32][payload], CRC-checked but not
      decoded, copied out of the block.  Charged as one read, like
      {!read}.
      @raise Corrupt_page on a checksum mismatch.
      @raise Not_found if the page was never written or was freed. *)
end
