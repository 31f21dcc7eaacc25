(** Page stores: the simulated disk.

    A page store owns a growing collection of fixed-size pages addressed by
    {!Page_id.t}.  Two implementations share one signature:

    - {!Mem} keeps payloads in the heap, as values.  It backs [Btree],
      [Mvbt] and [Sbtree]; physical I/O is still charged to {!Io_stats}
      so experiments measure the same quantity the paper does.
    - {!Mmap} is the store every MVSBT runs on: served trees under both
      store kinds, and the paper's figures over RAM.  Every page in it is
      a frame, off the OCaml heap, in one of three places: a {e base},
      the committed checkpoint the store was opened or last rebased on —
      the file mapped read-only, or a RAM image of its frames; an
      {e overlay}, an {!Arena} holding the frames of the pages sealed
      since, back to back; or, for a page that can still change, a RAM
      slot ({!Arena.Slots}) where its writer edits it in place, in a
      layout wide enough for any edit.  A page in a slot that seals is
      narrowed once into the overlay, when it is written back.  Where
      each page is, the page table keeps as one int per page id, in
      chunks dropped once their ids are all gone.  A read checks a
      framed page's CRC — bit-rot is detected loudly ({!Corrupt_page}),
      never decoded into garbage — and the caller scans the payload in
      place ({!Mmap.frame}), which checks the CRC again, since a page can
      rot while a pool holds it.  The overlay and the slots are a cache
      of their owner's pages, never read back by a later store.

    Stores are deliberately dumb: no caching.  Layer {!Buffer_pool} on top
    for buffering. *)

exception Corrupt_page of { path : string; page : Page_id.t }
(** A page frame that {!Frame.Mapped.check} does not find whole; [path]
    is the file that holds it, a checkpoint or an overlay.  Counted in
    {!Io_stats.crc_failures}. *)

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
end

module Mem (P : sig
  type t
end) : sig
  include S with type payload = P.t

  val create : ?stats:Io_stats.t -> unit -> t
end

module type PAGE_CODEC = sig
  val sealed : Zcodec.buf -> int -> bool
  (** Whether the page whose payload is at an offset of a slot can no
      longer change, bar vacuum: it is narrowed when it is written. *)

  val length : Zcodec.buf -> int -> int
  (** The length of the payload at an offset of a slot. *)

  val narrow : Zcodec.buf -> int -> Zcodec.buf -> int -> int
  (** [narrow src off dst dst_off] writes the sealed form of the payload
      at [off] of a slot [src] into [dst] from [dst_off], where there is
      room for a page, and returns its length. *)
end

module Mmap (C : PAGE_CODEC) : sig
  include S with type payload = unit
  (** {!S.read} charges a read and checks a framed page's CRC; {!S.write}
      charges a write, and narrows a sealed page in a slot into the
      overlay. *)

  val block_overhead : int
  (** {!Frame.header_bytes}: a payload takes at most
      [page_size - block_overhead] bytes. *)

  val create :
    ?stats:Io_stats.t ->
    ?page_size:int ->
    ?tracer:Telemetry.Tracer.t ->
    ?backing:[ `Auto | `Map | `Buffered ] ->
    path:string ->
    unit ->
    t
  (** A fresh, empty store: no base, no slot, and an empty overlay at
      [path] — an {!Arena} ([backing] as in {!Arena.create}, default
      [`Auto]; RAM chunks, or a first mapping, of 64 pages) to which each
      page sealed is appended as a {!Frame} from an 8-byte boundary.  A frame takes the bytes its page narrows to, at most
      [page_size] (default 4096, the paper's setting), so the overlay
      grows with the bytes of the pages sealed, whatever their ids.  A
      page sealed again (a vacuum's prune) is appended again, and its old
      frame, like a freed page's, is dead until the next {!rebase}
      empties the overlay.  Slots are [page_size] bytes.  A store whose
      overlay is mapped maps its bases too; one whose overlay is RAM
      keeps RAM images of its bases.

      Each logical read/write is charged to [stats] as a [read]/[write]
      {e plus} a [mapped_read]/[mapped_write], whether or not it touches a
      frame, so cost-model totals stay comparable with {!Mem} while the
      zero-copy share stays visible.
      When [tracer] (default {!Telemetry.Tracer.noop}) is enabled, each
      {!read} and {!write} emits a [page.read]/[page.write] span carrying
      the page id.
      @raise Arena.Unavailable under [backing:`Map] on platforms that
      refuse the mapping. *)

  val page_size : t -> int

  val backing : t -> Arena.backing
  (** Which arena flavour the overlay's [`Auto] resolved to. *)

  val overlay_bytes : t -> int
  (** Bytes the overlay holds ({!Arena.used}): every frame appended since
      the last {!rebase}, live or dead, with its alignment. *)

  val iter_ids : t -> (Page_id.t -> unit) -> unit
  (** [iter_ids t f] runs [f] on every page id held (made by {!fresh},
      or written, and not freed), in the base, the overlay or a slot,
      ascending.  [f] may read, edit and write pages, but not make or
      free one. *)

  type marks
  (** A set of the pages a store holds, a bit for each id its page
      table's chunks cover: as sparse as the table, however far apart
      the ids.  It stays valid while no page is made ({!fresh}) or freed,
      and the store is not rebased. *)

  val marks : t -> marks
  (** An empty set over the pages held now. *)

  val mark : marks -> Page_id.t -> bool
  (** Add a page; [false] if it was in the set already.
      @raise Not_found if the store does not hold the page. *)

  val marked : marks -> Page_id.t -> bool
  (** Whether a page is in the set. *)

  val slots_used : t -> int
  (** Pages held in slots. *)

  val close : t -> unit
  (** Release the overlay (see {!Arena.close}) and the slots, and unmap
      the base. *)

  val frame : t -> Page_id.t -> Zcodec.buf * int * int
  (** [(buf, off, len)]: the page's payload is [len] bytes of [buf] from
      [off], wherever the page is now: in its slot, or a frame whose CRC
      is checked on every call.  Not charged — the {!read} before it was
      — but not trusted to it either: a pool keeps a page resident past
      that read, and a mapped base shows the file's current bytes, so a
      byte that rots in the meantime must fail the next scan, not change
      its answer.  The buffer is valid until the store's next {!write},
      {!edit} or {!rebase}: fetch it again for every scan rather than
      keeping it, since an overlay that grows moves to a new buffer, a
      page that seals leaves its slot, and a rebase moves every frame and
      unmaps the base it leaves.
      @raise Corrupt_page on a checksum mismatch, or a length field that
      runs past the page size or the buffer.
      @raise Not_found if the page was never written or was freed. *)

  val fresh : t -> Page_id.t -> Zcodec.buf * int
  (** A slot for the page just allocated as [id], whose writer lays the
      page out there before it writes it: [(buf, off)], [page_size] bytes
      of [buf] from [off], holding whatever the slot last held.  Not
      charged.
      @raise Invalid_argument if [id] was not allocated or is held. *)

  val edit :
    t ->
    Page_id.t ->
    widen:(Zcodec.buf -> int -> int -> Zcodec.buf -> int -> unit) ->
    Zcodec.buf * int
  (** The slot of a page its writer is about to change, as {!fresh}
      gives it: the page's own, or a new one into which [widen buf off
      len dst dst_off] copies the page's CRC-checked frame ({!frame}),
      after which the page lives there.  Valid until the page is
      written sealed, freed or rebased.  Not charged.
      @raise Corrupt_page as {!frame} does, and whatever [widen] raises,
      the page then staying where it was.
      @raise Not_found if the page was never written or was freed. *)

  val read_frame : t -> Page_id.t -> bytes
  (** A page's whole {!Frame}, copied out of the base
      or the overlay, CRC-checked, or, for a page in a slot, narrowed.
      Charged as one read, like {!read}.
      @raise Corrupt_page on a checksum mismatch.
      @raise Not_found if the page was never written or was freed. *)

  (** {2 Bases}

      A base is built from one checkpoint file: [stage], then each page
      frame of the file with {!stage_frame}, then {!rebase}.  The open
      stages the frames it verifies as it reads the file; a checkpoint
      stages the frames it writes, and rebases once the file is durable. *)

  type staged

  val stage : t -> file:string -> ?size:int -> unit -> staged
  (** Begin a base over the checkpoint file [file].  [size], the length
      of a file that already exists, has a mapping store map it now;
      where it cannot be mapped and the store's backing is [`Auto], this
      base and every later one are RAM images instead.  Without [size], a
      mapping store maps the file at {!rebase}.  A RAM image
      ({!Arena.Image.ram}) is one chunk of [size] bytes, or, for a file
      being written, grows by chunks of 256 times [page_size]: it is
      never copied to grow, and never holds more than a chunk it does
      not use.  A mapped file is read through the OS, so a store over a
      synthetic {!Vfs.t} is made [`Buffered].
      @raise Arena.Unavailable under [`Map] when the file cannot be
      mapped. *)

  val stage_frame :
    staged -> Page_id.t -> offset:int -> bytes -> pos:int -> len:int -> bool
  (** Record that page [id]'s frame is at byte [offset] of the file; its
      [len] bytes from [pos] are copied only into a RAM image.  The CRC is
      not checked here: the caller has verified it, or has just computed
      it.  [false], and nothing recorded, if [id] is staged already. *)

  val rebase : t -> staged -> unit
  (** Move the store onto the staged base: its pages become exactly the
      staged ones, those in slots included, the previous base is
      released ({!Arena.Image.release}: unmapped now, not by the GC), the
      overlay is emptied ({!Arena.reset}), dead frames and all, every
      slot is released ({!Arena.Slots.release}), and ids
      keep coming from past both the old cursor and the highest staged
      id.  A mapped base is hinted to the kernel once, whole
      ([posix_madvise(WILLNEED)]), and its pages are counted in
      {!Io_stats.readaheads}.
      @raise Arena.Unavailable if the file cannot be mapped, in which
      case the store is unchanged. *)
end
