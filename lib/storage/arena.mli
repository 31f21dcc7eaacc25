(** Memory-mapped page arena, and read-only images of committed files.

    An arena is a growable run of fixed-size blocks in [Bigarray.Array1]s
    (see {!Zcodec.buf}), so page reads and writes are loads and stores
    into the mapping — no [read]/[write] syscalls, no intermediate
    [bytes].  {!Page_store.Mmap} keeps its overlay — CRC-framed pages
    sealed since the last checkpoint — in one; this module only manages
    the memory itself.  A mapped arena is one flat mapping of its file,
    and grows by remapping: the file is extended ([ftruncate]) in
    doubling steps and remapped.  A RAM arena is a run of chunks of
    [initial_blocks] blocks, and grows by adding chunks, so it never
    copies a block it holds.  Callers must re-fetch {!block} after any
    {!ensure} or {!reset}.

    An arena is a cache that lives and dies with its owner: nothing is
    ever read back from a previous arena, so nothing is synced, and a
    crash can leave the file in any state.  Two backings share the
    interface.  [`Map] maps a file ([Unix.map_file]) that the kernel
    pages in and out.  [`Buffered] keeps the blocks in a RAM image and
    touches no file at all — the fallback where [map_file] is
    unavailable (tmpfs oddities, exotic filesystems,
    [RTA_FORCE_NO_MMAP=1]) and the backing to use under a synthetic
    filesystem. *)

exception Unavailable of string
(** [`Map] was demanded but the platform refused the mapping. *)

type backing = [ `Map | `Buffered ]

type t

val create :
  ?initial_blocks:int ->
  backing:[ `Auto | `Map | `Buffered ] ->
  block_size:int ->
  path:string ->
  unit ->
  t
(** A fresh arena of [initial_blocks] (default 64) zeroed blocks.  Under
    [`Map] it creates or truncates the file at [path]; [`Buffered]
    touches no file and uses [path] only to name the arena in errors.
    [`Auto] tries [`Map] and falls back to [`Buffered] if mapping fails;
    [`Map] raises {!Unavailable} instead of falling back. *)

val backing : t -> backing
(** The resolved backing ([`Auto] collapses to one of the two). *)

val block_size : t -> int

val capacity_blocks : t -> int
(** Blocks the current mapping covers (capacity, not usage). *)

val block : t -> int -> Zcodec.buf * int
(** [(buf, off)]: block [b] is [block_size] bytes of [buf] from [off].
    Under [`Map], [buf] is the whole mapping, replaced by an {!ensure}
    that remaps; under [`Buffered], the chunk holding the block.
    @raise Invalid_argument past {!capacity_blocks}. *)

val ensure : t -> blocks:int -> unit
(** Grow until {!capacity_blocks} [>= blocks]: under [`Map] by ftruncate
    + remap, doubling, so amortized remaps are logarithmic; under
    [`Buffered] by adding zeroed chunks. *)

val reset : t -> unit
(** Drop every block: under [`Map] the file is cut to nothing and
    regrown, sparse, to the initial capacity (so it holds no disk
    blocks), under [`Buffered] the chunks are replaced by one zeroed
    chunk.  Re-fetch {!block} afterwards. *)

val remaps : t -> int
(** Times the mapping was re-established by growth (0 for [`Buffered]). *)

val file_size_bytes : t -> int
(** Capacity in bytes: the length of the backing file under [`Map]. *)

val close : t -> unit
(** Release the descriptor and the buffers (the mapping is unmapped, or
    the RAM chunks freed, once collected).  Idempotent. *)

(** A committed file, read-only: either mapped whole, or a RAM image into
    which the caller copies the byte ranges it will read.  {!Page_store.Mmap}
    reads the pages of a checkpoint through one of these. *)
module Image : sig
  type t

  val empty : unit -> t
  (** An image of nothing. *)

  val map : path:string -> t
  (** Map the whole file at [path] read-only ([Unix.map_file] over an
      [O_RDONLY] descriptor, private, never written through), so a write
      made to the file through another descriptor shows in it.
      @raise Unavailable if the platform refuses the mapping, or
      [RTA_FORCE_NO_MMAP] is set. *)

  val ram : chunk:int -> unit -> t
  (** An empty RAM image that {!append} fills, in chunks of [chunk]
      bytes: it grows a chunk at a time, allocated when the first range
      that does not fit the last one arrives, and never copies a byte it
      holds.  A range never straddles two chunks, so a chunk leaves
      unused at most the length of the range that opened the next. *)

  val append : t -> bytes -> pos:int -> len:int -> int
  (** Copy [len] bytes from [pos] to the end of a RAM image, and return
      the offset they landed at.
      @raise Invalid_argument on a mapped image, or if [len] exceeds the
      image's chunk. *)

  val locate : t -> int -> Zcodec.buf * int
  (** [(buf, off)]: the image's byte at offset [o] is byte [off] of [buf]
      — the mapping, or the RAM chunk that holds it, whose bytes from
      [off] are those of the range appended there.
      @raise Invalid_argument past the image's end. *)

  val mapped : t -> bool

  val willneed : t -> unit
  (** Advisory readahead ([posix_madvise(WILLNEED)]) of a whole mapped
      image; a no-op on a RAM image. *)

  val release : t -> unit
  (** Unmap the file now, not when the GC gets to it — a removed file
      that is still mapped keeps its blocks on disk — or drop the RAM
      image.  The image is empty afterwards, and a buffer of a mapped
      image fetched before has no elements left.  Idempotent. *)
end
