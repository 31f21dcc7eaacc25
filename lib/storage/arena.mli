(** Memory-mapped page arena, and read-only images of committed files.

    An arena is a growable run of fixed-size blocks exposed as one flat
    [Bigarray.Array1] (see {!Zcodec.buf}), so page reads and writes are
    loads and stores into the mapping — no [read]/[write] syscalls, no
    intermediate [bytes].  {!Page_store.Mmap} keeps its overlay — CRC-
    framed pages written since the last checkpoint — in one; this module
    only manages the mapping itself.  It grows by remapping: the file is
    extended ([ftruncate]) in doubling steps and remapped, so callers
    must re-fetch {!buffer} after any {!ensure} or {!reset} (the old
    mapping stays valid until collected, but no longer covers the tail).

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

val buffer : t -> Zcodec.buf
(** The live mapping.  Invalidated (for the growth tail) by {!ensure};
    re-fetch after growing.  Offsets are [block * block_size]. *)

val ensure : t -> blocks:int -> unit
(** Grow (ftruncate + remap) until {!capacity_blocks} [>= blocks].
    Doubling policy, so amortized remaps are logarithmic. *)

val reset : t -> unit
(** Drop every block: under [`Map] the file is cut to nothing and
    regrown, sparse, to the initial capacity (so it holds no disk
    blocks), under [`Buffered] the image is replaced by a zeroed one.
    Re-fetch {!buffer} afterwards. *)

val willneed : t -> block:int -> count:int -> unit
(** Advisory readahead for [count] blocks starting at [block]. *)

val remaps : t -> int
(** Times the mapping was re-established by growth (0 for [`Buffered]). *)

val file_size_bytes : t -> int
(** Capacity in bytes: the length of the backing file under [`Map]. *)

val close : t -> unit
(** Release the descriptor and the buffer (the mapping is unmapped, or
    the RAM image freed, once collected).  Idempotent. *)

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

  val ram : ?capacity:int -> unit -> t
  (** An empty RAM image that {!append} fills. *)

  val append : t -> bytes -> pos:int -> len:int -> int
  (** Copy [len] bytes from [pos] to the end of a RAM image, growing it,
      and return the offset they landed at.  Re-fetch {!buffer} after.
      @raise Invalid_argument on a mapped image. *)

  val buffer : t -> Zcodec.buf
  (** The bytes: the mapping, or the RAM image (valid up to the end of the
      last {!append}). *)

  val mapped : t -> bool

  val willneed : t -> off:int -> len:int -> unit
  (** Advisory readahead of a byte range of a mapped image, clipped to
      its end; a no-op on a RAM image. *)

  val release : t -> unit
  (** Unmap the file now, not when the GC gets to it — a removed file
      that is still mapped keeps its blocks on disk — or drop the RAM
      image.  The image is empty afterwards, and a buffer fetched before
      has no elements left.  Idempotent. *)
end
