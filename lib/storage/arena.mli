(** Memory-mapped byte arenas, and read-only images of committed files.

    An arena is a byte-addressed log in [Bigarray.Array1]s (see
    {!Zcodec.buf}): {!append} hands its writer room at the tail and
    advances by what was written, so reads and writes are loads and
    stores into the memory — no [read]/[write] syscalls, no intermediate
    [bytes].  {!Page_store.Mmap} keeps its overlay — CRC-framed pages
    sealed since the last checkpoint, back to back — in one; this module
    only manages the memory itself.  A mapped arena is one flat mapping
    of its file, and grows by remapping: the file is extended
    ([ftruncate]) in doubling steps and remapped.  A RAM arena is an
    {!Image.ram} of [chunk]-byte chunks, so it never copies a byte it
    holds, and no range straddles two chunks.  Callers must {!locate}
    again after any {!append} or {!reset}.

    An arena is a cache that lives and dies with its owner: nothing is
    ever read back from a previous arena, so nothing is synced, and a
    crash can leave the file in any state.  Two backings share the
    interface.  [`Map] maps a file ([Unix.map_file]) that the kernel
    pages in and out.  [`Buffered] keeps the bytes in RAM and touches no
    file at all — the fallback where [map_file] is unavailable (tmpfs
    oddities, exotic filesystems, [RTA_FORCE_NO_MMAP=1]) and the backing
    to use under a synthetic filesystem. *)

exception Unavailable of string
(** [`Map] was demanded but the platform refused the mapping. *)

type backing = [ `Map | `Buffered ]

type t

val create : backing:[ `Auto | `Map | `Buffered ] -> chunk:int -> path:string -> unit -> t
(** A fresh, empty arena.  Under [`Map] it creates or truncates the file
    at [path] and maps its first [chunk] bytes, the size it grows from;
    [`Buffered] touches no file and uses [path] only to name the arena
    in errors, and holds RAM in chunks of [chunk] bytes (see
    {!Image.ram}), the first allocated by the first {!append}.  [`Auto]
    tries [`Map] and falls back to [`Buffered] if mapping fails; [`Map]
    raises {!Unavailable} instead of falling back. *)

val backing : t -> backing
(** The resolved backing ([`Auto] collapses to one of the two). *)

val append : t -> room:int -> (Zcodec.buf -> int -> int) -> int
(** [append t ~room write] calls [write buf off], where [room] bytes of
    [buf] from [off] are the arena's tail, and advances the tail by the
    count [write] returns; the result is the offset the bytes landed at,
    for {!locate}.  Under [`Map] the file grows first if the room runs
    past it (ftruncate + remap, doubling, so amortized remaps are
    logarithmic); under [`Buffered] a chunk without the room is left
    with its last bytes unused, and the bytes go to a fresh one.
    @raise Invalid_argument if [room] exceeds [chunk], or [write] returns
    a count outside [0, room]. *)

val locate : t -> int -> Zcodec.buf * int
(** [(buf, off)]: the arena's byte at offset [o] is byte [off] of [buf],
    the mapping or the RAM chunk that holds it, where the range appended
    at [o] lies whole.
    @raise Invalid_argument past the tail. *)

val used : t -> int
(** The offset of the tail: the bytes appended since the arena was made
    or {!reset}, with the unused ends of RAM chunks. *)

val reset : t -> unit
(** Drop every byte: under [`Map] the view is unmapped, the file cut to
    nothing and regrown, sparse, to its first [chunk] bytes (so it holds
    no disk blocks); under [`Buffered] the chunks are unmapped.  Either
    way a buffer {!locate} returned before has no elements left. *)

val close : t -> unit
(** Release the descriptor and the memory now: the mapping, or the RAM
    chunks, are unmapped, as by {!reset}.  Idempotent. *)

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
      unused at most the length of the range that opened the next.  Each
      chunk is an anonymous private mapping, zero-filled and resident
      only where written, which {!release} unmaps, or the GC once the
      chunk is collected.  A [`Buffered] arena keeps its bytes in one. *)

  val append : t -> bytes -> pos:int -> len:int -> int
  (** Copy [len] bytes from [pos] to the end of a RAM image, one
      [memcpy] ({!Zcodec.blit_of_bytes}), and return the offset they
      landed at.
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
  (** Unmap the file or the RAM chunks now, not when the GC gets to
      them: a removed file that is still mapped keeps its blocks on
      disk, and RAM left to the GC stays with the process until a
      collection finds it.  The image is empty afterwards, and a buffer
      of it fetched before has no elements left.  Idempotent. *)
end
