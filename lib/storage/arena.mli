(** Memory-mapped page arena.

    A growable run of fixed-size blocks exposed as one flat
    [Bigarray.Array1] (see {!Zcodec.buf}), so page reads and writes are
    loads and stores into the mapping — no [read]/[write] syscalls, no
    intermediate [bytes].  {!Page_store.Mmap} frames CRC-checked pages on
    top; this module only manages the mapping itself.  It grows by
    remapping: the file is extended ([ftruncate]) in doubling steps and
    remapped, so callers must re-fetch {!buffer} after any {!ensure} (the
    old mapping stays valid until collected, but no longer covers the
    tail).

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

val willneed : t -> block:int -> count:int -> unit
(** Advisory readahead for [count] blocks starting at [block]. *)

val remaps : t -> int
(** Times the mapping was re-established by growth (0 for [`Buffered]). *)

val file_size_bytes : t -> int
(** Capacity in bytes: the length of the backing file under [`Map]. *)

val close : t -> unit
(** Release the descriptor and the buffer (the mapping is unmapped, or
    the RAM image freed, once collected).  Idempotent. *)
