(** Memory-mapped page arena.

    A growable file of fixed-size blocks exposed as one flat
    [Bigarray.Array1] (see {!Zcodec.buf}), so page reads and writes are
    loads and stores into the mapping — no [read]/[write] syscalls, no
    intermediate [bytes].  {!Page_store.Mmap} frames CRC-checked pages on
    top; this module only manages the mapping itself:

    - {b grow-by-remap}: the file is extended ([ftruncate]) in
      doubling steps and remapped; callers must re-fetch {!buffer} after
      any {!ensure} (the old mapping stays valid until collected, but no
      longer covers the tail);
    - {b durability}: writes into the mapping are volatile until {!sync},
      which [msync]s the dirty block ranges and then [fsync]s the
      descriptor (belt and braces: [msync] covers the data, [fsync] the
      size metadata from growth);
    - {b dirty tracking}: callers mark blocks they touched; {!sync}
      coalesces adjacent dirty blocks into ranges.

    Two backings share the interface.  [`Map] is the real thing
    ([Unix.map_file]).  [`Buffered] keeps the "mapping" in RAM and makes
    it durable through a {!Vfs.file} — one [pwrite] per dirty block plus
    an [fsync] at each {!sync} — which is what lets the crash-state explorer
    journal an arena-backed store exactly like any other disk artifact,
    and serves as the graceful fallback where [map_file] is unavailable
    (tmpfs oddities, exotic filesystems, [RTA_FORCE_NO_MMAP=1]). *)

exception Unavailable of string
(** [`Map] was demanded but the platform refused the mapping. *)

type backing = [ `Map | `Buffered ]

type t

val create :
  ?initial_blocks:int ->
  ?vfs:Vfs.t ->
  backing:[ `Auto | `Map | `Buffered ] ->
  block_size:int ->
  path:string ->
  mode:[ `Create | `Reopen ] ->
  unit ->
  t
(** [`Create] truncates [path] and sizes it to [initial_blocks] (default
    64).  [`Reopen] covers the file's whole blocks and leaves the file
    exactly as it is — a torn trailing partial block is not covered —
    so a caller can validate what it finds before anything grows it.

    [`Auto] tries [`Map] and falls back to [`Buffered] (over [vfs]) if
    mapping fails; [`Map] raises {!Unavailable} instead of falling back.
    [`Buffered] and the fallback do all I/O through [vfs] (default
    {!Vfs.os}); [`Map] uses the OS directly and ignores [vfs].
    Callers on a synthetic [vfs] (e.g. {!Vfs.Memory}) must pass
    [`Buffered] — [`Auto] would touch the real filesystem. *)

val backing : t -> backing
(** The resolved backing ([`Auto] collapses to one of the two). *)

val block_size : t -> int

val capacity_blocks : t -> int
(** Blocks the current mapping covers (file capacity, not usage). *)

val buffer : t -> Zcodec.buf
(** The live mapping.  Invalidated (for the growth tail) by {!ensure};
    re-fetch after growing.  Offsets are [block * block_size]. *)

val ensure : t -> blocks:int -> unit
(** Grow (ftruncate + remap) until {!capacity_blocks} [>= blocks].
    Doubling policy, so amortized remaps are logarithmic. *)

val mark_dirty : t -> block:int -> unit

val dirty_blocks : t -> int

val sync : t -> unit
(** Flush every dirty block to the platter and clear the dirty set.
    Raises a typed {!Storage_error.Io} on refusal. *)

val willneed : t -> block:int -> count:int -> unit
(** Advisory readahead for [count] blocks starting at [block]. *)

val remaps : t -> int
(** Times the mapping was re-established by growth (0 for [`Buffered]). *)

val msync_ranges : t -> int
(** Total coalesced ranges flushed across all {!sync} calls. *)

val file_size_bytes : t -> int
(** Physical capacity of the backing file in bytes. *)

val close : t -> unit
(** Hand every write to the file, then release the descriptor and the
    buffer (the mapping is unmapped once collected).  Nothing is forced
    to the platter: a mapping's stores are already in the page cache,
    and [`Buffered] writes back its dirty blocks without an [fsync].
    Either way the next [`Reopen] sees every write.  Idempotent. *)
