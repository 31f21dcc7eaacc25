(** Where a durable tree keeps its page frames.

    Both kinds serve from one store, {!Page_store.Mmap}: pages in
    CRC-framed frames, which a query scans in place, a base holding the
    committed checkpoint's frames and an overlay holding the frames of
    pages sealed since, with the pages that can still change held
    decoded.  The kinds differ only in where the frames are.  [Memory]
    is that store over RAM: the open copies each checkpoint frame into a
    RAM image as it verifies it, and the overlay is a RAM arena, so the
    store touches no file.  [Mmap] maps the committed checkpoint
    read-only and keeps its overlay in a mapped {!Arena} file (where
    mapping is unavailable, both are RAM images, as under [Memory]).  So
    under either, a page is on disk once, in the checkpoint.

    The kind is the one selector of where frames live: a durable open
    maps [Memory] to the arena's [`Buffered] backing and [Mmap] to
    [`Auto], and takes no backing of its own.  [Mmap] reads its files
    through the OS, so it needs the OS filesystem; under a synthetic
    {!Vfs.t} only [Memory] applies.

    Selection is operational, not semantic: both kinds answer queries
    identically and produce byte-identical checkpoint snapshots
    (property-tested); they differ in RAM footprint and in whether page
    reads go through the OS page cache. *)

type t = Memory | Mmap

val to_string : t -> string
(** ["memory"], ["mmap"]. *)

val of_string : string -> t option
(** Also accepts ["mem"] for [Memory], and ["file"] — the name of a
    retired pread/pwrite store with the same block layout — for
    [Mmap]. *)

val all : t list
(** In declaration order: [Memory; Mmap]. *)

val backing : t -> [ `Auto | `Map | `Buffered ]
(** The {!Arena} backing a durable open gives the kind's overlays:
    [`Buffered] for [Memory], [`Auto] for [Mmap]. *)

val pp : Format.formatter -> t -> unit
