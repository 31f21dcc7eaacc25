(** Which page backend a durable tree keeps its working set on.

    [Memory] is the seed configuration: pages live in a growable in-RAM
    array ({!Page_store.Mem}), the working set is rebuilt from
    snapshot + WAL at open.  [File] frames CRC-checked pages into a
    regular file through {!Vfs} pread/pwrite ({!Page_store.File}).
    [Mmap] maps the page file and reads/writes records in place through
    {!Zcodec} ({!Page_store.Mmap} over an {!Arena}).

    Selection is operational, not semantic: all three backends answer
    queries identically and produce byte-identical checkpoint snapshots
    (property-tested); they differ in RAM footprint, open latency, and
    how page touches turn into physical I/O. *)

type t = Memory | File | Mmap

val to_string : t -> string
(** ["memory"], ["file"], ["mmap"]. *)

val of_string : string -> t option

val all : t list
(** In declaration order: [Memory; File; Mmap]. *)

val pp : Format.formatter -> t -> unit
