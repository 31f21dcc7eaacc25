(** Which page backend a durable tree keeps its working set on.

    [Memory] is the seed configuration: pages live in a growable in-RAM
    array ({!Page_store.Mem}), the working set is rebuilt from
    snapshot + WAL at open.  [Mmap] keeps CRC-framed pages in one page
    file and reads/writes records in place through {!Zcodec}
    ({!Page_store.Mmap} over an {!Arena}, which maps the file or, where
    mapping is unavailable, keeps a buffered image of it).

    Selection is operational, not semantic: both backends answer
    queries identically and produce byte-identical checkpoint snapshots
    (property-tested); they differ in RAM footprint, open latency, and
    how page touches turn into physical I/O. *)

type t = Memory | Mmap

val to_string : t -> string
(** ["memory"], ["mmap"]. *)

val of_string : string -> t option
(** Also accepts ["mem"] for [Memory], and ["file"] — the name of a
    retired pread/pwrite store with the same block layout — for
    [Mmap]. *)

val all : t list
(** In declaration order: [Memory; Mmap]. *)

val pp : Format.formatter -> t -> unit
