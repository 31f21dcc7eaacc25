(** Which page backend a durable tree keeps its working set on.

    [Memory] is the seed configuration: pages live in a growable in-RAM
    array ({!Page_store.Mem}), the working set is rebuilt from
    snapshot + WAL at open.  [Mmap] reads CRC-framed pages in place
    through {!Zcodec} from the committed checkpoint, mapped read-only,
    and keeps the pages written since in an overlay {!Arena}
    ({!Page_store.Mmap}; where mapping is unavailable, both are RAM
    images).  So its pages are on disk once, in the checkpoint.

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
