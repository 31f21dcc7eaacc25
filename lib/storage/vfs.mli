(** The virtual file system all disk writers go through.

    Every durable artifact in this code base — the WAL, checkpoint
    snapshots (which a mapped {!Page_store.Mmap} also reads in place,
    through the OS, once the open has verified them through a {!t}), and
    the checkpoint pointer — performs its byte-level I/O through a
    {!t}.
    Three implementations share the interface:

    - {!os} is the real thing (Unix file descriptors, [fsync], atomic
      [rename]);
    - {!Memory} keeps files in memory {e and journals every state-changing
      operation}, which is what the crash-state explorer
      ([lib/faultsim]) replays to enumerate legal post-crash disk images;
    - {!Fault} wraps any {!file} with a byte budget after which the write
      in flight is torn, dropped, or duplicated and the "process" dies.

    The disk model the journal encodes (and recovery is tested against):

    - [pwrite]/[append]/[truncate] on a file are {e volatile} until the
      next [fsync] of that file; a crash may lose, tear, or reorder them;
    - [fsync] of a file makes all its prior data operations durable and —
      as on ext4 — also persists the file's directory entry;
    - [rename] is atomic (a crash sees the old name or the new name,
      never a mix) but needs an [fsync] of the parent directory to be
      guaranteed durable;
    - [remove] likewise becomes durable at the next directory [fsync]. *)

exception Crashed
(** Raised by a {!Fault} file once its fault triggers; every later
    operation on the crashed file raises it too (the process is "dead"). *)

type file = {
  f_pread : int -> bytes -> int -> int -> int;
      (** [f_pread off buf pos len] reads up to [len] bytes at absolute
          offset [off]; returns the number read (0 at EOF). *)
  f_pwrite : int -> bytes -> int -> int -> unit;
      (** [f_pwrite off buf pos len] writes at absolute offset [off],
          zero-filling any gap past EOF. *)
  f_append : bytes -> int -> int -> unit;
      (** [f_append buf pos len] appends at end-of-file.  May raise
          {!Crashed} after writing a prefix (torn write) under {!Fault}. *)
  f_size : unit -> int;
  f_sync : unit -> unit;
  f_truncate : int -> unit;
  f_close : unit -> unit;
}

type open_mode =
  [ `Create  (** Create or truncate. *)
  | `Reopen  (** Open an existing file; fails if absent. *)
  | `Log
    (** Create if absent, position appends at EOF ([O_APPEND] on the real
        filesystem, where an advisory lock on [<path>.lock], held until
        this handle closes, also rejects a second process opening the
        same log).  Readers of a live log open it [`Reopen]. *) ]

type t = {
  v_open : open_mode -> string -> file;
  v_rename : string -> string -> unit;  (** Atomic; see the disk model. *)
  v_remove : string -> unit;
  v_exists : string -> bool;
  v_readdir : string -> string array;
  v_sync_dir : string -> unit;
}

val os : t
(** The real filesystem.  Syscalls interrupted by [EINTR] are retried in
    place and short [read]/[write] transfers are looped to completion;
    any other Unix failure surfaces as a typed [Storage_error.Io] — with
    the exception of "no such file" on open/rename/remove, which stays a
    [Sys_error] because absence is a condition recovery paths branch on,
    not an I/O fault. *)

val read_file : t -> string -> bytes
(** Whole-file read. @raise Failure on a short read, [Sys_error]/[Failure]
    if absent. *)

val write_file_atomic : t -> path:string -> bytes -> len:int -> unit
(** Write [len] bytes to [path ^ ".tmp"], [fsync], then atomically rename
    over [path] — the shared commit idiom for sidecars and pointers.  The
    caller adds {!t.v_sync_dir} when the rename itself must be durable. *)

val sync_path : t -> string -> unit
(** Open [path] and [fsync] it. *)

(** Byte-budget fault injection over any {!file}. *)
module Fault : sig
  type mode =
    | Torn  (** The crossing write lands as a prefix (default). *)
    | Dropped  (** The crossing write is lost entirely. *)
    | Duplicated  (** The crossing write lands twice (a retried write). *)

  type handle

  val wrap : ?mode:mode -> fail_after:int -> file -> handle * file
  (** [wrap ~fail_after f] crashes once [fail_after] more bytes have been
      written through the wrapper ([f_append] and [f_pwrite] both count).
      Reads are unaffected until the crash; afterwards every operation
      raises {!Crashed}. *)

  val crashed : handle -> bool

  val written : handle -> int
  (** Bytes that reached the underlying file before (or at) the crash. *)
end

(** In-memory files plus an operation journal, the substrate of the
    crash-state explorer. *)
module Memory : sig
  type op =
    | Create of string
    | Pwrite of { path : string; off : int; data : string }
    | Truncate of string * int
    | Sync of string
    | Rename of string * string
    | Remove of string
    | Sync_dir of string

  val pp_op : Format.formatter -> op -> unit

  type fs

  val create : unit -> fs
  val vfs : fs -> t

  val ops : fs -> op list
  (** Every state-changing operation since {!create}, in program order.
      Reads and closes are not journalled (they change no disk state). *)

  val op_count : fs -> int

  val contents : fs -> (string * string) list
  (** Current (fully-applied) file contents, sorted by path. *)

  val norm : string -> string
  (** The path normalisation the journal uses ("./x" aliases "x"). *)
end

(** Errno-class fault injection: fail the k-th syscall of a run.

    Where {!Fault} models a {e crash} (the process dies mid-write), this
    wrapper models the kernel {e returning an error} from a single
    syscall while the process keeps running — the substrate of
    [Faultsim.Scenario.errno] (the [errsweep] preset of [rta_cli
    fault-matrix]), which sweeps k over a whole trace. *)
module Inject : sig
  type err_class =
    | Enospc  (** Allocation failure — writes, creations, renames. *)
    | Eio  (** Device error — any syscall. *)
    | Eintr  (** Interruption — any syscall. *)
    | Short  (** Short transfer — reads, writes, appends. *)

  val pp_class : Format.formatter -> err_class -> unit
  val class_name : err_class -> string
  val class_of_string : string -> err_class option

  val all_classes : err_class list
  (** In declaration order: [Enospc; Eio; Eintr; Short]. *)

  type handle

  val wrap :
    ?stats:Io_stats.t -> persistent:bool -> fail_at:int -> cls:err_class -> t -> handle * t
  (** [wrap ~persistent ~fail_at ~cls vfs] counts every syscall issued
      through the wrapper ([v_open]/[v_rename]/[v_remove]/[v_sync_dir]
      and all file data operations except [f_size]/[f_close]) and raises
      a typed [Storage_error.Io] from the first class-applicable syscall
      whose index reaches [fail_at] — from every one thereafter when
      [persistent] (how a full disk behaves, vs. a one-shot glitch).  A
      firing syscall has {e no side effect}, so retrying it re-issues the
      operation exactly.  Each fired fault bumps
      [Io_stats.errors_injected] on [stats]. *)

  val syscalls : handle -> int
  (** Counted syscalls so far (including any that fired). *)

  val injected : handle -> int
  val triggered : handle -> bool

  val arm : handle -> fail_at:int -> unit
  (** Re-aim the fault at a later syscall index and re-arm a one-shot
      wrapper — lets a test run a clean prefix, read {!syscalls}, and
      target a precise phase of the trace. *)
end

val with_retry : ?stats:Io_stats.t -> ?policy:Retry.policy -> t -> t
(** Wrap every operation of a vfs in {!Retry.run}: transient
    [Storage_error.Io] failures ([EINTR], [EIO], short transfers) are
    retried with bounded exponential backoff, bumping
    [Io_stats.retries]; permanent errors and {!Crashed} propagate
    untouched.  [f_close] is never retried. *)

val with_telemetry : Telemetry.Tracer.t -> t -> t
(** Emit a tracing span per syscall ([vfs.pread], [vfs.pwrite],
    [vfs.append], [vfs.fsync], [vfs.truncate], [vfs.open], [vfs.rename],
    [vfs.remove], [vfs.sync_dir]) carrying the path and, for data
    operations, the byte length.  Returns [vfs] itself when the tracer is
    disabled, so an uninstrumented stack pays nothing. *)
