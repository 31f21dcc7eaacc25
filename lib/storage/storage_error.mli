(** Typed storage errors: the error channel of the I/O stack.

    Every syscall the {!Vfs} layer issues can fail — [ENOSPC] on a full
    disk, [EIO] on failing media, [EINTR] under signal load, or a short
    read/write.  Instead of leaking raw [Unix.Unix_error] exceptions out
    of the middle of an insert or checkpoint, the storage stack converts
    each failure into a {!t} carrying the operation, the path, an errno
    class, and a transient/permanent classification:

    - {e transient} errors ([EINTR], short transfers, [EIO]) are worth
      retrying — {!Retry.run} and {!Vfs.with_retry} do so with bounded
      exponential backoff;
    - {e permanent} errors ([ENOSPC], unknown errnos, a poisoned log, a
      read-only engine) are surfaced immediately; the {!Durable} engine
      reacts by degrading to read-only service instead of dying.

    Inside the stack the error travels as the {!Io} exception (so the
    deep page/tree code stays exception-based); the public entry points
    of [Wal], [Durable], and [Rta] catch it and return
    [(_, Storage_error.t) result]. *)

(** The syscall (or logical operation) that failed. *)
type op =
  | Open
  | Pread
  | Pwrite
  | Append
  | Fsync
  | Truncate
  | Close
  | Rename
  | Remove
  | Readdir
  | Fsync_dir

val pp_op : Format.formatter -> op -> unit

(** The failure class.  [Short_read]/[Short_write] model a transfer that
    moved fewer bytes than requested at the syscall level (the OS VFS
    loops these away; the injector surfaces them to test the loop).
    [Read_only_store] and [Wal_poisoned] are engine-level rejections that
    reuse the same channel so callers handle one error type. *)
type errno =
  | Enospc  (** No space left on device — permanent until space is freed. *)
  | Eio  (** Device-level I/O error — transient, retried with backoff. *)
  | Eintr  (** Interrupted syscall — transient, always safe to retry. *)
  | Short_read of { expected : int; got : int }
  | Short_write of { expected : int; got : int }
  | Read_only_store
      (** The {!Durable} engine is in its [Read_only] health state:
          updates are rejected, queries keep serving. *)
  | Wal_poisoned
      (** A failed append could not be rolled back; the log refuses
          further appends until recovery rewrites it. *)
  | Checksum_mismatch
      (** Stored bytes fail their CRC32 frame: the medium returned data
          other than what was written.  Rereading cannot help. *)
  | Errno of string  (** Any other [Unix.error], by name. *)

val pp_errno : Format.formatter -> errno -> unit

type t = {
  op : op;
  path : string;
  errno : errno;
  transient : bool;
      (** Whether a retry may succeed.  Defaults from the errno class
          (see {!transient_of_errno}) but can be overridden — e.g. a
          short read caused by a truncated file is permanent. *)
  detail : string option;
}

exception Io of t
(** How a {!t} travels through the exception-based interior of the
    storage stack.  Raised by {!Vfs.os} on any Unix failure (except
    "no such file", which stays a [Sys_error] for compatibility) and by
    the {!Vfs.Inject} fault injector. *)

val v : ?detail:string -> ?transient:bool -> op:op -> path:string -> errno -> t
(** Build an error; [transient] defaults to {!transient_of_errno}. *)

val transient_of_errno : errno -> bool
(** [Eintr], [Eio], and short transfers are transient; everything else
    is permanent. *)

val of_unix : op:op -> path:string -> Unix.error -> t
(** Classify a raw Unix errno ([ENOSPC]/[EIO]/[EINTR] map to their typed
    classes, the rest to [Errno]). *)

val raise_io : ?detail:string -> ?transient:bool -> op:op -> path:string -> errno -> 'a

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching {!Io} into [Error].  The boundary adapter the
    result-typed entry points are built from.  Other exceptions (caller
    bugs, [Vfs.Crashed]) pass through untouched. *)

val ok_exn : ('a, t) result -> 'a
(** Unwrap, re-raising {!Io} on [Error] — for call sites that still want
    exceptional control flow (tests, examples). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
