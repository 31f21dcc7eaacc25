(** Write-ahead log: the delta-durability primitive.

    An append-only file: a 16-byte header, a {!Storage.Frame.Word} whose
    integer is the version, then one {!Storage.Frame} per record.  The
    engine logs every update here {e before} applying it to the MVSBT
    pair, so the warehouse state is always recoverable as

    {v latest checkpoint + replay of the log tail v}

    {!replay} walks the records from the start and stops {e cleanly} at
    the first torn or corrupt frame — a crash mid-append loses at most
    the record being written, never the prefix — then truncates the file
    back to the last valid record so subsequent appends extend a
    well-formed log.

    Sync policy controls when [fsync] is issued: [Never] (the OS decides,
    fastest, loses recent tail on power failure), [Every_n n] (group
    commit: one fsync per [n] appends), [Always] (classic WAL, one fsync
    per record).

    All I/O goes through a {!Storage.Vfs.file} record of closures so the
    {!Faulty} layer can inject short, dropped, or duplicated writes and
    crashes at arbitrary byte offsets — that is what makes recovery
    testable. *)

type sync_policy =
  | Never  (** Let the OS write back whenever it likes. *)
  | Every_n of int  (** Group commit: fsync once per [n] appends. *)
  | Always  (** Fsync after every append. *)

val pp_sync_policy : Format.formatter -> sync_policy -> unit

val header_bytes : int
(** 16: the log's header (magic, version, CRC) precedes every frame. *)

val header_fault : Storage.Vfs.file -> string option
(** What is wrong with the whole header of a log file (its CRC, its
    magic or its version); [None] for a good header or a short one,
    which {!open_log} starts afresh. *)

exception Crashed
(** Alias of {!Storage.Vfs.Crashed}: raised by a {!Faulty} file once its
    fault triggers; every later operation on the crashed file raises it
    too (the process is "dead"). *)

(** Counters in the style of {!Storage.Io_stats}: every log charges its
    operations to a sink the caller can read, reset, and print. *)
module Stats : sig
  type t

  val create : unit -> t

  val appends : t -> int
  (** Records appended over the log's lifetime. *)

  val bytes : t -> int
  (** Frame bytes appended (header and payload). *)

  val fsyncs : t -> int

  val replayed : t -> int
  (** Records successfully replayed by {!Wal.replay}. *)

  val dropped_bytes : t -> int
  (** Bytes of torn or corrupt tail discarded by {!Wal.replay}. *)

  val truncations : t -> int
  (** Log resets: checkpoint truncations plus short-header recoveries. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 The byte-level file layer} *)

type file = Storage.Vfs.file
(** The shared VFS file abstraction; see {!Storage.Vfs} for the record
    fields and the documented disk model. *)

val os_file : path:string -> file
(** [Storage.Vfs.os] in [`Log] mode: [open(2)] with
    [O_RDWR|O_CREAT|O_APPEND] (no truncation; appends are atomic at
    end-of-file), [fsync] for [f_sync].  Takes an advisory [lockf] lock
    on [<path>.lock], held until the file closes, so two {e processes}
    cannot append to the same log — the second opener fails.  (POSIX locks do not conflict within one
    process, so reopening after a simulated in-process crash still
    works.)
    @raise Failure if another process holds the log. *)

(** Fault injection — a thin façade over {!Storage.Vfs.Fault}: wrap a
    {!file} so that once a byte budget is exhausted the write in flight
    is torn at exactly that boundary (or dropped, or duplicated,
    depending on [mode]) and {!Crashed} is raised — simulating a kill at
    an arbitrary byte offset of the log.  All subsequent operations raise
    {!Crashed}. *)
module Faulty : sig
  type handle = Storage.Vfs.Fault.handle

  val wrap : ?mode:Storage.Vfs.Fault.mode -> fail_after:int -> file -> handle * file
  (** [wrap ~fail_after f] crashes once [fail_after] more bytes have been
      written through the wrapper ([f_append] and [f_pwrite] both count).
      [mode] (default [Torn]) chooses what happens to the write that
      crosses the budget: torn to a prefix, dropped entirely, or written
      twice (a retried write).  Reads are unaffected until the crash
      (recovery reopens the {e underlying} file, as a restarted process
      would). *)

  val crashed : handle -> bool
  val written : handle -> int
  (** Bytes that reached the underlying file before (or at) the crash. *)
end

(** {1 The log} *)

type t

val open_log :
  ?policy:sync_policy ->
  ?stats:Stats.t ->
  ?telemetry:Telemetry.Tracer.t ->
  ?path:string ->
  file ->
  t
(** Open a log over [file].  A file shorter than a header gets a fresh
    one, fsynced before any record can follow it (an fsync
    {!Stats.fsyncs} does not count), so a crash can leave only a short
    header.  A valid header is accepted in place, its records left to
    {!replay}; a whole header that fails its check is refused, [file]
    closed and left as it is.  [policy] defaults to [Every_n 32].
    [path] names the log in typed errors.  [telemetry] (default
    {!Telemetry.Tracer.noop}) receives a span per {!append} (with the
    framed byte count), fsync ([wal.sync] — explicit or group commit),
    {!replay} and {!truncate}.
    @raise Storage.Storage_error.Io with [Checksum_mismatch] (detail
    ["header: ..."]) on a whole header that fails its check, or any
    error writing a fresh one. *)

val open_path :
  ?policy:sync_policy -> ?stats:Stats.t -> ?telemetry:Telemetry.Tracer.t -> string -> t
(** [open_log] over [os_file]. *)

val replay : t -> (Storage.Codec.Reader.t -> unit) -> int
(** Walk every valid record from the start, calling back with a reader
    positioned at the payload.  Stops at the first torn or corrupt frame
    and truncates the log there.  Returns the number of records replayed.
    Must be called before the first {!append} (the log tracks this).
    @raise Invalid_argument if records were already appended. *)

val append : t -> ?pos:int -> ?len:int -> bytes -> (unit, Storage.Storage_error.t) result
(** Frame and append one record, then apply the sync policy.  [pos]/[len]
    default to the whole buffer.

    [Error] always means {e not logged}: on any I/O failure — including
    an append that landed but whose group-commit fsync failed — the log
    is rolled back to its pre-append length before the error is
    returned, so recovery can never resurrect a record the caller was
    told failed.  If the rollback itself fails the log is {e poisoned}
    ({!broken}) and every later append returns a [Wal_poisoned] error
    until {!truncate} resets the file.  {!Crashed} still raises through
    (the simulated process is dead; there is nobody to return to).
    @raise Invalid_argument on an empty or oversized payload. *)

val sync : t -> (unit, Storage.Storage_error.t) result
(** Force an [fsync] now, regardless of policy. *)

val truncate : t -> (unit, Storage.Storage_error.t) result
(** Reset the log to just its header (checkpoint took over the prefix)
    and fsync, so the truncation itself is durable.  Clears {!broken}. *)

val broken : t -> bool
(** True after a failed append could not be rolled back; see {!append}. *)

val unsynced : t -> int
(** Appends accepted since the last fsync — the records a crash right now
    could lose.  Zero immediately after {!sync}, {!truncate}, or an
    [Always]-policy append; what a group commit checks to skip a
    redundant fsync. *)

val size : t -> int
(** Current file size in bytes, header included. *)

val policy : t -> sync_policy
val stats : t -> Stats.t
val close : t -> unit

val max_record_bytes : int
(** Sanity bound on one payload; {!replay} treats larger length prefixes
    as corruption. *)

(** {1 Live tailing}

    {!replay} is a recovery primitive: the first frame it cannot finish
    is declared a torn tail and truncated away.  A {e live} reader — a
    replication shipper following a log that is still being appended —
    must not do that: a frame whose last bytes have not landed yet looks
    exactly like one whose writer died mid-append, and only the passage
    of time distinguishes them.  {!Tail.poll} therefore never truncates
    and never errors at end-of-file: an incomplete frame is
    {!Tail.Need_more} (poll again once the file has grown), and only a
    frame that is {e fully present} but fails its checksum — bytes no
    future append can make valid — is {!Tail.Corrupt}. *)
module Tail : sig
  type event =
    | Frame of bytes  (** One complete record payload, CRC-verified. *)
    | Need_more
        (** Clean end-of-file, or a frame whose bytes have not all landed
            yet — poll again later.  A tailer that sees [Need_more]
            forever past known-durable data is looking at a torn tail;
            deciding when to give up is the caller's policy. *)
    | Corrupt of string
        (** A fully-present frame failed its checksum, or a length prefix
            is impossible: real corruption, no amount of waiting helps. *)

  type t

  val create : ?from:int -> file -> t
  (** Tail [file] starting at byte offset [from] (clamped to skip the
      log header; default: just past the header).  The file should be a
      second read handle on a live log (POSIX locks do not conflict
      within one process) or the log's own {!Storage.Vfs} file. *)

  val open_path : string -> t
  (** [create] over {!os_file}. *)

  val poll : t -> event
  (** Read the next complete record, if one is fully on disk.  Detects a
      checkpoint truncation (file shrank below the read offset) and
      restarts after the header — records read before the truncation were
      covered by the checkpoint by construction. *)

  val close : t -> unit
end
