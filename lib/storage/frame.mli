(** The frame: the one unit of every checksummed byte this program
    stores or sends.

    {v
    +----------+-----------+----------------------+
    | len  u32 | crc32 u32 | payload (len bytes)  |
    +----------+-----------+----------------------+
    v}

    Little-endian, the CRC ({!Codec.crc32}) over the payload only.  A WAL
    record, a checkpoint chunk, a page of {!Page_store.Mmap} (whose
    checkpoint chunk is the same frame), a wire message and each WAL
    record inside a wire [Wal_frames] message are all this frame, sealed
    and checked here and nowhere else.  Each caller keeps only its policy
    for a frame that fails: recovery truncates a torn log tail, a live
    tail waits for more bytes, an open refuses, the wire answers a typed
    error.  This module also reads and writes framed files and word
    files. *)

val header_bytes : int
(** The length and the CRC: 8 bytes. *)

(** What a check finds, in the order it looks. *)
type status =
  | Whole  (** The frame lies in the window and its payload matches its CRC. *)
  | Short  (** The window ends inside the frame: torn, or still being written. *)
  | Bad_length  (** A length of 0 or past the bound: nothing after it can be found. *)
  | Bad_crc  (** The frame is all there, and its payload fails its CRC. *)

val length : bytes -> int -> int
(** The length field of the frame at an offset, unsigned. *)

val check : bytes -> pos:int -> avail:int -> max_len:int -> status
(** Classify the frame at [pos], [avail] bytes of the buffer from [pos]
    being in the window, its payload 1 to [max_len] bytes long.
    Allocates nothing.
    @raise Invalid_argument if the window lies outside the buffer. *)

val seal : bytes -> pos:int -> len:int -> unit
(** Fill in the header at [pos] of the frame whose [len]-byte payload
    follows it. *)

val make : bytes -> pos:int -> len:int -> bytes
(** A new frame holding [len] bytes of a buffer from [pos]. *)

(** The same over a {!Zcodec.buf}, where the page store keeps its
    frames and checks one on every scan. *)
module Mapped : sig
  val check : Zcodec.buf -> pos:int -> avail:int -> max_len:int -> status
  val seal : Zcodec.buf -> pos:int -> len:int -> unit
end

(** {1 Framed files}

    A magic naming the format (or a header of the caller's), then frames
    back to back, each written with one append for its header and one
    for its payload, so {!Vfs.Memory} journals each as a disk
    operation. *)

val max_chunk : int
(** The largest payload of a checkpoint file's frame (1 GiB). *)

val writer : int -> Codec.Writer.t
(** A writer with room for an [n]-byte payload after a blank header. *)

val append : Vfs.file -> Codec.Writer.t -> unit
(** Seal what a {!writer} holds after its header and append the frame. *)

val append_frame : Vfs.file -> bytes -> unit
(** Append a buffer that is exactly one frame. *)

(** Reads a framed file in order through one buffer, refilled by large
    preads and grown only for a frame larger than itself.  The file may
    grow while it is read: its end is looked for afresh each time. *)
module Reader : sig
  type t

  type frame = {
    offset : int;  (** File offset of the frame's header. *)
    index : int;  (** Frame number, from 0 where the reader started. *)
    buf : bytes;
    pos : int;
        (** The frame is [buf]'s bytes [pos .. pos + header_bytes + len - 1],
            valid until the next read. *)
    len : int;  (** Payload length. *)
  }

  type event =
    | Whole of frame
    | Bad_crc of frame  (** The reader steps past it. *)
    | Bad_length of int  (** At this offset; the reader stays there. *)
    | Torn of int
        (** The file ends inside the frame at this offset; the reader
            stays there, and reads the frame afresh next time. *)
    | End  (** The file ends where a frame would start. *)

  val create : ?max_len:int -> ?from:int -> path:string -> Vfs.file -> t
  (** Read [file] from offset [from] (default 0), its payloads at most
      [max_len] bytes (default {!max_chunk}); [path] names it in errors. *)

  val with_file : Vfs.t -> path:string -> magic:string -> (t -> 'a) -> 'a
  (** Open [path], check that it starts with [magic], and read on from
      there; the file is closed however [k] ends.  A file of another
      format is refused by name, this format's predecessors (the same
      [magic] up to its last [-]) included.
      @raise Failure on a missing, foreign or older-format file. *)

  val next : t -> event

  val offset : t -> int
  (** The offset of the next frame, which {!seek} sets. *)

  val seek : t -> int -> unit

  val size : t -> int
  (** The file's size when last looked at. *)

  val whole : t -> frame
  (** The next frame, which must be whole.
      @raise Storage_error.Io with [Checksum_mismatch] (detail
      ["chunk N"]) if it fails its CRC.
      @raise Failure if the file ends, or the frame is torn or its length
      bad. *)

  val payload : t -> Codec.Reader.t
  (** The payload of {!whole}. *)

  val finish : t -> unit
  (** @raise Failure unless the file ends here. *)
end

(** {1 Word files}

    A magic, one little-endian integer of [width] bytes (4 or 8), then
    the CRC of both: the checkpoint pointer and the replica epoch, each a
    file replaced atomically, and the WAL's header. *)
module Word : sig
  val encode : magic:string -> width:int -> int -> bytes

  val decode : magic:string -> width:int -> bytes -> (int, string) result
  (** The integer, or what is wrong: the size, the CRC or the magic. *)

  val store : Vfs.t -> path:string -> magic:string -> int -> unit
  (** Replace the file with an 8-byte word file
      ({!Vfs.write_file_atomic}), then fsync its directory. *)

  val load : Vfs.t -> path:string -> magic:string -> int option
  (** The integer of an 8-byte word file; [None] if there is none.
      @raise Failure naming the file and what is wrong with it. *)
end
