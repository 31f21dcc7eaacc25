(** Little-endian binary encoding over [bytes]: WAL records, wire
    messages, checkpoint state and metadata chunks.  {!Zcodec} reads and
    writes the same words over a mapping, where page frames live.
    Writers and readers raise on overflow, so a payload that exceeds its
    buffer fails loudly instead of corrupting its neighbours. *)

exception Overflow of string
(** Raised when an encoder exceeds its buffer or a decoder reads past
    the end of the block. *)

(** Appends primitive values to a bounded buffer. *)
module Writer : sig
  type t

  val u8 : t -> int -> unit
  (** Writes the low 8 bits. *)

  val i32 : t -> int -> unit
  (** Writes a signed 32-bit value.
      @raise Overflow if the value does not fit in 32 bits. *)

  val i64 : t -> int -> unit
  (** Writes a full OCaml native int as 64 bits. *)

  val bool : t -> bool -> unit

  val create : int -> t
  (** [create size] is a writer over a zero-filled buffer of [size] bytes. *)

  val pos : t -> int

  val contents : t -> bytes
  (** The full fixed-size buffer (trailing bytes are zero). *)
end

(** {1 CRC-32}

    The IEEE 802.3 checksum (polynomial [0xEDB88320], the zlib/PNG/
    Ethernet variant), computed by one C kernel shared with
    {!Zcodec.crc32}: a carry-less-multiply (PCLMULQDQ) fold on x86-64
    CPUs that report one, slicing-by-8 tables elsewhere and for the tail.
    Frames WAL records, checkpoint chunks and page frames, so torn or
    corrupted bytes are detected instead of silently decoded. *)

val crc32 : bytes -> pos:int -> len:int -> int
(** Checksum of [len] bytes starting at [pos]; the result fits 32 bits.
    @raise Invalid_argument if the range lies outside the buffer. *)

val crc32_update : int -> bytes -> pos:int -> len:int -> int
(** [crc32_update crc buf ~pos ~len] extends a running checksum, so a
    record can be checksummed in pieces: [crc32 b ~pos ~len] equals
    [crc32_update (crc32 b0) b1] over the concatenation. *)

val crc32_string : string -> int

val crc32_reference : bytes -> pos:int -> len:int -> int
(** {!crc32} by the slicing-by-8 tables alone, on every CPU: the
    reference the fold is tested against. *)

val crc32_folds : bool
(** Whether this CPU computes {!crc32} with the carry-less-multiply
    fold. *)

(** Consumes what a {!Writer} wrote, in the same order. *)
module Reader : sig
  type t

  val u8 : t -> int

  val i32 : t -> int
  (** Sign-extended from 32 bits. *)

  val i64 : t -> int
  val bool : t -> bool

  val skip : t -> int -> unit
  (** Step over [n] bytes. *)

  val create : ?pos:int -> ?len:int -> bytes -> t
  (** A reader over [len] bytes of the buffer from [pos] (default: all of
      it); reading past them raises {!Overflow}.  {!pos} is absolute.
      @raise Invalid_argument if the range lies outside the buffer. *)

  val pos : t -> int
end
