(** Zero-copy record accessors over memory-mapped slices.

    {!Codec} reads and writes through [bytes] buffers, which forces every
    page access on a mapped store to round-trip through an intermediate
    copy.  This module provides the same little-endian wire format over a
    [Bigarray.Array1] of chars — the type [Unix.map_file] yields — so
    MVSBT node fields are decoded from and encoded into the mapped page
    {e in place}.

    {!Writer} and {!Reader} satisfy {!Codec.WRITER}/{!Codec.READER}, so
    a layout written as a functor over those signatures produces the
    same bytes here as over [Codec]'s buffers, and {!crc32} agrees with
    [Codec.crc32] on equal contents.  [test_arena] pins both. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val get_u8 : buf -> int -> int
val set_u8 : buf -> int -> int -> unit

(** Words are little-endian, read and written with one load or store
    each (byte-swapped on a big-endian host).
    @raise Invalid_argument if the word does not lie inside the buffer. *)

val get_i32 : buf -> int -> int
(** Sign-extended — as [Codec.Reader.i32]. *)

val set_i32 : buf -> int -> int -> unit
(** The low 32 bits. *)

val get_i64 : buf -> int -> int
val set_i64 : buf -> int -> int -> unit

(** {2 Unchecked loads}

    For a scan that has checked its whole range once.  These are the
    compiler's primitives, so they compile to one load wherever they are
    used, across modules too. *)

external load64 : buf -> int -> int64 = "%caml_bigstring_get64u"
(** The 8 bytes at an offset, in host order, with no bounds check. *)

external bswap64 : int64 -> int64 = "%bswap_int64"
(** For a little-endian word on a big-endian host ([Sys.big_endian]). *)

val crc32 : buf -> pos:int -> len:int -> int
(** [Codec.crc32] over a mapped slice: the same C kernel.
    @raise Invalid_argument if the range lies outside the buffer. *)

val blit_to_bytes : buf -> int -> bytes -> int -> int -> unit
val blit_of_bytes : bytes -> int -> buf -> int -> int -> unit

module Writer : sig
  (** Writes directly into a slice of the mapped region; [Overflow] on
      running past the slice, mirroring [Codec.Writer]. *)

  include Codec.WRITER

  val create : buf -> off:int -> len:int -> t
  (** Writer over [len] bytes of [buf] starting at absolute offset [off].
      Positions reported by {!pos} are relative to [off]. *)

  val pos : t -> int
end

module Reader : sig
  (** Reads directly out of a slice of the mapped region. *)

  include Codec.READER

  val create : buf -> off:int -> len:int -> t
  val pos : t -> int
end
