(** Little-endian words over memory-mapped slices.

    {!Codec} reads and writes through [bytes] buffers, which forces every
    page access on a mapped store to round-trip through an intermediate
    copy.  This module reads and writes the same little-endian words in a
    [Bigarray.Array1] of chars — the type [Unix.map_file] yields — so
    page frames are narrowed into, scanned and widened from the mapped
    bytes {e in place} (the MVSBT's layout is [Mvsbt]'s [Record_codec]).
    A word written here reads back through [Codec.Reader] from a copy of
    the bytes, and {!crc32} agrees with [Codec.crc32] on equal contents;
    [test_arena] pins both. *)

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

(** {2 Unchecked loads and stores}

    For a scan, or an encoder, that has checked its whole range once.
    These are the compiler's primitives, so they compile to one load or
    store wherever they are used, across modules too. *)

external load64 : buf -> int -> int64 = "%caml_bigstring_get64u"
(** The 8 bytes at an offset, in host order, with no bounds check. *)

external store64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
(** Store 8 bytes at an offset, in host order, with no bounds check. *)

external bswap64 : int64 -> int64 = "%bswap_int64"
(** For a little-endian word on a big-endian host ([Sys.big_endian]). *)

val crc32 : buf -> pos:int -> len:int -> int
(** [Codec.crc32] over a mapped slice: the same C kernel.
    @raise Invalid_argument if the range lies outside the buffer. *)

val blit_to_bytes : buf -> int -> bytes -> int -> int -> unit
(** [blit_to_bytes src src_off dst dst_off len] copies [len] bytes of
    [src] from [src_off] into [dst] at [dst_off]: one [memcpy], after
    both ranges are checked.
    @raise Invalid_argument, before any byte moves, if an offset or
    [len] is negative or either range runs past its buffer. *)

val blit_of_bytes : bytes -> int -> buf -> int -> int -> unit
(** The same copy the other way, from bytes into a mapped slice. *)

val blit : buf -> int -> buf -> int -> int -> unit
(** [blit src src_off dst dst_off len] copies [len] bytes between mapped
    slices, the same buffer's included: one [memmove], so the ranges may
    overlap.
    @raise Invalid_argument, before any byte moves, if either range runs
    past its buffer. *)
