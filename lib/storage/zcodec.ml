type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let get_u8 (b : buf) i = Char.code (Bigarray.Array1.get b i)
let set_u8 (b : buf) i v = Bigarray.Array1.set b i (Char.chr (v land 0xff))

(* Little-endian multi-byte accessors, one load or store each through
   the compiler's bigstring primitives (byte-swapped on a big-endian
   host), behind a bounds check of the whole word.  Formats match
   {!Codec} bit for bit. *)

external load32 : buf -> int -> int32 = "%caml_bigstring_get32u"
external load64 : buf -> int -> int64 = "%caml_bigstring_get64u"
external store32 : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"
external store64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Unchecked: the caller has checked [i .. i + 3] (or [+ 7]). *)
let unsafe_get_i32 b i =
  (* [Int32.to_int] sign-extends, as [Codec.Reader.i32] does. *)
  Int32.to_int (if Sys.big_endian then bswap32 (load32 b i) else load32 b i)

(* The value is an OCaml int (63-bit); the top bit of the 64 is lost as
   [Int64.to_int] loses it, as in [Codec.Reader.i64]. *)
let unsafe_get_i64 b i =
  Int64.to_int (if Sys.big_endian then bswap64 (load64 b i) else load64 b i)

let unsafe_set_i32 b i v =
  let v = Int32.of_int v in
  store32 b i (if Sys.big_endian then bswap32 v else v)

let unsafe_set_i64 b i v =
  let v = Int64.of_int v in
  store64 b i (if Sys.big_endian then bswap64 v else v)

let check (b : buf) i n =
  if i < 0 || i > Bigarray.Array1.dim b - n then invalid_arg "Zcodec: word outside buffer"

let get_i32 b i =
  check b i 4;
  unsafe_get_i32 b i

let set_i32 b i v =
  check b i 4;
  unsafe_set_i32 b i v

let get_i64 b i =
  check b i 8;
  unsafe_get_i64 b i

let set_i64 b i v =
  check b i 8;
  unsafe_set_i64 b i v

(* CRC-32 (IEEE 802.3) through {!Codec}'s C kernel. *)
external crc32_bigarray : int -> buf -> int -> int -> int = "rta_crc32_bigarray"
  [@@noalloc]

let crc32 (b : buf) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Zcodec.crc32: range outside buffer";
  crc32_bigarray 0 b pos len

(* One [memcpy] each, behind a bounds check of both ranges written, as
   [crc32]'s is, so that no sum can wrap: the C side checks nothing. *)
external unsafe_blit_to_bytes : buf -> int -> bytes -> int -> int -> unit
  = "rta_blit_bigarray_bytes"
  [@@noalloc]

external unsafe_blit_of_bytes : bytes -> int -> buf -> int -> int -> unit
  = "rta_blit_bytes_bigarray"
  [@@noalloc]

let blit_to_bytes (src : buf) src_off dst dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off > Bigarray.Array1.dim src - len
     || dst_off > Bytes.length dst - len
  then invalid_arg "Zcodec.blit_to_bytes: range outside buffer";
  unsafe_blit_to_bytes src src_off dst dst_off len

let blit_of_bytes src src_off (dst : buf) dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off > Bytes.length src - len
     || dst_off > Bigarray.Array1.dim dst - len
  then invalid_arg "Zcodec.blit_of_bytes: range outside buffer";
  unsafe_blit_of_bytes src src_off dst dst_off len

external unsafe_blit : buf -> int -> buf -> int -> int -> unit = "rta_blit_bigarray"
  [@@noalloc]

let blit (src : buf) src_off (dst : buf) dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off > Bigarray.Array1.dim src - len
     || dst_off > Bigarray.Array1.dim dst - len
  then invalid_arg "Zcodec.blit: range outside buffer";
  unsafe_blit src src_off dst dst_off len
