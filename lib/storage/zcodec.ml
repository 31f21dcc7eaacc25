type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let get_u8 (b : buf) i = Char.code (Bigarray.Array1.get b i)
let set_u8 (b : buf) i v = Bigarray.Array1.set b i (Char.chr (v land 0xff))

(* Little-endian multi-byte accessors, composed a byte at a time: the
   stdlib offers no [Bytes]-style getters over char bigarrays, and going
   through an intermediate [bytes] is exactly what this module exists to
   avoid.  Formats match {!Codec} bit for bit. *)

let get_i32 (b : buf) i =
  let v =
    get_u8 b i
    lor (get_u8 b (i + 1) lsl 8)
    lor (get_u8 b (i + 2) lsl 16)
    lor (get_u8 b (i + 3) lsl 24)
  in
  (* Sign-extend from 32 bits, as [Codec.Reader.i32] does via Int32. *)
  (v lsl 31) asr 31

let set_i32 (b : buf) i v =
  set_u8 b i v;
  set_u8 b (i + 1) (v lsr 8);
  set_u8 b (i + 2) (v lsr 16);
  set_u8 b (i + 3) (v lsr 24)

let get_i64 (b : buf) i =
  let lo =
    get_u8 b i
    lor (get_u8 b (i + 1) lsl 8)
    lor (get_u8 b (i + 2) lsl 16)
    lor (get_u8 b (i + 3) lsl 24)
  in
  let hi =
    get_u8 b (i + 4)
    lor (get_u8 b (i + 5) lsl 8)
    lor (get_u8 b (i + 6) lsl 16)
    lor (get_u8 b (i + 7) lsl 24)
  in
  (* As [Codec.Reader.i64]: the value is an OCaml int (63-bit); the top
     byte's MSB is lost exactly as Int64.to_int would lose it. *)
  lo lor (hi lsl 32)

let set_i64 (b : buf) i v =
  set_i32 b i (v land 0xFFFFFFFF);
  set_i32 b (i + 4) ((v asr 32) land 0xFFFFFFFF)

(* CRC-32 (IEEE 802.3) through {!Codec}'s C kernel. *)
external crc32_bigarray : int -> buf -> int -> int -> int = "rta_crc32_bigarray"
  [@@noalloc]

let crc32 (b : buf) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Zcodec.crc32: range outside buffer";
  crc32_bigarray 0 b pos len

let blit_to_bytes (src : buf) src_off dst dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > Bigarray.Array1.dim src
     || dst_off + len > Bytes.length dst
  then invalid_arg "Zcodec.blit_to_bytes: range outside buffer";
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i) (Bigarray.Array1.unsafe_get src (src_off + i))
  done

let blit_of_bytes src src_off (dst : buf) dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > Bytes.length src
     || dst_off + len > Bigarray.Array1.dim dst
  then invalid_arg "Zcodec.blit_of_bytes: range outside buffer";
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_off + i) (Bytes.unsafe_get src (src_off + i))
  done

module Writer = struct
  type t = { buf : buf; off : int; len : int; mutable pos : int }

  let create buf ~off ~len =
    if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
      invalid_arg "Zcodec.Writer.create: slice outside buffer";
    { buf; off; len; pos = 0 }

  let pos t = t.pos

  let ensure t n =
    if t.pos + n > t.len then
      raise
        (Codec.Overflow
           (Printf.sprintf "write of %d bytes at %d exceeds mapped slice of %d" n t.pos
              t.len))

  let u8 t v =
    ensure t 1;
    set_u8 t.buf (t.off + t.pos) v;
    t.pos <- t.pos + 1

  let i32 t v =
    if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
      raise (Codec.Overflow (Printf.sprintf "value %d does not fit in 32 bits" v));
    ensure t 4;
    set_i32 t.buf (t.off + t.pos) v;
    t.pos <- t.pos + 4

  let i64 t v =
    ensure t 8;
    set_i64 t.buf (t.off + t.pos) v;
    t.pos <- t.pos + 8

  let bool t b = u8 t (if b then 1 else 0)
end

module Reader = struct
  type t = { buf : buf; off : int; len : int; mutable pos : int }

  let create buf ~off ~len =
    if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
      invalid_arg "Zcodec.Reader.create: slice outside buffer";
    { buf; off; len; pos = 0 }

  let pos t = t.pos

  let ensure t n =
    if t.pos + n > t.len then
      raise
        (Codec.Overflow
           (Printf.sprintf "read of %d bytes at %d exceeds mapped slice of %d" n t.pos
              t.len))

  let u8 t =
    ensure t 1;
    let v = get_u8 t.buf (t.off + t.pos) in
    t.pos <- t.pos + 1;
    v

  let i32 t =
    ensure t 4;
    let v = get_i32 t.buf (t.off + t.pos) in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    ensure t 8;
    let v = get_i64 t.buf (t.off + t.pos) in
    t.pos <- t.pos + 8;
    v

  let bool t = u8 t <> 0
end
