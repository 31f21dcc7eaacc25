exception Overflow of string

module Writer = struct
  type t = { buf : bytes; mutable pos : int }

  let create size = { buf = Bytes.make size '\000'; pos = 0 }
  let pos t = t.pos

  let ensure t n =
    if t.pos + n > Bytes.length t.buf then
      raise (Overflow (Printf.sprintf "write of %d bytes at %d exceeds page size %d"
                         n t.pos (Bytes.length t.buf)))

  let u8 t v =
    ensure t 1;
    Bytes.set_uint8 t.buf t.pos (v land 0xff);
    t.pos <- t.pos + 1

  let i32 t v =
    if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
      raise (Overflow (Printf.sprintf "value %d does not fit in 32 bits" v));
    ensure t 4;
    Bytes.set_int32_le t.buf t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let i64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.pos (Int64.of_int v);
    t.pos <- t.pos + 8

  let bool t b = u8 t (if b then 1 else 0)
  let contents t = t.buf
end

(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320) in C ([arena_stubs.c]):
   a carry-less-multiply fold where the CPU has one, slicing-by-8 tables
   otherwise.  The tables, and the CPU check, are set up here, at module
   initialisation, before anything can checksum. *)
external crc32_init : unit -> unit = "rta_crc32_init"
external crc32_bytes : int -> bytes -> int -> int -> int = "rta_crc32_bytes" [@@noalloc]

external crc32_tables_bytes : int -> bytes -> int -> int -> int = "rta_crc32_tables_bytes"
  [@@noalloc]

external crc32_folds_stub : unit -> bool = "rta_crc32_folds"

let () = crc32_init ()
let crc32_folds = crc32_folds_stub ()

let check_range ~who buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg (who ^ ": range outside buffer")

let crc32_update crc buf ~pos ~len =
  check_range ~who:"Codec.crc32_update" buf ~pos ~len;
  crc32_bytes (crc land 0xFFFFFFFF) buf pos len

let crc32_reference buf ~pos ~len =
  check_range ~who:"Codec.crc32_reference" buf ~pos ~len;
  crc32_tables_bytes 0 buf pos len

let crc32 buf ~pos ~len = crc32_update 0 buf ~pos ~len
let crc32_string s = crc32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

module Reader = struct
  type t = { buf : bytes; mutable pos : int; limit : int }

  let create ?(pos = 0) ?len buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Codec.Reader.create: range outside buffer";
    { buf; pos; limit = pos + len }

  let pos t = t.pos

  let ensure t n =
    if t.pos + n > t.limit then
      raise (Overflow (Printf.sprintf "read of %d bytes at %d exceeds block size %d"
                         n t.pos t.limit))

  let u8 t =
    ensure t 1;
    let v = Bytes.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let i32 t =
    ensure t 4;
    let v = Int32.to_int (Bytes.get_int32_le t.buf t.pos) in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    ensure t 8;
    let v = Int64.to_int (Bytes.get_int64_le t.buf t.pos) in
    t.pos <- t.pos + 8;
    v

  let bool t = u8 t <> 0

  let skip t n =
    ensure t n;
    t.pos <- t.pos + n
end
