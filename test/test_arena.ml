(* Storage-engine tests: Zcodec/Codec byte equivalence, the mmap arena
   (both backings), the Mmap page store, its overlay and the checkpoint
   frames it reads in place, checksummed snapshot streaming, cross-backend
   engine equivalence (Memory/Mmap answer and checkpoint identically),
   descriptor, mapping and lock hygiene, and the crash matrices over an
   mmap-backed working set. *)

module Zc = Storage.Zcodec
module A = Storage.Arena
module M = Storage.Vfs.Memory

let make_buf n : Zc.buf =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  Bigarray.Array1.fill b '\000';
  b

let buf_to_bytes (b : Zc.buf) =
  let n = Bigarray.Array1.dim b in
  let out = Bytes.create n in
  Zc.blit_to_bytes b 0 out 0 n;
  out

let write_bytes path b = Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A value sequence hitting the interesting encodings: zero, sign
   boundaries, full-width 32-bit edges, and 64-bit values. *)
let probe_values =
  [ 0; 1; -1; 127; 128; 255; 256; -256; 0x7fffffff; -0x80000000; 42 ]

let test_zcodec_codec_equivalence () =
  let size = 256 in
  (* Same sequence through the bytes writer and the mapping's stores... *)
  let cw = Storage.Codec.Writer.create size in
  let zb = make_buf size in
  let at = ref 0 in
  let z n f =
    f zb !at;
    at := !at + n
  in
  List.iter
    (fun v ->
      Storage.Codec.Writer.u8 cw (v land 0xff);
      z 1 (fun b i -> Zc.set_u8 b i (v land 0xff));
      if v >= -0x80000000 && v <= 0x7fffffff then begin
        Storage.Codec.Writer.i32 cw v;
        z 4 (fun b i -> Zc.set_i32 b i v)
      end;
      Storage.Codec.Writer.i64 cw (v * 1_000_003);
      z 8 (fun b i -> Zc.set_i64 b i (v * 1_000_003)))
    probe_values;
  Alcotest.(check int) "positions agree" (Storage.Codec.Writer.pos cw) !at;
  (* ... must produce identical bytes, *)
  let cb = Storage.Codec.Writer.contents cw in
  Alcotest.(check bytes) "identical encodings" cb (buf_to_bytes zb);
  (* identical CRCs, *)
  Alcotest.(check int) "crc32 agrees"
    (Storage.Codec.crc32 cb ~pos:0 ~len:size)
    (Zc.crc32 zb ~pos:0 ~len:size);
  (* and cross-read: each side decodes the other's buffer. *)
  let cr = Storage.Codec.Reader.create (buf_to_bytes zb) in
  let zb2 = make_buf size in
  Zc.blit_of_bytes cb 0 zb2 0 size;
  at := 0;
  let z n f =
    let v = f zb2 !at in
    at := !at + n;
    v
  in
  List.iter
    (fun v ->
      Alcotest.(check int) "u8" (v land 0xff) (Storage.Codec.Reader.u8 cr);
      Alcotest.(check int) "z u8" (v land 0xff) (z 1 Zc.get_u8);
      if v >= -0x80000000 && v <= 0x7fffffff then begin
        Alcotest.(check int) "i32" v (Storage.Codec.Reader.i32 cr);
        Alcotest.(check int) "z i32" v (z 4 Zc.get_i32)
      end;
      Alcotest.(check int) "i64" (v * 1_000_003) (Storage.Codec.Reader.i64 cr);
      Alcotest.(check int) "z i64" (v * 1_000_003) (z 8 Zc.get_i64))
    probe_values

(* Both blits, mapped to bytes and bytes to mapped, from a [src_len]-byte
   source into a [dst_len]-byte destination, at every source and
   destination offset and every length from one before each buffer to
   one past it.  A range inside both buffers copies what [Bytes.blit]
   copies, zero-length ones at either end included, and into a buffer of
   its own length what [Bytes.sub] returns.  Any other range (a negative
   offset or length, an end past either buffer by one byte, or a sum so
   large it wraps) raises [Invalid_argument] and leaves the destination
   as it was.  Each blit is one [memcpy] after its bounds check, so the
   check is all that guards the memory around the buffers. *)
let check_blits ~src_len ~dst_len =
  let pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (7 * i)) land 0xff)) in
  let src = pattern src_len 1 and dst0 = pattern dst_len 200 in
  let to_buf b =
    let z = make_buf (Bytes.length b) in
    Bytes.iteri (Bigarray.Array1.set z) b;
    z
  in
  let of_buf (z : Zc.buf) = Bytes.init (Bigarray.Array1.dim z) (Bigarray.Array1.get z) in
  let zsrc = to_buf src in
  let dst = Bytes.create dst_len and zdst = make_buf dst_len in
  let check so d_o len =
    let valid =
      so >= 0 && d_o >= 0 && len >= 0 && so <= src_len - len && d_o <= dst_len - len
    in
    let want =
      if valid then begin
        let w = Bytes.copy dst0 in
        Bytes.blit src so w d_o len;
        w
      end
      else dst0
    in
    let judge name blit get =
      let fail what =
        Alcotest.failf "%s of %d bytes from %d of %d to %d of %d: %s" name len so src_len d_o
          dst_len what
      in
      (match blit () with
      | () -> if not valid then fail "no bounds check"
      | exception Invalid_argument _ -> if valid then fail "refused");
      for i = 0 to dst_len - 1 do
        if get i <> Bytes.get want i then
          fail (if valid then "wrong bytes" else "the destination moved")
      done
    in
    Bytes.blit dst0 0 dst 0 dst_len;
    judge "blit_to_bytes" (fun () -> Zc.blit_to_bytes zsrc so dst d_o len) (Bytes.get dst);
    Bytes.iteri (Bigarray.Array1.set zdst) dst0;
    judge "blit_of_bytes"
      (fun () -> Zc.blit_of_bytes src so zdst d_o len)
      (Bigarray.Array1.get zdst);
    if valid && d_o = 0 then begin
      let out = Bytes.create len and zout = make_buf len in
      Zc.blit_to_bytes zsrc so out 0 len;
      Zc.blit_of_bytes src so zout 0 len;
      Alcotest.(check (pair bytes bytes)) (Printf.sprintf "sub of %d bytes from %d" len so)
        (Bytes.sub src so len, Bytes.sub src so len) (out, of_buf zout)
    end
  in
  for so = -1 to src_len + 1 do
    for d_o = -1 to dst_len + 1 do
      for len = -1 to max src_len dst_len + 1 do
        check so d_o len
      done
    done
  done;
  List.iter
    (fun (so, d_o, len) -> check so d_o len)
    [ (1, 1, max_int); (max_int, max_int, 1); (max_int, 0, 1); (0, max_int, 1);
      (src_len, dst_len, max_int); (min_int, 0, 1); (0, min_int, 1); (0, 0, min_int) ]

(* Every accessor at every offset of a word, the unaligned ones included:
   one-load reads and writes must land the same little-endian bytes as a
   byte at a time, sign-extend a 32-bit read, keep the 32- and 64-bit
   limits, and refuse a word that runs past the buffer.  Then the blits
   at every offset and length ({!check_blits}): of a 64-byte pair, and of
   pairs whose source or destination is the shorter, so that a range is
   checked against the buffer it lies in. *)
let test_zcodec_words () =
  let size = 64 in
  let le_bytes v n = List.init n (fun k -> (v asr (8 * k)) land 0xff) in
  let i32s = [ 0; 1; -1; 0x7fffffff; -0x80000000; 0x12345678; -0x12345678; 0x80; -0x81 ] in
  let i64s = [ 0; 1; -1; max_int; min_int; 0x7fffffff; -0x80000000; 0x1_0000_0000;
               -0x1_0000_0001; 0x0123_4567_89ab_cdef; -0x0123_4567_89ab_cdef ] in
  for off = 0 to 15 do
    let b = make_buf size in
    List.iter
      (fun v ->
        Zc.set_i32 b off v;
        Alcotest.(check (list int)) (Printf.sprintf "i32 %d bytes at %d" v off)
          (le_bytes v 4) (List.init 4 (fun k -> Zc.get_u8 b (off + k)));
        Alcotest.(check int) (Printf.sprintf "i32 %d at %d" v off) v (Zc.get_i32 b off))
      i32s;
    (* 0xffffffff reads back sign-extended *)
    for k = 0 to 3 do
      Zc.set_u8 b (off + k) 0xff
    done;
    Alcotest.(check int) "i32 sign-extends" (-1) (Zc.get_i32 b off);
    List.iter
      (fun v ->
        Zc.set_i64 b off v;
        (* an OCaml int is 63 bits: the 64th bit is its sign *)
        Alcotest.(check (list int)) (Printf.sprintf "i64 %d bytes at %d" v off)
          (le_bytes v 8) (List.init 8 (fun k -> Zc.get_u8 b (off + k)));
        Alcotest.(check int) (Printf.sprintf "i64 %d at %d" v off) v (Zc.get_i64 b off))
      i64s;
    (* a run of words from an unaligned offset, as the bytes writer
       lays them out *)
    List.iteri (fun k v -> Zc.set_i32 b (off + (4 * k)) v) i32s;
    let cw = Storage.Codec.Writer.create (size - off) in
    List.iter (Storage.Codec.Writer.i32 cw) i32s;
    let n = 4 * List.length i32s in
    Alcotest.(check bytes) (Printf.sprintf "run bytes at %d" off)
      (Bytes.sub (Storage.Codec.Writer.contents cw) 0 n)
      (Bytes.sub (buf_to_bytes b) off n);
    List.iteri
      (fun k v -> Alcotest.(check int) "run i32" v (Zc.get_i32 b (off + (4 * k))))
      i32s;
    (* one unchecked 64-bit store and load, as a page's columns use them *)
    List.iter
      (fun v ->
        Zc.store64 b off (Int64.of_int v);
        Alcotest.(check int) (Printf.sprintf "store64 %d at %d" v off) v (Zc.get_i64 b off);
        Alcotest.(check int) (Printf.sprintf "load64 %d at %d" v off) v
          (Int64.to_int (Zc.load64 b off)))
      (if Sys.big_endian then [] else i64s)
  done;
  let b = make_buf size in
  Zc.set_i64 b 3 max_int;
  Zc.set_i64 b 11 min_int;
  Alcotest.(check (pair int int)) "i64 limits" (max_int, min_int)
    (Zc.get_i64 b 3, Zc.get_i64 b 11);
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: no bounds check" name)
    [ ("get_i32 at the end", fun () -> Zc.get_i32 b (size - 3));
      ("get_i64 at the end", fun () -> Zc.get_i64 b (size - 7));
      ("get_i64 before the start", fun () -> Zc.get_i64 b (-1));
      ("set_i32 at the end", fun () -> Zc.set_i32 b (size - 3) 0; 0);
      ("set_i64 at the end", fun () -> Zc.set_i64 b (size - 7) 0; 0) ];
  List.iter
    (fun (src_len, dst_len) -> check_blits ~src_len ~dst_len)
    [ (size, size); (size, 40); (40, size) ]

(* The carry-less-multiply fold against the slicing-by-8 tables, over
   every length up to 2,000 bytes (below, at and past each fold step) at
   four offsets and two seeds, through both buffer types and in pieces;
   on a CPU without the fold both sides run the tables. *)
let test_crc_kernel () =
  Alcotest.(check int) "check value" 0xCBF43926 (Storage.Codec.crc32_string "123456789");
  Alcotest.(check int) "reference check value" 0xCBF43926
    (Storage.Codec.crc32_reference (Bytes.of_string "123456789") ~pos:0 ~len:9);
  let n = 2000 + 8 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let data = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
      let z = make_buf n in
      Zc.blit_of_bytes data 0 z 0 n;
      for len = 0 to 2000 do
        for pos = 0 to 3 do
          let want = Storage.Codec.crc32_reference data ~pos ~len in
          let got = Storage.Codec.crc32 data ~pos ~len in
          if got <> want then
            Alcotest.failf "seed %d len %d pos %d: fold %08x, tables %08x (folds: %b)" seed
              len pos got want Storage.Codec.crc32_folds;
          if Zc.crc32 z ~pos ~len <> want then
            Alcotest.failf "seed %d len %d pos %d: bigarray kernel differs" seed len pos
        done;
        let half = len / 2 in
        if
          Storage.Codec.crc32_update (Storage.Codec.crc32 data ~pos:0 ~len:half) data ~pos:half
            ~len:(len - half)
          <> Storage.Codec.crc32_reference data ~pos:0 ~len
        then Alcotest.failf "seed %d len %d: in pieces" seed len
      done)
    [ 1; 2 ]

(* --- Arena -------------------------------------------------------------------- *)

(* The byte [i] of a range of [n] bytes. *)
let range_byte n i = (n + (7 * i)) land 0xff

(* Ranges of assorted lengths, each given more room than it takes,
   appended before and after the arena grows (a remap, or fresh RAM
   chunks) and after a reset, read back whole from where [locate] puts
   them: inside one buffer, which in RAM is one chunk, so no range
   straddles two.  A mapped file grows past its first chunk, and a reset
   cuts it back.  A reset and a close unmap the buffers they drop, RAM
   chunks as well as a file's view: a buffer fetched before has no
   elements left. *)
let arena_lifecycle ~backing ~path () =
  let chunk = 256 in
  let a = A.create ~backing ~chunk ~path () in
  let append n =
    A.append a ~room:(min chunk (n + 40)) (fun buf off ->
        for i = 0 to n - 1 do
          Zc.set_u8 buf (off + i) (range_byte n i)
        done;
        n)
  in
  let check_ranges what ranges =
    List.iter
      (fun (n, off) ->
        if n > 0 then begin
          let buf, at = A.locate a off in
          let dim = Bigarray.Array1.dim buf in
          if at + n > dim then Alcotest.failf "%s: the range at %d leaves its buffer" what off;
          if A.backing a = `Buffered && dim <> chunk then
            Alcotest.failf "%s: a RAM buffer of %d bytes, not a chunk" what dim;
          Alcotest.(check (list int)) (Printf.sprintf "%s: range at %d" what off)
            (List.init n (range_byte n))
            (List.init n (fun i -> Zc.get_u8 buf (at + i)))
        end)
      ranges
  in
  let lengths = [ 1; 200; 17; 216; 0; 64; 100; 215; 8; 130; 3; 199; 40; 77 ] in
  let first = List.map (fun n -> (n, append n)) lengths in
  let total = List.fold_left (fun acc (n, _) -> acc + n) 0 first in
  check_ranges "before growth" first;
  let second = List.map (fun n -> (n, append n)) lengths in
  check_ranges "after growth" (first @ second);
  let used = A.used a in
  Alcotest.(check bool) "used counts every range, and a room per chunk at most" true
    (used >= 2 * total && used <= (2 * total) + (chunk * (1 + (used / chunk))));
  (match A.backing a with
  | `Map ->
      Alcotest.(check int) "a mapping wastes nothing" (2 * total) used;
      Alcotest.(check bool) "the file grew past its first chunk" true
        ((Unix.stat path).Unix.st_size >= used && (Unix.stat path).Unix.st_size > chunk)
  | `Buffered -> Alcotest.(check bool) "no file" false (Sys.file_exists path));
  Alcotest.check_raises "a room past a chunk"
    (Invalid_argument "Arena.append: room larger than a chunk") (fun () ->
      ignore (A.append a ~room:(chunk + 1) (fun _ _ -> 0)));
  Alcotest.check_raises "a write past its room"
    (Invalid_argument "Arena.append: wrote past its room") (fun () ->
      ignore (A.append a ~room:8 (fun _ _ -> 9)));
  let kept, _ = A.locate a (snd (List.hd first)) in
  A.reset a;
  Alcotest.(check int) "a reset empties the arena" 0 (A.used a);
  Alcotest.(check int) "and unmaps the buffers it drops" 0 (Bigarray.Array1.dim kept);
  if A.backing a = `Map then
    Alcotest.(check int) "and cuts the file back" chunk (Unix.stat path).Unix.st_size;
  Alcotest.check_raises "nothing past the tail"
    (Invalid_argument "Arena.Image.locate: offset outside the image") (fun () ->
      ignore (A.locate a 0));
  let third = List.map (fun n -> (n, append n)) lengths in
  Alcotest.(check int) "written again from the start" 0 (snd (List.hd third));
  check_ranges "after a reset" third;
  let kept, _ = A.locate a (snd (List.hd third)) in
  A.close a;
  Alcotest.(check int) "a close unmaps its buffers" 0 (Bigarray.Array1.dim kept);
  A.close a;
  match append 1 with
  | exception Storage.Storage_error.Io _ -> ()
  | _ -> Alcotest.fail "an append after close"

let test_arena_buffered () =
  let dir = Filename.temp_dir "rta-test-arena" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  arena_lifecycle ~backing:`Buffered ~path:(Filename.concat dir "arena") ()

let test_arena_mapped () =
  let path = Filename.temp_file "rta-test-arena" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> arena_lifecycle ~backing:`Auto ~path ()

(* A RAM image grows a chunk at a time and never splits a range: a range
   that does not fit the last chunk opens the next, and every range reads
   back whole from the chunk [locate] names.  Its chunks are anonymous
   mappings, and a release unmaps them. *)
let test_image_chunks () =
  let img = A.Image.ram ~chunk:100 () in
  let range n = Bytes.init n (fun i -> Char.chr ((n + (7 * i)) land 0xff)) in
  let offsets =
    List.map (fun n -> (n, A.Image.append img (range n) ~pos:0 ~len:n)) [ 30; 40; 50; 100; 1 ]
  in
  Alcotest.(check (list int)) "offsets" [ 0; 30; 100; 200; 300 ] (List.map snd offsets);
  List.iter
    (fun (n, off) ->
      let buf, at = A.Image.locate img off in
      let got = Bytes.create n in
      Zc.blit_to_bytes buf at got 0 n;
      Alcotest.(check bytes) (Printf.sprintf "range at %d" off) (range n) got)
    offsets;
  Alcotest.check_raises "a range longer than a chunk"
    (Invalid_argument "Arena.Image.append: range longer than a chunk") (fun () ->
      ignore (A.Image.append img (range 101) ~pos:0 ~len:101));
  Alcotest.check_raises "past the end"
    (Invalid_argument "Arena.Image.locate: offset outside the image") (fun () ->
      ignore (A.Image.locate img 400));
  let chunks = List.map (fun (_, off) -> fst (A.Image.locate img off)) offsets in
  A.Image.release img;
  Alcotest.(check (list int)) "a release unmaps every chunk" [ 0; 0; 0; 0; 0 ]
    (List.map Bigarray.Array1.dim chunks)

(* --- Mmap page store ---------------------------------------------------------- *)

(* Every page sealed: written as a frame. *)
module Int_list_codec = struct
  type t = int list

  let encode buf ~off ~len v =
    let n = 4 + (8 * List.length v) in
    if n > len then raise (Storage.Codec.Overflow "int list");
    Zc.set_i32 buf off (List.length v);
    List.iteri (fun i x -> Zc.set_i64 buf (off + 4 + (8 * i)) x) v;
    n

  let sealed _ = true
end

module MStore = Storage.Page_store.Mmap (Int_list_codec)

let decode_int_list (buf, off, len) =
  let n = Zc.get_i32 buf off in
  if 4 + (8 * n) > len then Alcotest.fail "a list longer than its frame";
  List.init n (fun i -> Zc.get_i64 buf (off + 4 + (8 * i)))

(* A charged read, its frame decoded. *)
let read_value s id =
  match MStore.read s id with
  | Storage.Page_store.Framed -> decode_int_list (MStore.frame s id)
  | Decoded v -> v

let write_value s id v = MStore.write s id (Storage.Page_store.Decoded v)

let store_lifecycle ~backing ~path () =
  let stats = Storage.Io_stats.create () in
  let s = MStore.create ~stats ~page_size:128 ~backing ~path () in
  let payload i = [ i; i * i; -i ] in
  let ids =
    List.init 10 (fun i ->
        let id = MStore.alloc s in
        write_value s id (payload i);
        id)
  in
  List.iteri
    (fun i id -> Alcotest.(check (list int)) "round trip" (payload i) (read_value s id))
    ids;
  Alcotest.(check int) "ids count up" 3 (Storage.Page_id.to_int (List.nth ids 3));
  (* Overlay slots are handed out densely: a page with a large id takes
     the next slot, and the file does not grow to reach its id. *)
  let far =
    List.init 5000 (fun _ -> MStore.alloc s) |> List.rev |> List.hd
  in
  write_value s far [ 1 ];
  Alcotest.(check (list int)) "far page round trip" [ 1 ] (read_value s far);
  if MStore.backing s = `Map then
    Alcotest.(check bool) "the overlay is not sized by a page id" true
      ((Unix.stat path).Unix.st_size < 64 * 128 * 2);
  MStore.free s far;
  (* The overlay is sized by its frames: short pages sealed at a 4 KiB
     page size take the bytes they encode to, 92 each (96 aligned), not
     4 KiB each, and read back. *)
  let wide = MStore.create ~page_size:4096 ~backing ~path:(path ^ ".wide") () in
  let n = 4000 and value i = List.init 10 (fun j -> i + j) in
  let wide_ids =
    List.init n (fun i ->
        let id = MStore.alloc wide in
        write_value wide id (value i);
        id)
  in
  List.iteri
    (fun i id ->
      if i mod 97 = 0 then
        Alcotest.(check (list int)) "wide round trip" (value i) (read_value wide id))
    wide_ids;
  let frame_bytes = n * (MStore.block_overhead + 4 + 80) in
  Alcotest.(check bool) "the overlay is sized by its frames" true
    (MStore.overlay_bytes wide >= frame_bytes && MStore.overlay_bytes wide <= 2 * frame_bytes);
  if MStore.backing wide = `Map then
    Alcotest.(check bool) "the overlay file is sized by its frames" true
      ((Unix.stat (path ^ ".wide")).Unix.st_size <= 2 * frame_bytes);
  MStore.close wide;
  (* mapped accesses are charged both as I/O and as mapped ops *)
  Alcotest.(check bool) "mapped reads counted" true
    (Storage.Io_stats.mapped_reads stats >= 10);
  Alcotest.(check bool) "mapped writes counted" true
    (Storage.Io_stats.mapped_writes stats >= 10);
  let freed = List.nth ids 3 in
  MStore.free s freed;
  Alcotest.(check bool) "freed page gone" false (MStore.mem s freed);
  Alcotest.check_raises "read freed" Not_found (fun () -> ignore (read_value s freed));
  Alcotest.(check int) "live pages" 5008 (MStore.live_pages s);
  (* ids continue; a retired id is never reused *)
  Alcotest.(check int) "ids continue" 5010 (Storage.Page_id.to_int (MStore.alloc s));
  MStore.close s

let test_mmap_store_buffered () =
  let dir = Filename.temp_dir "rta-test-mstore" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  store_lifecycle ~backing:`Buffered ~path:(Filename.concat dir "pages") ()

let test_mmap_store_mapped () =
  let path = Filename.temp_file "rta-test-mstore" "" in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; path ^ ".wide" ])
  @@ fun () -> store_lifecycle ~backing:`Auto ~path ()

let rm_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A page that counts its encodings and seals when told. *)
module Counted = struct
  type t = { value : int list; mutable closed : bool }

  let encodes = ref 0

  let encode buf ~off ~len p =
    incr encodes;
    Int_list_codec.encode buf ~off ~len p.value

  let sealed p = p.closed
end

module CStore = Storage.Page_store.Mmap (Counted)

(* A page that can still change is held as written: its writes, and the
   reads after them, encode and decode nothing.  It is encoded once, when
   it is written sealed; reads of it after that check its frame and
   encode nothing more, and a later write (vacuum's prune) encodes it
   again, at the overlay's tail, where it reads back pruned.  A
   checkpoint's copy of a page held decoded encodes it.  A rebase onto
   those copies empties the overlay, the pruned page's dead frame
   with it. *)
let test_encode_once backing () =
  let dir = Filename.temp_dir "rta-test-encode" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let stats = Storage.Io_stats.create () in
  let s = CStore.create ~stats ~page_size:128 ~backing ~path:(Filename.concat dir "o") () in
  let encodes = Counted.encodes in
  encodes := 0;
  let id = CStore.alloc s in
  let p = { Counted.value = [ 1; 2; 3 ]; closed = false } in
  for _ = 1 to 5 do
    CStore.write s id (Storage.Page_store.Decoded p)
  done;
  (match CStore.read s id with
  | Storage.Page_store.Decoded q -> Alcotest.(check bool) "held as written" true (q == p)
  | Framed -> Alcotest.fail "an alive page was framed");
  Alcotest.(check int) "alive write-backs encode nothing" 0 !encodes;
  Alcotest.check_raises "an alive page has no frame"
    (Invalid_argument "Page_store.Mmap: the page is held decoded") (fun () ->
      ignore (CStore.frame s id));
  p.closed <- true;
  CStore.write s id (Storage.Page_store.Decoded p);
  Alcotest.(check int) "sealing encodes once" 1 !encodes;
  for _ = 1 to 3 do
    match CStore.read s id with
    | Storage.Page_store.Framed ->
        Alcotest.(check (list int)) "the frame holds the page" [ 1; 2; 3 ]
          (decode_int_list (CStore.frame s id))
    | Decoded _ -> Alcotest.fail "a sealed page came back decoded"
  done;
  Alcotest.(check int) "reads of a sealed page encode nothing" 1 !encodes;
  CStore.write s id (Storage.Page_store.Decoded { Counted.value = [ 3 ]; closed = true });
  Alcotest.(check int) "a pruned sealed page is encoded again" 2 !encodes;
  Alcotest.(check (list int)) "the pruned page reads back pruned" [ 3 ]
    (decode_int_list (CStore.frame s id));
  (* 36 bytes, then 20, each from an 8-byte boundary *)
  Alcotest.(check int) "the overlay holds the dead frame and the live one" (40 + 24)
    (CStore.overlay_bytes s);
  let other = CStore.alloc s in
  CStore.write s other (Storage.Page_store.Decoded { Counted.value = [ 9 ]; closed = false });
  let frame = CStore.read_frame s other in
  Alcotest.(check int) "a checkpoint's copy encodes an alive page" 3 !encodes;
  Alcotest.(check int) "into a whole frame" (Bytes.length frame)
    (CStore.block_overhead + Int32.to_int (Bytes.get_int32_le frame 0));
  Alcotest.(check (pair int int)) "every access charged" (5, 8)
    (Storage.Io_stats.reads stats, Storage.Io_stats.writes stats);
  let frames = [ (id, CStore.read_frame s id); (other, frame) ] in
  let file = Filename.concat dir "base" in
  write_bytes file (Bytes.concat Bytes.empty (List.map snd frames));
  let staged = CStore.stage s ~file () in
  ignore
    (List.fold_left
       (fun offset (id, f) ->
         ignore (CStore.stage_frame staged id ~offset f ~pos:0 ~len:(Bytes.length f));
         offset + Bytes.length f)
       0 frames);
  CStore.rebase s staged;
  Alcotest.(check int) "a rebase empties the overlay" 0 (CStore.overlay_bytes s);
  Alcotest.(check (list (list int))) "the base holds both pages" [ [ 3 ]; [ 9 ] ]
    (List.map (fun (id, _) -> decode_int_list (CStore.frame s id)) frames);
  CStore.close s

(* --- Frames in a base --------------------------------------------------------------- *)

(* Flip bit 0 of the byte at [off] of [path] in place, through a
   descriptor of its own, as a scrub repair writes: a mapping of the file
   must show it, and the file must not be truncated under the mapping. *)
let flip_in_place path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  if Unix.read fd b 0 1 <> 1 then Alcotest.fail "flip_in_place: short read";
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0x01);
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1)

(* Pages written as values into [a], their frames read back and laid out
   in a file as a checkpoint lays them out — after a header, back to
   back — and [b] rebased onto that file.  Each copy out is charged one
   read; [b] hands back the very frames, which decode to the values; the
   rebase drops the page [b] had in its overlay and keeps ids counting
   past both; a repeated id is refused; a page written after the rebase
   shadows its base frame; and a frame that fails its CRC — staged so
   (staging trusts its caller's check), or rotted in the mapped file
   after the rebase — fails [read_frame] and [read] until it is mended. *)
let base_frames ~backing ~dir =
  let stats = Storage.Io_stats.create () in
  let mk name =
    MStore.create ~stats ~page_size:128 ~backing ~path:(Filename.concat dir name) ()
  in
  let a = mk "a" and b = mk "b" in
  let id = Storage.Page_id.of_int in
  let ids = [ 0; 1; 2; 5; 9 ] in
  let value i = List.init (1 + (i mod 4)) (fun j -> (i * 1000) + j - 7) in
  for _ = 0 to 9 do
    ignore (MStore.alloc a)
  done;
  List.iter (fun i -> write_value a (id i) (value i)) ids;
  let own = List.init 4 (fun _ -> MStore.alloc b) |> List.rev |> List.hd in
  write_value b own [ 42 ];
  let reads0 = Storage.Io_stats.reads stats in
  let frames = List.map (fun i -> MStore.read_frame a (id i)) ids in
  Alcotest.(check int) "one read per frame" (List.length ids)
    (Storage.Io_stats.reads stats - reads0);
  let header = 13 in
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) f -> (off + Bytes.length f, off :: acc))
            (header, []) frames))
  in
  let lay_out path frames =
    write_bytes path (Bytes.concat Bytes.empty (Bytes.make header '\xee' :: frames))
  in
  let rebase path frames =
    lay_out path frames;
    let staged = MStore.stage b ~file:path () in
    List.iter2
      (fun i (off, f) ->
        Alcotest.(check bool) "staged" true
          (MStore.stage_frame staged (id i) ~offset:off f ~pos:0 ~len:(Bytes.length f)))
      ids (List.combine offsets frames);
    let f = List.hd frames in
    Alcotest.(check bool) "a repeated id is refused" false
      (MStore.stage_frame staged (id 5) ~offset:header f ~pos:0 ~len:(Bytes.length f));
    MStore.rebase b staged
  in
  let base = Filename.concat dir "base" in
  rebase base frames;
  Alcotest.(check bool) "the overlay's page is gone" false (MStore.mem b own);
  Alcotest.(check int) "live pages are the base's" (List.length ids) (MStore.live_pages b);
  List.iter2
    (fun i frame ->
      Alcotest.(check int) "frame = [len][crc][payload]"
        (Int32.to_int (Bytes.get_int32_le frame 0) + MStore.block_overhead)
        (Bytes.length frame);
      Alcotest.(check bytes) "the frame comes back verbatim" frame (MStore.read_frame b (id i));
      Alcotest.(check (list int)) "a base page decodes" (value i) (read_value b (id i)))
    ids frames;
  Alcotest.(check int) "ids continue past the base" 10 (Storage.Page_id.to_int (MStore.alloc b));
  write_value b (id 5) [ 7 ];
  Alcotest.(check (list int)) "the overlay shadows the base" [ 7 ] (read_value b (id 5));
  let fails what =
    (match MStore.read_frame b (id 9) with
    | exception Storage.Page_store.Corrupt_page _ -> ()
    | _ -> Alcotest.failf "%s: read_frame returned a corrupt frame" what);
    match read_value b (id 9) with
    | exception Storage.Page_store.Corrupt_page _ -> ()
    | _ -> Alcotest.failf "%s: a corrupt page decoded" what
  in
  let nine = List.length ids - 1 in
  let at_nine = List.nth offsets nine + MStore.block_overhead + 3 in
  if MStore.backing b = `Map then begin
    let failures = Storage.Io_stats.crc_failures stats in
    flip_in_place base at_nine;
    fails "rot after the rebase";
    flip_in_place base at_nine;
    Alcotest.(check (list int)) "mended in place, read again" (value 9) (read_value b (id 9));
    Alcotest.(check int) "crc failures counted" (failures + 2)
      (Storage.Io_stats.crc_failures stats)
  end;
  let rotten = Bytes.copy (List.nth frames nine) in
  Bytes.set rotten 13 (Char.chr (Char.code (Bytes.get rotten 13) lxor 0x01));
  let failures = Storage.Io_stats.crc_failures stats in
  rebase (Filename.concat dir "base2") (List.filteri (fun i _ -> i < nine) frames @ [ rotten ]);
  fails "staged with a bad CRC";
  Alcotest.(check int) "crc failures counted" (failures + 2)
    (Storage.Io_stats.crc_failures stats);
  (* A length field past the block, or past the end of the file, is
     refused before the CRC reads anything. *)
  List.iter
    (fun len ->
      let long = Bytes.copy (List.nth frames nine) in
      Bytes.set_int32_le long 0 (Int32.of_int len);
      rebase (Filename.concat dir "base3") (List.filteri (fun i _ -> i < nine) frames @ [ long ]);
      fails (Printf.sprintf "length field %d" len))
    [ 128; 1 lsl 20 ];
  MStore.close a;
  MStore.close b

let test_base_frames backing () =
  let dir = Filename.temp_dir "rta-test-base" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () -> base_frames ~backing ~dir

(* --- Snapshot streaming: damaged files fail loudly -------------------------------- *)

(* Offsets of every chunk's frame in a snapshot (after the 16-byte
   magic): state, page count, then the pages. *)
let chunk_offsets data =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else go (pos + 8 + Int32.to_int (String.get_int32_le data pos)) (pos :: acc)
  in
  go 16 []

let snapshot_fs () =
  let fs = M.create () in
  let vfs = M.vfs fs in
  let config = { (Mvsbt.default_config ~b:8) with f = 0.75 } in
  let rta = Rta.create ~config ~max_key:40 () in
  for i = 0 to 199 do
    let key = i mod 40 in
    if Rta.is_alive rta ~key then Rta.delete rta ~key ~at:i
    else Rta.insert rta ~key ~value:(1 + i) ~at:i
  done;
  Rta.save ~vfs rta ~path:"s";
  (fs, vfs, rta)

let with_lkst fs vfs f =
  let data = List.assoc "s.lkst" (M.contents fs) in
  let f' = vfs.Storage.Vfs.v_open `Create "s.lkst" in
  let damaged = f (Bytes.of_string data) in
  f'.Storage.Vfs.f_pwrite 0 damaged 0 (Bytes.length damaged);
  f'.Storage.Vfs.f_close ()

(* Replace the payload of the chunk at [at] by [f] of it, the chunk's
   length and CRC made to match: a damage only the structure rules can
   catch. *)
let rechunk fs vfs at f =
  with_lkst fs vfs (fun b ->
      let len = Int32.to_int (Bytes.get_int32_le b at) in
      let payload = f (Bytes.sub b (at + 8) len) in
      let n = Bytes.length payload in
      let head = Bytes.create 8 in
      Bytes.set_int32_le head 0 (Int32.of_int n);
      Bytes.set_int32_le head 4 (Int32.of_int (Storage.Codec.crc32 payload ~pos:0 ~len:n));
      let rest = at + 8 + len in
      Bytes.concat Bytes.empty
        [ Bytes.sub b 0 at; head; payload; Bytes.sub b rest (Bytes.length b - rest) ])

(* The warehouse's page layout: Rta's values, a sum and a count. *)
module Sum_count_tree =
  Mvsbt.Make
    (Aggregate.Group.Sum_count)
    (struct
      type t = Aggregate.Group.Sum_count.t

      let words = 2

      let encode put (s, c) =
        put s;
        put c

      let decode next =
        let s = next () in
        let c = next () in
        (s, c)
    end)

module Layout = Sum_count_tree.Record_codec

let contains msg needle =
  let n = String.length needle in
  let rec scan i = i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

(* The one way a snapshot is loaded, the frame load (here into RAM, as
   [--store memory] and reader replicas load it), streams it through the
   chunk reader.  [crc] says which refusal is due: a checksum mismatch,
   or a structural failure. *)
let loads_fail ?(crc = false) what vfs =
  let attempt name load =
    match load () with
    | exception Storage.Storage_error.Io { errno = Storage.Storage_error.Checksum_mismatch; _ }
      when crc ->
        ()
    | exception (Failure _ | Storage.Codec.Overflow _) when not crc -> ()
    | exception e -> Alcotest.failf "%s: %s: %s" what name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: %s loaded" what name
  in
  attempt "frame load" (fun () -> ignore (Rta.load ~vfs ~snapshot:"s" ()))

let test_snapshot_damage () =
  let fs, vfs, saved = snapshot_fs () in
  let pristine = List.assoc "s.lkst" (M.contents fs) in
  let restore () = with_lkst fs vfs (fun _ -> Bytes.of_string pristine) in
  (* intact: the frame load answers as the tree that saved it *)
  let disk = Rta.load ~vfs ~snapshot:"s" () in
  List.iter
    (fun (klo, khi, tlo, thi) ->
      Alcotest.(check (pair int int)) "frame load answers as the tree that saved it"
        (Rta.sum_count saved ~klo ~khi ~tlo ~thi)
        (Rta.sum_count disk ~klo ~khi ~tlo ~thi))
    [ (0, 40, 0, 300); (5, 17, 30, 90); (20, 21, 0, 1000); (0, 40, 150, 151) ];
  Alcotest.(check int) "every page loaded" (Rta.page_count saved) (Rta.page_count disk);
  let offsets = chunk_offsets pristine in
  let last = List.nth offsets (List.length offsets - 1) in
  let first_page = List.nth offsets 2 in
  Alcotest.(check bool) "several page chunks" true (List.length offsets > 5);
  let truncate_at n = with_lkst fs vfs (fun b -> Bytes.sub b 0 n) in
  List.iter
    (fun n ->
      truncate_at n;
      loads_fail (Printf.sprintf "truncated to %d bytes" n) vfs;
      restore ())
    [ 10; 20; first_page + 2; first_page + 40; String.length pristine - 1 ];
  let set_len off delta =
    with_lkst fs vfs (fun b ->
        Bytes.set_int32_le b off (Int32.add (Bytes.get_int32_le b off) delta);
        b)
  in
  List.iter
    (fun (name, off, delta, crc) ->
      set_len off delta;
      loads_fail ~crc name vfs;
      restore ())
    [ ("negative chunk length", first_page, -100_000l, false);
      ("huge chunk length", first_page, 1_000_000l, false);
      ("first page chunk one short", first_page, -1l, true);
      ("last page chunk one short", last, -1l, true);
      ("last page chunk one long", last, 1l, false) ];
  (* A flipped bit anywhere in a chunk's payload: the CRC catches it,
     in the state chunk, the page count and the pages. *)
  List.iter
    (fun at ->
      with_lkst fs vfs (fun b ->
          Bytes.set_uint8 b (at + 9) (Bytes.get_uint8 b (at + 9) lxor 0x20);
          b);
      loads_fail ~crc:true (Printf.sprintf "bit flip in the chunk at %d" at) vfs;
      restore ())
    [ List.nth offsets 0; List.nth offsets 1; first_page; last ];
  (* A page chunk whose frame is intact, CRC included, but whose header
     lies: the record count (at payload byte 44), which then disagrees
     with the chunk's length, or the level (at byte 8), on the first, a
     middle and the last page.  Only bit rot fails a CRC, so the
     structure rules must catch these, without building the page. *)
  let set_field at off f =
    with_lkst fs vfs (fun b ->
        let v = Int32.to_int (Bytes.get_int32_le b off) in
        Bytes.set_int32_le b off (Int32.of_int (f v));
        let len = Int32.to_int (Bytes.get_int32_le b at) in
        Bytes.set_int32_le b (at + 4)
          (Int32.of_int (Storage.Codec.crc32 b ~pos:(at + 8) ~len));
        b)
  in
  let b = 8 in
  List.iter
    (fun at ->
      let count = at + 8 + 44 and level = at + 8 + 8 in
      List.iter
        (fun (name, off, f) ->
          set_field at off f;
          loads_fail (Printf.sprintf "page chunk at %d: %s" at name) vfs;
          restore ())
        [ ("record count + 1", count, succ);
          ("record count - 1", count, pred);
          ("record count b + 1", count, fun _ -> b + 1);
          ("record count -1", count, fun _ -> -1);
          ("level -1", level, fun _ -> -1);
          (* a leaf read as an index page would name child -1 (a
             leaf's child base), and an index page read as a leaf has a
             child column a leaf cannot have *)
          ("leaf and index level swapped", level, fun l -> if l = 0 then 1 else 0) ])
    [ first_page; List.nth offsets ((List.length offsets + 2) / 2); last ];
  (* A page id is checked too: one that is negative, or that repeats —
     one page chunk a copy of another, CRC and structure intact — would
     leave the tree without the page its parents name. *)
  let reseal b at =
    let len = Int32.to_int (Bytes.get_int32_le b at) in
    Bytes.set_int32_le b (at + 4) (Int32.of_int (Storage.Codec.crc32 b ~pos:(at + 8) ~len))
  in
  let set_id at id =
    with_lkst fs vfs (fun b ->
        Bytes.set_int64_le b (at + 8) (Int64.of_int id);
        reseal b at;
        b)
  in
  List.iter
    (fun at ->
      set_id at (-1);
      loads_fail (Printf.sprintf "page chunk at %d: id -1" at) vfs;
      restore ())
    [ first_page; last ];
  (* So is every child an index page names: a negative one, CRC and
     structure intact, would read as a scan's leaf sentinel and end the
     descent with a partial sum.  Each index page (level, at payload byte
     8, above 0) gets a child base of -1, the last word of the header, so
     the record naming its least child names -1. *)
  let level_of at = Int32.to_int (String.get_int32_le pristine (at + 16)) in
  let index_pages = List.filter (fun at -> at >= first_page && level_of at > 0) offsets in
  let leaf_pages = List.filter (fun at -> at >= first_page && level_of at = 0) offsets in
  Alcotest.(check bool) "index and leaf page chunks" true (index_pages <> [] && leaf_pages <> []);
  let damage name pages f =
    List.iter
      (fun at ->
        rechunk fs vfs at f;
        loads_fail (Printf.sprintf "page chunk at %d: %s" at name) vfs;
        restore ())
      pages
  in
  damage "a child that decodes negative" index_pages (fun p ->
      Bytes.set_int64_le p (Layout.header_bytes - 8) (-1L);
      p);
  (* The column widths and the pad: a width of 9, the records grown to
     match it so only the width is wrong; a payload without its 7 zero
     bytes, so that a scan's last load would run past it; and a pad byte
     that is not zero. *)
  let count p = Int32.to_int (Bytes.get_int32_le p 44) in
  List.iter
    (fun pages ->
      damage "a width of 9" pages (fun p ->
          let w = Bytes.get_uint8 p Layout.widths_at in
          Bytes.set_uint8 p Layout.widths_at 9;
          Bytes.cat p (Bytes.make (count p * (9 - w)) '\000'));
      damage "no pad" pages (fun p -> Bytes.sub p 0 (Bytes.length p - 7));
      damage "a pad byte of 1" pages (fun p ->
          Bytes.set_uint8 p (Bytes.length p - 1) 1;
          p))
    [ leaf_pages; index_pages ];
  (* The dictionaries, which a scan bisects, so each must ascend, every
     entry once: two entries swapped, an entry repeated, and a size the
     payload cannot hold, one more or one less.  The key dictionary's
     size is an i32 at payload byte 48 and its entry width byte 56, its
     entries from the header's end; the time dictionary's are at bytes
     52 and 57, its entries after the key dictionary's.  Every page with
     two entries or more in the dictionary takes each damage. *)
  let dictionary p which =
    let size_at, width_at = match which with `Keys -> (48, 56) | `Times -> (52, 57) in
    let keys = Int32.to_int (Bytes.get_int32_le p 48) * Bytes.get_uint8 p 56 in
    ( size_at,
      Int32.to_int (Bytes.get_int32_le p size_at),
      Bytes.get_uint8 p width_at,
      Layout.header_bytes + (match which with `Keys -> 0 | `Times -> keys) )
  in
  List.iter
    (fun (name, which) ->
      let pages =
        List.filter
          (fun at ->
            let _, n, _, _ = dictionary (Bytes.of_string (String.sub pristine (at + 8) 64)) which in
            at >= first_page && n >= 2)
          offsets
      in
      Alcotest.(check bool) (name ^ ": pages to damage") true (List.length pages >= 3);
      damage (name ^ " entries 0 and 1 swapped") pages (fun p ->
          let _, _, w, at = dictionary p which in
          let first = Bytes.sub p at w in
          Bytes.blit p (at + w) p at w;
          Bytes.blit first 0 p (at + w) w;
          p);
      damage (name ^ " entry 0 repeated") pages (fun p ->
          let _, _, w, at = dictionary p which in
          Bytes.blit p at p (at + w) w;
          p);
      List.iter
        (fun delta ->
          damage (Printf.sprintf "%s dictionary size %+d" name delta) pages (fun p ->
              let size_at, n, _, _ = dictionary p which in
              Bytes.set_int32_le p size_at (Int32.of_int (n + delta));
              p))
        [ 1; -1 ])
    [ ("key", `Keys); ("time", `Times) ];
  let chunk b at = Bytes.sub b at (8 + Int32.to_int (Bytes.get_int32_le b at)) in
  List.iter
    (fun (src, dst) ->
      with_lkst fs vfs (fun b ->
          Bytes.concat Bytes.empty
            (Bytes.sub b 0 16
            :: List.map (fun at -> chunk b (if at = dst then src else at)) offsets));
      loads_fail (Printf.sprintf "page chunk at %d repeated at %d" src dst) vfs;
      restore ())
    [ (first_page, last); (last, first_page) ];
  (* An id far past the others sizes nothing: the load takes it, one page
     short of the tree, where the mapped store once sized its page file
     by it. *)
  set_id last (1 lsl 40);
  Alcotest.(check int) "an id of 2^40 loads" (Rta.page_count saved)
    (Rta.page_count (Rta.load ~vfs ~snapshot:"s" ()));
  restore ();
  with_lkst fs vfs (fun b -> Bytes.cat b (Bytes.make 3 '\000'));
  loads_fail "trailing bytes" vfs;
  restore ();
  (* The previous formats — one whose chunks carry no CRC, one with 64-bit
     fields, one with frame-of-reference key and time columns — are
     refused by name. *)
  List.iter
    (fun old ->
      with_lkst fs vfs (fun b ->
          Bytes.blit_string old 0 b 0 16;
          b);
      (match Rta.load ~vfs ~snapshot:"s" () with
      | exception Failure msg -> Alcotest.(check bool) ("names " ^ old) true (contains msg old)
      | _ -> Alcotest.failf "an %s snapshot loaded" old);
      restore ())
    [ "MVSBT-SNAPSHOT-2"; "MVSBT-SNAPSHOT-3"; "MVSBT-SNAPSHOT-4" ]

(* A state chunk whose CRC holds but whose configuration no tree could
   have is refused at open, as a corrupt chunk, before a store is made:
   [f = 0] would divide by zero at the first key split, and a [b] of
   2^31 - 1 would size each page's slot at about 120 GB.  So is one
   whose current root is not a page of the snapshot, which the open
   pins.  The state is the first chunk, after the 16-byte magic: [b]
   (i32) at payload byte 0, [f] (a float's i64 bits) at 4, the key space
   at 16 and the current root at 40 (i64s). *)
let test_state_damage () =
  let fs, vfs, _ = snapshot_fs () in
  let pristine = List.assoc "s.lkst" (M.contents fs) in
  let per_record = Layout.max_payload ~b:1 - Layout.max_payload ~b:0 in
  let b_over = (((1 lsl 30) - Layout.max_payload ~b:0) / per_record) + 1 in
  List.iter
    (fun (what, f) ->
      rechunk fs vfs 16 (fun p ->
          f p;
          p);
      (match Rta.load ~vfs ~snapshot:"s" () with
      | exception Failure msg when contains msg "corrupt state chunk" -> ()
      | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: loaded" what);
      with_lkst fs vfs (fun _ -> Bytes.of_string pristine))
    [ ("f = 0", fun p -> Bytes.set_int64_le p 4 (Int64.bits_of_float 0.));
      ("f = nan", fun p -> Bytes.set_int64_le p 4 (Int64.bits_of_float Float.nan));
      ("f = 1.5", fun p -> Bytes.set_int64_le p 4 (Int64.bits_of_float 1.5));
      ("b = 3", fun p -> Bytes.set_int32_le p 0 3l);
      ("b = 2^31 - 1", fun p -> Bytes.set_int32_le p 0 Int32.max_int);
      ( Printf.sprintf "b = %d, a page past a chunk" b_over,
        fun p -> Bytes.set_int32_le p 0 (Int32.of_int b_over) );
      ("key space 0", fun p -> Bytes.set_int64_le p 16 0L);
      ("a current root that is no page", fun p -> Bytes.set_int64_le p 40 (Int64.of_int (1 lsl 40)))
    ];
  Alcotest.(check bool) "intact, it loads" true (Rta.page_count (Rta.load ~vfs ~snapshot:"s" ()) > 0)

(* tmpfs where there is one: the engine runs are fsync-bound, and a
   mapping of a tmpfs file is a mapping all the same. *)
let fast_temp_dir prefix =
  let temp_dir =
    if Sys.file_exists "/dev/shm" then "/dev/shm" else Filename.get_temp_dir_name ()
  in
  Filename.temp_dir ~temp_dir prefix ""

(* --- The overlay against a model ------------------------------------------------- *)

(* Pages of raw bytes, sealed when told: any payload the room holds. *)
module Raw = struct
  type t = { data : string; sealed : bool }

  let encode buf ~off ~len p =
    let n = String.length p.data in
    if n > len then raise (Storage.Codec.Overflow "raw page");
    String.iteri (fun i c -> Zc.set_u8 buf (off + i) (Char.code c)) p.data;
    n

  let sealed p = p.sealed
end

module RStore = Storage.Page_store.Mmap (Raw)

type store_op = Alloc | Write of int * int * bool | Free of int | Rebase

let pp_store_op = function
  | Alloc -> "alloc"
  | Write (i, n, sealed) -> Printf.sprintf "write %d %dB%s" i n (if sealed then " sealed" else "")
  | Free i -> Printf.sprintf "free %d" i
  | Rebase -> "rebase"

(* Random runs of the store's operations at a 128-byte page size: allocs;
   writes of pages that can still change and of sealed ones, of any
   length from 0 to the codec's 120 bytes of room, to fresh pages and to
   written ones (a sealed page written sealed again is a re-seal); frees;
   and rebases onto a file of every page's frame, as a checkpoint makes
   one.  After each step, every page written reads back as the model has
   it — held as written if it can change and was written since the last
   rebase, else a frame whose payload is its bytes — a freed page is
   gone, and the overlay holds no more than the frames appended since the
   last rebase, each from an 8-byte boundary, plus one room per RAM
   chunk. *)
let prop_overlay_model backing =
  let page_size = 128 in
  let chunk = 64 * page_size in
  (* Rebases are rare enough that the frames sealed between two often
     fill more than a RAM chunk. *)
  let gen =
    QCheck.Gen.(
      list_size (0 -- 800)
        (frequency
           [ (20, return Alloc);
             ( 100,
               map3
                 (fun i n s -> Write (i, n, s > 0))
                 (0 -- 1000) (0 -- (page_size - 8)) (0 -- 3) );
             (8, map (fun i -> Free i) (0 -- 1000));
             (1, return Rebase) ]))
  in
  QCheck.Test.make ~count:30
    ~name:
      (Printf.sprintf "the overlay agrees with a model, %s"
         (if backing = `Buffered then "buffered" else "mapped"))
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops)) gen)
    (fun ops ->
      let dir = fast_temp_dir "rta-test-model" in
      Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
      let s = RStore.create ~page_size ~backing ~path:(Filename.concat dir "o") () in
      Fun.protect ~finally:(fun () -> RStore.close s) @@ fun () ->
      let module Id = Storage.Page_id in
      (* page id -> (page, held as written) *)
      let model = Hashtbl.create 64 and writable = ref [||] and freed = ref [] in
      let appended = ref 0 and bases = ref 0 in
      let written () = Hashtbl.fold (fun id _ acc -> id :: acc) model [] |> List.sort compare in
      let base_file n = Filename.concat dir (Printf.sprintf "base%d" n) in
      let step k = function
        | Alloc -> writable := Array.append !writable [| Id.to_int (RStore.alloc s) |]
        | Write (i, n, sealed) when !writable <> [||] ->
            let id = !writable.(i mod Array.length !writable) in
            let p =
              { Raw.data = String.init n (fun j -> Char.chr ((k + (31 * j)) land 0xff)); sealed }
            in
            RStore.write s (Id.of_int id) (Storage.Page_store.Decoded p);
            Hashtbl.replace model id (p, not sealed);
            if sealed then appended := !appended + ((RStore.block_overhead + n + 7) land lnot 7)
        | Free i when Hashtbl.length model > 0 ->
            let ids = written () in
            let id = List.nth ids (i mod List.length ids) in
            RStore.free s (Id.of_int id);
            Hashtbl.remove model id;
            writable := Array.of_list (List.filter (( <> ) id) (Array.to_list !writable));
            freed := id :: !freed
        | Rebase ->
            let frames =
              List.map (fun id -> (id, RStore.read_frame s (Id.of_int id))) (written ())
            in
            incr bases;
            write_bytes (base_file !bases) (Bytes.concat Bytes.empty (List.map snd frames));
            let staged = RStore.stage s ~file:(base_file !bases) () in
            ignore
              (List.fold_left
                 (fun offset (id, f) ->
                   ignore
                     (RStore.stage_frame staged (Id.of_int id) ~offset f ~pos:0
                        ~len:(Bytes.length f));
                   offset + Bytes.length f)
                 0 frames);
            RStore.rebase s staged;
            if !bases > 1 then Sys.remove (base_file (!bases - 1));
            Hashtbl.filter_map_inplace (fun _ (p, _) -> Some (p, false)) model;
            appended := 0
        | Write _ | Free _ -> ()
      in
      let check k op =
        let fail fmt = QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) k (pp_store_op op) in
        Hashtbl.iter
          (fun id (p, held) ->
            match RStore.read s (Id.of_int id) with
            | Storage.Page_store.Decoded q ->
                if not (held && q == p) then fail "page %d came back decoded" id
            | Framed ->
                if held then fail "page %d, held as written, came back framed" id;
                let buf, off, len = RStore.frame s (Id.of_int id) in
                if String.init len (fun j -> Char.chr (Zc.get_u8 buf (off + j))) <> p.Raw.data
                then fail "page %d reads %d bytes, not its %d" id len (String.length p.Raw.data))
          model;
        List.iter
          (fun id ->
            match RStore.read s (Id.of_int id) with
            | exception Not_found -> ()
            | _ -> fail "freed page %d reads" id)
          !freed;
        let used = RStore.overlay_bytes s in
        let chunks = (used + chunk - 1) / chunk in
        if used > !appended + (page_size * chunks) then
          fail "the overlay holds %d bytes, %d appended since the last rebase" used !appended
      in
      List.iteri
        (fun k op ->
          step k op;
          check k op)
        ops;
      true)

(* --- Frames the pool holds while they move -------------------------------------- *)

(* A query scans a pooled frame where the store has it now, never through
   a buffer kept from when it was faulted in: a rebase moves every frame
   into the new base and releases the old one (under [`Map], unmaps it:
   a kept view would fault), and a growing overlay moves to a new buffer.
   With a pool that never evicts, the frames faulted in from the first
   base are still pooled after a second rebase, and those faulted in from
   the overlay after it has grown; answers match those of a twin built
   without a path (its overlays in RAM) throughout, points and ranges
   alike. *)
let test_frames_move backing () =
  let dir = fast_temp_dir "rta-test-move" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let config = { (Mvsbt.default_config ~b:8) with f = 0.75 } and max_key = 40 in
  let twin = Rta.create ~config ~max_key () in
  let disk =
    Rta.create ~config ~pool_capacity:20_000 ~backing ~path:(Filename.concat dir "w") ~max_key ()
  in
  Fun.protect ~finally:(fun () -> Rta.close disk) @@ fun () ->
  let now = ref 0 in
  let play n =
    for _ = 1 to n do
      incr now;
      let key = (!now * 7) mod max_key in
      List.iter
        (fun rta ->
          if Rta.is_alive rta ~key then Rta.delete rta ~key ~at:!now
          else Rta.insert rta ~key ~value:(1 + (!now mod 13)) ~at:!now)
        [ twin; disk ]
    done
  in
  let agree what =
    for i = 0 to 20 do
      let at = i * (!now + 2) / 20 and key = (i * 3) mod (max_key + 1) in
      Alcotest.(check (pair int int)) (what ^ ": lkst") (Rta.lkst twin ~key ~at)
        (Rta.lkst disk ~key ~at);
      Alcotest.(check (pair int int)) (what ^ ": lklt") (Rta.lklt twin ~key ~at)
        (Rta.lklt disk ~key ~at);
      let klo = i mod 10 and tlo = at / 2 in
      Alcotest.(check (pair int int)) (what ^ ": range")
        (Rta.sum_count twin ~klo ~khi:(klo + 25) ~tlo ~thi:(at + 1))
        (Rta.sum_count disk ~klo ~khi:(klo + 25) ~tlo ~thi:(at + 1))
    done
  in
  let checkpoint gen =
    let rebase = Rta.save_staged disk ~path:(Filename.concat dir (Printf.sprintf "c%d" gen)) in
    rebase ()
  in
  play 600;
  checkpoint 1;
  Rta.drop_cache disk;
  agree "faulted in from the first base";
  checkpoint 2;
  List.iter (fun ext -> Sys.remove (Filename.concat dir ("c1" ^ ext))) [ ".lkst"; ".lklt"; ".meta" ];
  agree "pooled across a rebase";
  (* Sealed pages reach the overlay when the pool writes them back: a
     save cleans the pool, and the frames faulted in after it are the
     overlay's. *)
  play 600;
  Rta.save disk ~path:(Filename.concat dir "x");
  Rta.drop_cache disk;
  agree "faulted in from the overlay";
  let overlay_bytes () = (Unix.stat (Filename.concat dir "w.lkst.pages")).Unix.st_size in
  let before = if backing = `Map then overlay_bytes () else 0 in
  play 3000;
  Rta.save disk ~path:(Filename.concat dir "x");
  if backing = `Map then
    Alcotest.(check bool) "the overlay grew" true (overlay_bytes () > before);
  agree "pooled across the overlay's growth";
  Rta.check_invariants disk

(* --- Rot under a pooled frame ----------------------------------------------------- *)

(* A mapped base shows the checkpoint file's current bytes, so a frame
   the pool took in while its CRC held can rot while it stays pooled.  A
   scan must still fail on it, with no fault to re-check it: here every
   page of a mapped base is pooled, a byte of each page's first record is
   flipped in the file, and a query fails with [Corrupt_page] reading no
   page from the store.  A vacuum, which decodes what it prunes and
   re-encodes it, fails too, and re-seals nothing: once the bytes are
   mended, answers are the RAM twin's again. *)
let test_rot_while_pooled () =
  let dir = fast_temp_dir "rta-test-rot" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let config = { (Mvsbt.default_config ~b:8) with f = 0.75 } and max_key = 40 in
  let twin = Rta.create ~config ~max_key () in
  let disk =
    Rta.create ~config ~pool_capacity:20_000 ~backing:`Map ~path:(Filename.concat dir "w")
      ~max_key ()
  in
  Fun.protect ~finally:(fun () -> Rta.close disk) @@ fun () ->
  for at = 1 to 600 do
    let key = at * 7 mod max_key in
    List.iter
      (fun rta ->
        if Rta.is_alive rta ~key then Rta.delete rta ~key ~at
        else Rta.insert rta ~key ~value:(1 + (at mod 13)) ~at)
      [ twin; disk ]
  done;
  let base = Filename.concat dir "c1" in
  Rta.save_staged disk ~path:base ();
  let agree what ~from =
    for i = 0 to 20 do
      let at = from + (i * (602 - from) / 20) and key = i * 3 mod (max_key + 1) in
      Alcotest.(check (pair int int)) (what ^ ": lkst") (Rta.lkst twin ~key ~at)
        (Rta.lkst disk ~key ~at);
      Alcotest.(check (pair int int)) (what ^ ": range")
        (Rta.sum_count twin ~klo:0 ~khi:max_key ~tlo:from ~thi:(at + 1))
        (Rta.sum_count disk ~klo:0 ~khi:max_key ~tlo:from ~thi:(at + 1))
    done
  in
  Rta.drop_cache disk;
  agree "faulted in from the base" ~from:0;
  (* The first byte of each page's first record, past the page header. *)
  let flip_all () =
    List.iter
      (fun ext ->
        let file = base ^ ext in
        let data = read_file file in
        List.iteri
          (fun i at ->
            if i >= 2 && Int32.to_int (String.get_int32_le data (at + 8 + 44)) > 0 then
              flip_in_place file (at + 8 + Layout.header_bytes))
          (chunk_offsets data))
      [ ".lkst"; ".lklt" ]
  in
  let corrupt what f =
    match f () with
    | exception Storage.Page_store.Corrupt_page _ -> ()
    | _ -> Alcotest.failf "%s: no Corrupt_page" what
  in
  flip_all ();
  let stats = Rta.stats disk in
  let reads = Storage.Io_stats.reads stats in
  corrupt "a query over pooled frames" (fun () ->
      Rta.sum_count disk ~klo:0 ~khi:max_key ~tlo:0 ~thi:601);
  Alcotest.(check int) "every frame was pooled" reads (Storage.Io_stats.reads stats);
  corrupt "a vacuum" (fun () -> Rta.vacuum disk ~horizon:300);
  flip_all ();
  agree "mended in place" ~from:(Rta.horizon disk);
  ignore (Rta.vacuum disk ~horizon:300);
  agree "vacuumed once mended" ~from:300;
  Rta.check_invariants disk

(* --- Dead frames go with the checkpoint ---------------------------------------- *)

(* A vacuum re-seals the pages it prunes, appending each to the overlay
   again and leaving its old frame there dead, and a page it frees
   leaves its frame dead too.  The checkpoint after it copies the live
   pages into the next base and empties the overlay, dead frames and
   all.  Under either store, answers match a RAM twin's before the
   vacuum, after it and after the checkpoint. *)
let test_vacuum_then_checkpoint store () =
  let dir = fast_temp_dir "rta-test-dead" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let config = { (Mvsbt.default_config ~b:8) with f = 0.75 } and max_key = 40 in
  let twin = Rta.create ~config ~max_key () in
  let eng =
    Durable.open_ ~config ~store ~pool_capacity:8 ~max_key ~path:(Filename.concat dir "w") ()
  in
  Fun.protect ~finally:(fun () -> Durable.close eng) @@ fun () ->
  let disk = Durable.warehouse eng and ok = Storage.Storage_error.ok_exn in
  let play lo hi =
    for at = lo to hi do
      let key = at * 7 mod max_key and value = 1 + (at mod 13) in
      if Rta.is_alive twin ~key then begin
        ok (Durable.delete eng ~key ~at);
        Rta.delete twin ~key ~at
      end
      else begin
        ok (Durable.insert eng ~key ~value ~at);
        Rta.insert twin ~key ~value ~at
      end
    done
  in
  let agree what =
    let from = Rta.horizon disk in
    for i = 0 to 20 do
      let at = from + (i * (1202 - from) / 20) and key = i * 3 mod (max_key + 1) in
      Alcotest.(check (pair int int)) (what ^ ": lkst") (Rta.lkst twin ~key ~at)
        (Rta.lkst disk ~key ~at);
      Alcotest.(check (pair int int)) (what ^ ": range")
        (Rta.sum_count twin ~klo:(i mod 10) ~khi:max_key ~tlo:from ~thi:(at + 1))
        (Rta.sum_count disk ~klo:(i mod 10) ~khi:max_key ~tlo:from ~thi:(at + 1))
    done
  in
  play 1 600;
  ok (Durable.checkpoint eng);
  play 601 1200;
  (* A cold pool: the pages sealed since the checkpoint are in the
     overlay. *)
  Rta.drop_cache disk;
  agree "before the vacuum";
  let sealed = Rta.overlay_bytes disk in
  Alcotest.(check bool) "the overlay holds the pages sealed since the checkpoint" true
    (sealed > 0);
  let r = ok (Durable.vacuum eng ~horizon:900) in
  ignore (Rta.vacuum twin ~horizon:900);
  Rta.drop_cache disk;
  Alcotest.(check bool) "the vacuum freed and pruned pages" true
    (r.Rta.v_progress.Rta.pages_freed > 0 && r.Rta.v_progress.Rta.pages_pruned > 0);
  Alcotest.(check bool) "pruned pages are appended again" true (Rta.overlay_bytes disk > sealed);
  agree "after the vacuum";
  ok (Durable.checkpoint eng);
  Alcotest.(check int) "the checkpoint empties the overlay" 0 (Rta.overlay_bytes disk);
  agree "after the checkpoint";
  Rta.check_invariants disk

(* --- Cross-backend equivalence ------------------------------------------------ *)

(* The engine's files under [dir], by name, as a [Vfs.Memory] image
   lists them: the WAL, the checkpoints and the pointer.  The overlays
   and the lock file have no counterpart under the memory store. *)
let dir_image dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         not (Filename.check_suffix f ".pages" || Filename.check_suffix f ".lock"))
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* One deterministic engine run: the harness's alive-aware script under a
   given store kind and a 4-page pool, over a [Vfs.Memory] under
   [Memory], or under [Mmap] the files of a temp directory, mapped, with
   pages of 6 records so that the tree closes pages from the first
   updates.  A first life plays half the script, checkpoints, plays an eighth more
   and asks queries that are answered through the rebased base and the
   emptied overlay, then closes.  A second life reopens from that
   checkpoint plus the WAL tail (the checkpoint read in place and the
   tail replayed over it), plays another eighth, checkpoints, asks,
   vacuums half the history away, plays the rest, checkpoints a second
   time and asks again.  Every range answer is paired with the oracle's,
   [None] where the window reaches below the horizon.  Each round also
   holds the same ranges and every point (each key, at times from the
   horizon to past the last update: points on closed pages, which are
   framed, and on alive ones, held decoded since they were written) to
   the oracle, first from a cold pool and then again from the warm one,
   and fails at the first answer that differs.  Returns the
   answers, the page and record counts after the last checkpoint and
   after a reopen from it, and the image of the engine's files: the
   working set never reaches it, so under either store only WAL,
   checkpoints and pointer do. *)
let run_script ~store ~seed ~updates ~max_key =
  let with_files k =
    match store with
    | Storage.Store_kind.Memory ->
        let fs = M.create () in
        k (M.vfs fs) "w" (fun () -> M.contents fs)
    | Storage.Store_kind.Mmap ->
        let dir = fast_temp_dir "rta-test-agree" in
        Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
        k Storage.Vfs.os (Filename.concat dir "w") (fun () -> dir_image dir)
  in
  with_files @@ fun vfs path image ->
  let config = Mvsbt.default_config ~b:6 in
  let open_ () =
    Durable.open_ ~config ~sync_policy:(Wal.Every_n 4) ~store ~pool_capacity:4 ~vfs ~max_key
      ~path ()
  in
  let ok = Storage.Storage_error.ok_exn in
  let rng = Random.State.make [| seed; 0x3a7e |] in
  let oracle = Reference.Warehouse.create () in
  let now = ref 0 in
  let play eng n =
    let rta = Durable.warehouse eng in
    for _ = 1 to n do
      now := !now + Random.State.int rng 3;
      let alive = Rta.alive_count rta in
      let start = Random.State.int rng max_key in
      if alive > 0 && (alive >= max_key || Random.State.int rng 3 = 0) then begin
        let rec find i =
          let k = (start + i) mod max_key in
          if Rta.is_alive rta ~key:k then k else find (i + 1)
        in
        let key = find 0 in
        ok (Durable.delete eng ~key ~at:!now);
        Reference.Warehouse.delete oracle ~key ~at:!now
      end
      else begin
        let rec find i =
          let k = (start + i) mod max_key in
          if Rta.is_alive rta ~key:k then find (i + 1) else k
        in
        let key = find 0 in
        let value = 1 + Random.State.int rng 100 in
        ok (Durable.insert eng ~key ~value ~at:!now);
        Reference.Warehouse.insert oracle ~key ~value ~at:!now
      end
    done
  in
  let answers = ref [] in
  let guarded f = match f () with v -> Some v | exception Mvsbt.Below_horizon _ -> None in
  (* The oracle's answer, [None] below the horizon [h]. *)
  let oracle_at h at f = if at < h then None else Some (f oracle) in
  let oracle_range h (klo, khi, tlo, thi) =
    oracle_at h (max 0 tlo) (fun o ->
        ( Reference.Warehouse.rta_sum o ~klo ~khi ~tlo ~thi,
          Reference.Warehouse.rta_count o ~klo ~khi ~tlo ~thi ))
  in
  let as_oracle eng round ~warm rects =
    let rta = Durable.warehouse eng and h = Durable.horizon eng in
    let differs what got want =
      if got <> want then
        QCheck.Test.fail_reportf "%s, round %d, %s pool: %s differs from the oracle's"
          (Storage.Store_kind.to_string store) round
          (if warm then "warm" else "cold")
          what
    in
    let times = List.init 7 (fun i -> h + (i * (!now + 3 - h) / 6)) in
    for key = 0 to max_key do
      List.iter
        (fun at ->
          let point name f want =
            differs
              (Printf.sprintf "%s (%d, %d)" name key at)
              (guarded (fun () -> f rta ~key ~at))
              (oracle_at h at (fun o -> want o ~key ~at))
          in
          point "lkst" Rta.lkst Reference.Warehouse.lkst;
          point "lklt" Rta.lklt Reference.Warehouse.lklt)
        times
    done;
    List.iter
      (fun ((klo, khi, tlo, thi) as rect) ->
        differs
          (Printf.sprintf "[%d, %d) x [%d, %d)" klo khi tlo thi)
          (guarded (fun () -> Rta.sum_count rta ~klo ~khi ~tlo ~thi))
          (oracle_range h rect))
      rects
  in
  let ask eng round =
    (* A cold pool: the answers read their pages out of the store. *)
    Rta.drop_cache (Durable.warehouse eng);
    let h = Durable.horizon eng in
    let rects = Faultsim.Scenario.rectangles ~max_key ~max_t:(!now + 2) ~seed:(seed + round) ~count:10 in
    List.iter
      (fun ((klo, khi, tlo, thi) as rect) ->
        let got = guarded (fun () -> Durable.sum_count eng ~klo ~khi ~tlo ~thi) in
        answers := (got, oracle_range h rect) :: !answers)
      rects;
    Rta.drop_cache (Durable.warehouse eng);
    as_oracle eng round ~warm:false rects;
    as_oracle eng round ~warm:true rects
  in
  let eighth = max 1 (updates / 8) in
  let eng = open_ () in
  play eng (updates / 2);
  ok (Durable.checkpoint eng);
  play eng eighth;
  ask eng 1;
  Durable.close eng;
  let eng = open_ () in
  let report = Durable.recovery_report eng in
  if report.Durable.checkpoint_gen <> Some 1 || report.Durable.replayed <> eighth then
    QCheck.Test.fail_reportf "reopen under %s: %a" (Storage.Store_kind.to_string store)
      Durable.pp_recovery_report report;
  play eng eighth;
  ok (Durable.checkpoint eng);
  ask eng 2;
  ignore (ok (Durable.vacuum eng ~horizon:(!now / 2)));
  play eng (updates - (updates / 2) - (2 * eighth));
  ok (Durable.checkpoint eng);
  ask eng 3;
  let rta = Durable.warehouse eng in
  Rta.check_invariants rta;
  let counts rta = (Rta.page_count rta, Rta.record_count rta) in
  let live = counts rta in
  Durable.close eng;
  let eng = open_ () in
  let reopened = counts (Durable.warehouse eng) in
  Durable.close eng;
  (List.rev !answers, (live, reopened), image ())

let prop_backends_agree =
  QCheck.Test.make ~count:15 ~name:"memory/mmap engines are indistinguishable"
    QCheck.(pair (int_range 1 1000) (int_range 20 60))
    (fun (seed, updates) ->
      let max_key = 12 in
      let run store = run_script ~store ~seed ~updates ~max_key in
      let legs =
        [ ("memory", run Storage.Store_kind.Memory); ("mmap", run Storage.Store_kind.Mmap) ]
      in
      let _, (_, _, image) = List.hd legs in
      List.iter
        (fun (name, (answers, (live, reopened), image')) ->
          (* oracle-exact answers, through every rebase... *)
          List.iteri
            (fun i (got, want) ->
              if got <> want then QCheck.Test.fail_reportf "%s: query %d diverges" name i)
            answers;
          (* ...a store that holds what a reopen from its checkpoint
             holds... *)
          if live <> reopened then
            QCheck.Test.fail_reportf "%s: %d pages, %d records; reopened, %d and %d" name
              (fst live) (snd live) (fst reopened) (snd reopened);
          (* ...and byte-identical images (WAL, checkpoint snapshots,
             pointer), the later checkpoints written from trees rebased
             onto earlier ones. *)
          if image' <> image then
            QCheck.Test.fail_reportf "%s: checkpoint image differs from memory" name)
        legs;
      true)

(* --- Mappings of removed generations --------------------------------------------- *)

(* A rebase releases the base it leaves, and the overlay it empties, at
   once: a buffer of either, fetched before, has no elements afterwards.
   A mapped base's file is unmapped, and so are a RAM base's chunks, which
   are anonymous mappings, so the memory goes back to the system without
   waiting for the GC.  A close releases the last base the same way.
   [backing] is the store's: [`Buffered] for the memory store, whose
   bases are RAM images of the checkpoint's frames, [`Auto] for the mmap
   store. *)
let check_bases_released backing =
  let dir = fast_temp_dir "rta-test-release" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let s = RStore.create ~page_size:128 ~backing ~path:(Filename.concat dir "o") () in
  let page k = Storage.Page_store.Decoded { Raw.data = String.make (k + 1) 'p'; sealed = true } in
  let ids = List.init 40 (fun k -> (RStore.alloc s, k)) in
  List.iter (fun (id, k) -> RStore.write s id (page k)) ids;
  (* A checkpoint's rebase: every page's frame into a file, staged as the
     open stages a checkpoint, with the file's size. *)
  let rebase gen =
    let file = Filename.concat dir (Printf.sprintf "base%d" gen) in
    let frames = List.map (fun (id, _) -> (id, RStore.read_frame s id)) ids in
    write_bytes file (Bytes.concat Bytes.empty (List.map snd frames));
    let staged = RStore.stage s ~file ~size:(Unix.stat file).Unix.st_size () in
    ignore
      (List.fold_left
         (fun offset (id, f) ->
           ignore (RStore.stage_frame staged id ~offset f ~pos:0 ~len:(Bytes.length f));
           offset + Bytes.length f)
         0 frames);
    RStore.rebase s staged
  in
  let buffer (id, _) =
    let buf, _, _ = RStore.frame s id in
    buf
  in
  let reads what =
    List.iter
      (fun (id, k) ->
        let buf, off, len = RStore.frame s id in
        if len <> k + 1 || Zc.get_u8 buf off <> Char.code 'p' then
          Alcotest.failf "%s: page %d reads %d bytes" what k len)
      ids
  in
  rebase 1;
  let base = buffer (List.hd ids) in
  (* A page sealed again goes to the overlay. *)
  let last = List.nth ids 39 in
  RStore.write s (fst last) (page (snd last));
  let overlay = buffer last in
  Alcotest.(check bool) "the base and the overlay hold frames" true
    (Bigarray.Array1.dim base > 0 && Bigarray.Array1.dim overlay > 0);
  rebase 2;
  Alcotest.(check (pair int int)) "the base and the overlay a rebase leaves hold nothing"
    (0, 0) (Bigarray.Array1.dim base, Bigarray.Array1.dim overlay);
  reads "after the rebase";
  let base = buffer (List.hd ids) in
  RStore.close s;
  Alcotest.(check int) "a close releases the last base" 0 (Bigarray.Array1.dim base)

(* Each rebase unmaps the generation it leaves before the checkpoint
   removes it, instead of leaving the mapping to the GC: a removed file
   that is still mapped keeps its blocks on disk and its touched pages
   resident.  After two checkpoints over a mapped store, the process maps
   the generation in use and no removed one.  On the way: an open writes
   no page, and each checkpoint empties the overlay the pool's evictions
   wrote. *)
let check_no_removed_file_mapped () =
  let maps = "/proc/self/maps" in
  if not (Sys.file_exists maps) then Alcotest.skip ();
  let dir = fast_temp_dir "rta-test-maps" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 100 in
  let open_ () =
    Durable.open_ ~store:Storage.Store_kind.Mmap ~pool_capacity:4
      ~max_key ~path ()
  in
  (* Whether the LKST overlay holds a written slot. *)
  let overlay_pages () =
    String.exists (fun c -> c <> '\000') (read_file (path ^ ".store.lkst.pages"))
  in
  let round eng r =
    for i = 0 to 299 do
      let at = (r * 300) + i and key = (i * 7) mod max_key in
      Storage.Storage_error.ok_exn
        (if Rta.is_alive (Durable.warehouse eng) ~key then Durable.delete eng ~key ~at
         else Durable.insert eng ~key ~value:(at + 1) ~at)
    done;
    ignore (Durable.sum_count eng ~klo:0 ~khi:max_key ~tlo:0 ~thi:((r + 1) * 300));
    let before = overlay_pages () in
    Storage.Storage_error.ok_exn (Durable.checkpoint eng);
    if r > 0 then
      Alcotest.(check (pair bool bool))
        (Printf.sprintf "checkpoint %d empties the overlay it found written" r)
        (true, false) (before, overlay_pages ())
  in
  let eng = open_ () in
  round eng 0;
  Durable.close eng;
  let eng = open_ () in
  Fun.protect ~finally:(fun () -> Durable.close eng) @@ fun () ->
  Alcotest.(check int) "the open writes no page" 0
    (Storage.Io_stats.writes (Durable.io_stats eng));
  round eng 1;
  round eng 2;
  let mapped =
    read_file maps |> String.split_on_char '\n'
    |> List.filter (fun l -> Option.is_some (String.index_opt l '/'))
    |> List.filter (fun l ->
           let file = String.sub l (String.index l '/') (String.length l - String.index l '/') in
           String.starts_with ~prefix:(path ^ ".ckpt-") file)
  in
  let deleted = List.filter (fun l -> Filename.check_suffix l "(deleted)") mapped in
  if deleted <> [] then Alcotest.failf "removed generations still mapped:\n%s" (String.concat "\n" deleted);
  Alcotest.(check bool) "the generation in use is mapped" true
    (List.exists (fun l -> Filename.check_suffix l (path ^ ".ckpt-3.lkst")) mapped)

(* Under either store, a buffer of a base or an overlay that a rebase
   leaves has no elements; the memory store, which maps no file, is
   checked for that alone. *)
let test_no_removed_generation_mapped store () =
  match store with
  | Storage.Store_kind.Memory -> check_bases_released `Buffered
  | Mmap ->
      check_bases_released `Auto;
      check_no_removed_file_mapped ()

(* --- Descriptor hygiene ---------------------------------------------------------- *)

(* Durable.close must release the working set's page files, not just the
   log: [cycles] open/insert/close cycles (with checkpoints, so reopens
   stream snapshots into fresh page files) keep the descriptor count
   flat.  A leak of one descriptor per cycle would show as [cycles]. *)
let test_close_releases_fds ~cycles store () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  (* The count of descriptors does not depend on the filesystem. *)
  let dir = fast_temp_dir "rta-test-fds" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let cycle i =
    let eng =
      Durable.open_ ~store ~checkpoint_every:50
        ~max_key:1000
        ~path:(Filename.concat dir "wh") ()
    in
    Storage.Storage_error.ok_exn (Durable.insert eng ~key:i ~value:1 ~at:i);
    Durable.close eng
  in
  cycle 0;
  let base = open_fds () in
  for i = 1 to cycles - 1 do
    cycle i
  done;
  Alcotest.(check int) (Printf.sprintf "descriptors after %d cycles" cycles) base (open_fds ())

(* --- A second process on a live warehouse ---------------------------------------- *)

(* A forked child opens the warehouse this process is serving.  The log's
   lock must turn it away before it touches anything — the pointer, a
   stale generation, the page files the live engine runs over.  Updates
   after the first checkpoint have rewritten pages in those files, so a
   child that rebuilt them from the snapshot would leave the parent
   reading stale pages (or faulting past a shrunken mapping). *)
let test_second_open_rejected kind () =
  let dir = Filename.temp_dir "rta-test-lock" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 100 in
  let open_ ~store = Durable.open_ ~store ~pool_capacity:8 ~max_key ~path () in
  let store = kind in
  (* Every file's bytes but the log's and its lock file's: closing any
     descriptor of the lock file would drop this process's [lockf] lock
     on it, so both are only stat'ed. *)
  let wal = Durable.wal_path path in
  let files () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           let p = Filename.concat dir f in
           if p = wal || p = wal ^ ".lock" then (f, string_of_int (Unix.stat p).Unix.st_size)
           else
             let ic = open_in_bin p in
             Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
             (f, really_input_string ic (in_channel_length ic)))
  in
  let oracle = Reference.Warehouse.create () in
  let eng = open_ ~store in
  let apply i =
    let key = i * 7 mod max_key in
    if Rta.is_alive (Durable.warehouse eng) ~key then begin
      Storage.Storage_error.ok_exn (Durable.delete eng ~key ~at:i);
      Reference.Warehouse.delete oracle ~key ~at:i
    end
    else begin
      Storage.Storage_error.ok_exn (Durable.insert eng ~key ~value:(i + 1) ~at:i);
      Reference.Warehouse.insert oracle ~key ~value:(i + 1) ~at:i
    end
  in
  for i = 0 to 1499 do
    apply i
  done;
  Storage.Storage_error.ok_exn (Durable.checkpoint eng);
  for i = 1500 to 2999 do
    apply i
  done;
  let before = files () in
  flush_all ();
  (match Unix.fork () with
  | 0 ->
      let locked msg =
        let needle = "locked by another process" in
        let n = String.length needle in
        let rec scan i =
          i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
        in
        scan 0
      in
      Unix._exit
        (match open_ ~store with
        | _ -> 2
        | exception Failure msg when locked msg -> 0
        | exception _ -> 3)
  | child -> (
      match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 2 -> Alcotest.fail "second open succeeded"
      | _, Unix.WEXITED n -> Alcotest.failf "second open: exit %d, not the lock error" n
      | _ -> Alcotest.fail "second open: child killed"));
  Alcotest.(check (list (pair string string))) "no file touched" before (files ());
  let check_answers what eng =
    List.iter
      (fun (klo, khi, tlo, thi) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s [%d,%d)x[%d,%d)" what klo khi tlo thi)
          ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
            Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
          (Durable.sum_count eng ~klo ~khi ~tlo ~thi))
      (Faultsim.Scenario.rectangles ~max_key ~max_t:3002 ~seed:5 ~count:40)
  in
  (* Cold pool: every answer reads its pages back out of the files. *)
  Rta.drop_cache (Durable.warehouse eng);
  check_answers "holder" eng;
  Storage.Storage_error.ok_exn (Durable.checkpoint eng);
  Durable.close eng;
  let eng = open_ ~store:Storage.Store_kind.Memory in
  Alcotest.(check int) "second checkpoint holds every update" 0
    (Durable.replayed_on_open eng);
  check_answers "second checkpoint" eng;
  Durable.close eng

(* An open that fails after it has opened the log and built the working
   set — here, a checkpoint whose max_key disagrees — gives both back. *)
let test_failed_open_releases_fds store () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  let dir = Filename.temp_dir "rta-test-fds" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let open_ ~max_key =
    Durable.open_ ~store ~max_key ~path ()
  in
  let eng = open_ ~max_key:1000 in
  for i = 0 to 99 do
    Storage.Storage_error.ok_exn (Durable.insert eng ~key:i ~value:1 ~at:i)
  done;
  Storage.Storage_error.ok_exn (Durable.checkpoint eng);
  Durable.close eng;
  let base = open_fds () in
  for _ = 1 to 100 do
    match open_ ~max_key:999 with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "open with the wrong max_key succeeded"
  done;
  Alcotest.(check int) "descriptors after 100 failed opens" base (open_fds ());
  let eng = open_ ~max_key:1000 in
  Alcotest.(check (pair int int)) "warehouse intact" (100, 100)
    (Durable.sum_count eng ~klo:0 ~khi:1000 ~tlo:0 ~thi:200);
  Durable.close eng

(* --- Crash matrices over the mmap working set --------------------------------- *)

module S = Faultsim.Scenario

let last_image j =
  let images = Faultsim.Explorer.enumerate (Array.to_list j.S.ops) in
  List.nth images (List.length images - 1)

(* The matrices' mmap leg recovers from a mapped checkpoint, not from a
   RAM copy: an engine opened inside [Scenario.with_image] over the
   trace's last image maps that image's checkpoint, and the directory
   goes with it. *)
let test_image_recovery_maps () =
  let maps = "/proc/self/maps" in
  if not (Sys.file_exists maps) then Alcotest.skip ();
  let j = S.record ~checkpoint_every:20 (S.script `Crash ~seed:1 ~updates:40 ~max_key:10) in
  let dir =
    S.with_image Storage.Store_kind.Mmap ~prefix:"w" (last_image j) @@ fun vfs path ->
    let eng = Durable.open_ ~store:Storage.Store_kind.Mmap ~vfs ~max_key:10 ~path () in
    Fun.protect ~finally:(fun () -> Durable.close eng) @@ fun () ->
    let mapped =
      read_file maps |> String.split_on_char '\n'
      |> List.exists (fun l ->
             match String.index_opt l '/' with
             | Some i ->
                 String.starts_with ~prefix:(path ^ ".ckpt-")
                   (String.sub l i (String.length l - i))
             | None -> false)
    in
    Alcotest.(check bool) "the checkpoint is mapped" true mapped;
    Filename.dirname path
  in
  Alcotest.(check bool) "the directory is removed" false (Sys.file_exists dir)

(* A failed check closes the engine it opened: under the mmap store a
   leaked engine would keep its descriptors and its mapped checkpoint
   after the image's directory is gone. *)
let test_failed_check_closes () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  let j = S.record ~checkpoint_every:20 (S.script `Crash ~seed:1 ~updates:40 ~max_key:10) in
  let o = S.oracle j.S.script j.S.log in
  let base = open_fds () in
  let vs =
    S.with_image Storage.Store_kind.Mmap ~prefix:"w" (last_image j) @@ fun vfs path ->
    S.check_recovered o ~floor:1000 ~ceiling:1000 (fun () ->
        Durable.open_ ~store:Storage.Store_kind.Mmap ~vfs ~max_key:10 ~path ())
  in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  Alcotest.(check int) "descriptors after the check" base (open_fds ())

let no_violations what r =
  match r.S.violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s violation at %s: %s" what v.S.at v.S.reason

(* Explorer tears the journal at every boundary.  Neither store's working
   set reaches the journaled files, so the images are those of the
   memory store; recovery under the mmap store writes each out to a real
   directory, maps its checkpoint and rebuilds the working set from it. *)
let test_crash_matrix_mmap () =
  let j = S.record ~checkpoint_every:20 (S.script `Crash ~seed:1 ~updates:40 ~max_key:10) in
  let r = S.crash ~limit:60 ~store:Storage.Store_kind.Mmap j in
  no_violations "crash matrix" r;
  Alcotest.(check bool) "checked a real sample" true (S.count r "checked" >= 30)

let test_vacuum_matrix_mmap () =
  let j = S.record ~checkpoint_every:40 (S.script `Vacuum ~seed:1 ~updates:50 ~max_key:10) in
  let r = S.crash ~limit:25 ~store:Storage.Store_kind.Mmap j in
  no_violations "vacuum matrix" r;
  Alcotest.(check bool) "checked a real sample" true (S.count r "checked" >= 15)

let () =
  Alcotest.run "arena"
    [
      ( "zcodec",
        [ Alcotest.test_case "codec equivalence" `Quick test_zcodec_codec_equivalence;
          Alcotest.test_case "words at every offset" `Quick test_zcodec_words;
          Alcotest.test_case "crc fold matches the tables" `Quick test_crc_kernel ] );
      ( "arena",
        [
          Alcotest.test_case "buffered lifecycle" `Quick test_arena_buffered;
          Alcotest.test_case "mapped lifecycle" `Quick test_arena_mapped;
          Alcotest.test_case "RAM image chunks" `Quick test_image_chunks;
        ] );
      ( "mmap-store",
        [
          Alcotest.test_case "buffered lifecycle" `Quick test_mmap_store_buffered;
          Alcotest.test_case "mapped lifecycle" `Quick test_mmap_store_mapped;
          Alcotest.test_case "encoded once, buffered" `Quick (test_encode_once `Buffered);
          Alcotest.test_case "encoded once, mapped" `Quick (test_encode_once `Auto);
          QCheck_alcotest.to_alcotest (prop_overlay_model `Buffered);
          QCheck_alcotest.to_alcotest (prop_overlay_model `Auto);
          Alcotest.test_case "vacuum, then checkpoint, memory store" `Quick
            (test_vacuum_then_checkpoint Storage.Store_kind.Memory);
          Alcotest.test_case "vacuum, then checkpoint, mmap store" `Quick
            (test_vacuum_then_checkpoint Storage.Store_kind.Mmap);
        ] );
      ( "raw-frames",
        [
          Alcotest.test_case "mmap store, buffered" `Quick (test_base_frames `Buffered);
          Alcotest.test_case "mmap store, mapped" `Quick (test_base_frames `Auto);
          Alcotest.test_case "damaged snapshots fail" `Quick test_snapshot_damage;
          Alcotest.test_case "damaged state chunks fail" `Quick test_state_damage;
          Alcotest.test_case "pooled frames move, buffered" `Quick (test_frames_move `Buffered);
          Alcotest.test_case "pooled frames move, mapped" `Quick (test_frames_move `Map);
          Alcotest.test_case "rot under a pooled frame" `Quick test_rot_while_pooled;
        ] );
      ( "cross-backend",
        [ QCheck_alcotest.to_alcotest prop_backends_agree;
          Alcotest.test_case "no removed generation stays mapped" `Quick
            (test_no_removed_generation_mapped Storage.Store_kind.Mmap);
          Alcotest.test_case "no removed generation stays mapped, memory store" `Quick
            (test_no_removed_generation_mapped Storage.Store_kind.Memory) ] );
      ( "close",
        [
          Alcotest.test_case "buffered arena releases fds" `Slow
            (test_close_releases_fds ~cycles:100 Storage.Store_kind.Memory);
          Alcotest.test_case "mmap store releases fds" `Slow
            (test_close_releases_fds ~cycles:600 Storage.Store_kind.Mmap);
          Alcotest.test_case "buffered arena failed open releases fds" `Quick
            (test_failed_open_releases_fds Storage.Store_kind.Memory);
          Alcotest.test_case "mmap store failed open releases fds" `Quick
            (test_failed_open_releases_fds Storage.Store_kind.Mmap);
        ] );
      ( "lock",
        [
          Alcotest.test_case "buffered arena rejects a second process" `Quick
            (test_second_open_rejected Storage.Store_kind.Memory);
          Alcotest.test_case "mmap store rejects a second process" `Quick
            (test_second_open_rejected Storage.Store_kind.Mmap);
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "mmap recovery maps the image" `Quick test_image_recovery_maps;
          Alcotest.test_case "a failed check closes its engine" `Quick test_failed_check_closes;
          Alcotest.test_case "mmap store" `Slow test_crash_matrix_mmap;
          Alcotest.test_case "mmap store vacuum" `Slow test_vacuum_matrix_mmap;
        ] );
    ]
