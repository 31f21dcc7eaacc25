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

(* A value sequence hitting the interesting encodings: zero, sign
   boundaries, full-width 32-bit edges, and 64-bit values. *)
let probe_values =
  [ 0; 1; -1; 127; 128; 255; 256; -256; 0x7fffffff; -0x80000000; 42 ]

let test_zcodec_codec_equivalence () =
  let size = 256 in
  (* Same sequence through both writers... *)
  let cw = Storage.Codec.Writer.create size in
  let zb = make_buf size in
  let zw = Zc.Writer.create zb ~off:0 ~len:size in
  List.iter
    (fun v ->
      Storage.Codec.Writer.u8 cw (v land 0xff);
      Zc.Writer.u8 zw (v land 0xff);
      if v >= -0x80000000 && v <= 0x7fffffff then begin
        Storage.Codec.Writer.i32 cw v;
        Zc.Writer.i32 zw v
      end;
      Storage.Codec.Writer.i64 cw (v * 1_000_003);
      Zc.Writer.i64 zw (v * 1_000_003);
      Storage.Codec.Writer.bool cw (v land 1 = 0);
      Zc.Writer.bool zw (v land 1 = 0))
    probe_values;
  Alcotest.(check int) "positions agree" (Storage.Codec.Writer.pos cw) (Zc.Writer.pos zw);
  (* ... must produce identical bytes, *)
  let cb = Storage.Codec.Writer.contents cw in
  Alcotest.(check bytes) "identical encodings" cb (buf_to_bytes zb);
  (* identical CRCs, *)
  Alcotest.(check int) "crc32 agrees"
    (Storage.Codec.crc32 cb ~pos:0 ~len:size)
    (Zc.crc32 zb ~pos:0 ~len:size);
  (* and cross-read: each reader decodes the other's buffer. *)
  let cr = Storage.Codec.Reader.create (buf_to_bytes zb) in
  let zb2 = make_buf size in
  Zc.blit_of_bytes cb 0 zb2 0 size;
  let zr = Zc.Reader.create zb2 ~off:0 ~len:size in
  List.iter
    (fun v ->
      Alcotest.(check int) "u8" (v land 0xff) (Storage.Codec.Reader.u8 cr);
      Alcotest.(check int) "z u8" (v land 0xff) (Zc.Reader.u8 zr);
      if v >= -0x80000000 && v <= 0x7fffffff then begin
        Alcotest.(check int) "i32" v (Storage.Codec.Reader.i32 cr);
        Alcotest.(check int) "z i32" v (Zc.Reader.i32 zr)
      end;
      Alcotest.(check int) "i64" (v * 1_000_003) (Storage.Codec.Reader.i64 cr);
      Alcotest.(check int) "z i64" (v * 1_000_003) (Zc.Reader.i64 zr);
      Alcotest.(check bool) "bool" (v land 1 = 0) (Storage.Codec.Reader.bool cr);
      Alcotest.(check bool) "z bool" (v land 1 = 0) (Zc.Reader.bool zr))
    probe_values

(* --- Arena -------------------------------------------------------------------- *)

let fill_block arena ~block ~seed =
  let bs = A.block_size arena in
  let buf = A.buffer arena in
  for i = 0 to bs - 1 do
    Zc.set_u8 buf ((block * bs) + i) ((seed + (block * 7) + i) land 0xff)
  done

let check_block arena ~block ~seed =
  let bs = A.block_size arena in
  let buf = A.buffer arena in
  let ok = ref true in
  for i = 0 to bs - 1 do
    if Zc.get_u8 buf ((block * bs) + i) <> (seed + (block * 7) + i) land 0xff then
      ok := false
  done;
  Alcotest.(check bool) (Printf.sprintf "block %d content" block) true !ok

(* Blocks written before a growth survive the remap (or the copy into a
   larger RAM image), and so do blocks written after it. *)
let arena_lifecycle ~backing ~path () =
  let a = A.create ~initial_blocks:2 ~backing ~block_size:64 ~path () in
  for b = 0 to 1 do
    fill_block a ~block:b ~seed:11
  done;
  A.ensure a ~blocks:9;
  Alcotest.(check bool) "capacity grew" true (A.capacity_blocks a >= 9);
  for b = 2 to 8 do
    fill_block a ~block:b ~seed:11
  done;
  for b = 0 to 8 do
    check_block a ~block:b ~seed:11
  done;
  (match A.backing a with
  | `Map ->
      Alcotest.(check bool) "growth remapped" true (A.remaps a >= 1);
      Alcotest.(check int) "file sized to capacity" (A.file_size_bytes a)
        (Unix.stat path).Unix.st_size
  | `Buffered ->
      Alcotest.(check bool) "no file" false (Sys.file_exists path));
  A.close a;
  A.close a

let test_arena_buffered () =
  let dir = Filename.temp_dir "rta-test-arena" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  arena_lifecycle ~backing:`Buffered ~path:(Filename.concat dir "arena") ()

let test_arena_mapped () =
  let path = Filename.temp_file "rta-test-arena" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> arena_lifecycle ~backing:`Auto ~path ()

(* --- Mmap page store ---------------------------------------------------------- *)

module Int_list_codec = struct
  type t = int list

  let encode w v =
    Zc.Writer.i32 w (List.length v);
    List.iter (Zc.Writer.i64 w) v

  let decode r =
    let n = Zc.Reader.i32 r in
    List.init n (fun _ -> Zc.Reader.i64 r)
end

module MStore = Storage.Page_store.Mmap (Int_list_codec)

let store_lifecycle ~backing ~path () =
  let stats = Storage.Io_stats.create () in
  let s = MStore.create ~stats ~page_size:128 ~backing ~path () in
  let payload i = [ i; i * i; -i ] in
  let ids =
    List.init 10 (fun i ->
        let id = MStore.alloc s in
        MStore.write s id (payload i);
        id)
  in
  List.iteri
    (fun i id -> Alcotest.(check (list int)) "round trip" (payload i) (MStore.read s id))
    ids;
  Alcotest.(check int) "ids count up" 3 (Storage.Page_id.to_int (List.nth ids 3));
  (* Overlay slots are handed out densely: a page with a large id takes
     the next slot, and the file does not grow to reach its id. *)
  let far =
    List.init 5000 (fun _ -> MStore.alloc s) |> List.rev |> List.hd
  in
  MStore.write s far [ 1 ];
  Alcotest.(check (list int)) "far page round trip" [ 1 ] (MStore.read s far);
  if MStore.backing s = `Map then
    Alcotest.(check bool) "the overlay is not sized by a page id" true
      ((Unix.stat path).Unix.st_size < 64 * 128 * 2);
  MStore.free s far;
  (* mapped accesses are charged both as I/O and as mapped ops *)
  Alcotest.(check bool) "mapped reads counted" true
    (Storage.Io_stats.mapped_reads stats >= 10);
  Alcotest.(check bool) "mapped writes counted" true
    (Storage.Io_stats.mapped_writes stats >= 10);
  let freed = List.nth ids 3 in
  MStore.free s freed;
  Alcotest.(check bool) "freed page gone" false (MStore.mem s freed);
  Alcotest.check_raises "read freed" Not_found (fun () -> ignore (MStore.read s freed));
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
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> store_lifecycle ~backing:`Auto ~path ()

(* --- Frames in a base --------------------------------------------------------------- *)

let rm_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let write_bytes path b = Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

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
  List.iter (fun i -> MStore.write a (id i) (value i)) ids;
  let own = List.init 4 (fun _ -> MStore.alloc b) |> List.rev |> List.hd in
  MStore.write b own [ 42 ];
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
      Alcotest.(check (list int)) "a base page decodes" (value i) (MStore.read b (id i)))
    ids frames;
  Alcotest.(check int) "ids continue past the base" 10 (Storage.Page_id.to_int (MStore.alloc b));
  MStore.write b (id 5) [ 7 ];
  Alcotest.(check (list int)) "the overlay shadows the base" [ 7 ] (MStore.read b (id 5));
  let fails what =
    (match MStore.read_frame b (id 9) with
    | exception Storage.Page_store.Corrupt_page _ -> ()
    | _ -> Alcotest.failf "%s: read_frame returned a corrupt frame" what);
    match MStore.read b (id 9) with
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
    Alcotest.(check (list int)) "mended in place, read again" (value 9) (MStore.read b (id 9));
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
  (fs, vfs)

let with_lkst fs vfs f =
  let data = List.assoc "s.lkst" (M.contents fs) in
  let f' = vfs.Storage.Vfs.v_open `Create "s.lkst" in
  let damaged = f (Bytes.of_string data) in
  f'.Storage.Vfs.f_pwrite 0 damaged 0 (Bytes.length damaged);
  f'.Storage.Vfs.f_close ()

(* Both destinations read through the streaming reader: heap pages
   (decoded) and a base (frames read in place).  [crc] says which refusal
   is due: a checksum mismatch, or a structural failure. *)
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
  attempt "heap load" (fun () -> ignore (Rta.load ~vfs ~path:"s" ()));
  attempt "base load" (fun () ->
      ignore (Rta.load_durable ~vfs ~backing:`Buffered ~snapshot:"s" ~path:"ws" ()))

let test_snapshot_damage () =
  let fs, vfs = snapshot_fs () in
  let pristine = List.assoc "s.lkst" (M.contents fs) in
  let restore () = with_lkst fs vfs (fun _ -> Bytes.of_string pristine) in
  (* intact: both destinations load the same warehouse *)
  let heap = Rta.load ~vfs ~path:"s" () in
  let disk = Rta.load_durable ~vfs ~backing:`Buffered ~snapshot:"s" ~path:"ws" () in
  Alcotest.(check (pair int int)) "raw load answers as heap load"
    (Rta.sum_count heap ~klo:0 ~khi:40 ~tlo:0 ~thi:300)
    (Rta.sum_count disk ~klo:0 ~khi:40 ~tlo:0 ~thi:300);
  Rta.close disk;
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
     lies: the record count (at payload byte 44) or the level (at byte
     8), on the first, a middle and the last page.  Only bit rot fails a
     CRC, so the structure rule must catch these, and the raw path,
     which never builds the page, must catch them as the heap path
     does. *)
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
          ("level -1", level, fun _ -> -1) ])
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
  (* An id far past the others sizes nothing: both destinations load it
     alike, one page short of the tree, where the mapped store once
     sized its page file by it. *)
  set_id last (1 lsl 40);
  let heap = Rta.load ~vfs ~path:"s" () in
  let disk = Rta.load_durable ~vfs ~backing:`Buffered ~snapshot:"s" ~path:"ws" () in
  Alcotest.(check int) "an id of 2^40 loads alike" (Rta.page_count heap) (Rta.page_count disk);
  Rta.close disk;
  restore ();
  with_lkst fs vfs (fun b -> Bytes.cat b (Bytes.make 3 '\000'));
  loads_fail "trailing bytes" vfs;
  restore ();
  (* The previous format, whose chunks carry no CRC, is refused by name. *)
  with_lkst fs vfs (fun b ->
      Bytes.blit_string "MVSBT-SNAPSHOT-2" 0 b 0 16;
      b);
  match Rta.load ~vfs ~path:"s" () with
  | exception Failure msg ->
      Alcotest.(check bool) "names the old format" true
        (String.length msg > 0
         &&
         let needle = "MVSBT-SNAPSHOT-2" in
         let n = String.length needle in
         let rec scan i =
           i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
         in
         scan 0)
  | _ -> Alcotest.fail "an old-format snapshot loaded"

(* --- Cross-backend equivalence ------------------------------------------------ *)

(* tmpfs where there is one: the engine runs are fsync-bound, and a
   mapping of a tmpfs file is a mapping all the same. *)
let fast_temp_dir prefix =
  let temp_dir =
    if Sys.file_exists "/dev/shm" then "/dev/shm" else Filename.get_temp_dir_name ()
  in
  Filename.temp_dir ~temp_dir prefix ""

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The engine's files under [dir], by name, as a [Vfs.Memory] image
   lists them: the WAL, the checkpoints and the pointer.  The overlays
   and the lock file have no counterpart under the memory store. *)
let dir_image dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         not (Filename.check_suffix f ".pages" || Filename.check_suffix f ".lock"))
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* One deterministic engine run: the harness's alive-aware script under a
   given store kind and a 4-page pool, over a [Vfs.Memory] (with
   [`Buffered]) or the files of a temp directory (with [`Map]).  Queries
   start from a cold pool.  A first life plays half the
   script, checkpoints, plays an eighth more and asks queries that are
   answered through the rebased base and the emptied overlay, then
   closes.  A second life reopens from that checkpoint plus the WAL tail
   (under [Mmap], the checkpoint read in place and the tail replayed
   over it), plays another eighth, checkpoints, asks, vacuums half the
   history away, plays the rest, checkpoints a second time and asks
   again.  Every answer is paired with the oracle's, [None] where the
   window reaches below the horizon.  Returns the answers, the page and
   record counts after the last checkpoint and after a reopen from it,
   and the image of the engine's files: the working set never reaches
   it, so under either store only WAL, checkpoints and pointer do. *)
let run_script ~store ~backing ~seed ~updates ~max_key =
  let with_files k =
    match backing with
    | `Buffered ->
        let fs = M.create () in
        k (M.vfs fs) "w" (fun () -> M.contents fs)
    | `Map ->
        let dir = fast_temp_dir "rta-test-agree" in
        Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
        k Storage.Vfs.os (Filename.concat dir "w") (fun () -> dir_image dir)
  in
  with_files @@ fun vfs path image ->
  let open_ () =
    Durable.open_ ~sync_policy:(Wal.Every_n 4) ~store
      ~arena_backing:(backing :> [ `Auto | `Map | `Buffered ])
      ~pool_capacity:4 ~vfs ~max_key ~path ()
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
  let ask eng round =
    (* A cold pool: the answers read their pages out of the store. *)
    Rta.drop_cache (Durable.warehouse eng);
    let h = Durable.horizon eng in
    List.iter
      (fun (klo, khi, tlo, thi) ->
        let got =
          match Durable.sum_count eng ~klo ~khi ~tlo ~thi with
          | v -> Some v
          | exception Mvsbt.Below_horizon _ -> None
        in
        let want =
          if max 0 tlo < h then None
          else
            Some
              ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
                Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
        in
        answers := (got, want) :: !answers)
      (Faultsim.Harness.queries ~max_key ~max_t:(!now + 2) ~seed:(seed + round) ~count:10)
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
      let run store backing = run_script ~store ~backing ~seed ~updates ~max_key in
      let legs =
        [ ("memory", run Storage.Store_kind.Memory `Buffered);
          ("buffered mmap", run Storage.Store_kind.Mmap `Buffered);
          ("mapped mmap", run Storage.Store_kind.Mmap `Map) ]
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

(* Each rebase unmaps the generation it leaves before the checkpoint
   removes it, instead of leaving the mapping to the GC: a removed file
   that is still mapped keeps its blocks on disk and its touched pages
   resident.  After two checkpoints over a mapped store, the process maps
   the generation in use and no removed one.  On the way: an open writes
   no page, and each checkpoint empties the overlay the pool's evictions
   wrote. *)
let test_no_removed_generation_mapped () =
  let maps = "/proc/self/maps" in
  if not (Sys.file_exists maps) then Alcotest.skip ();
  let dir = fast_temp_dir "rta-test-maps" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 100 in
  let open_ () =
    Durable.open_ ~store:Storage.Store_kind.Mmap ~arena_backing:`Map ~pool_capacity:4
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

(* --- Descriptor hygiene ---------------------------------------------------------- *)

(* Durable.close must release the working set's page files, not just the
   log: [cycles] open/insert/close cycles (with checkpoints, so reopens
   stream snapshots into fresh page files) keep the descriptor count
   flat.  A leak of one descriptor per cycle would show as [cycles]. *)
let test_close_releases_fds ~cycles arena_backing () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  (* The count of descriptors does not depend on the filesystem. *)
  let dir = fast_temp_dir "rta-test-fds" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let cycle i =
    let eng =
      Durable.open_ ~store:Storage.Store_kind.Mmap ~arena_backing ~checkpoint_every:50
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
let test_second_open_rejected arena_backing () =
  let dir = Filename.temp_dir "rta-test-lock" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 100 in
  let open_ ~store = Durable.open_ ~store ~arena_backing ~pool_capacity:8 ~max_key ~path () in
  let store = Storage.Store_kind.Mmap in
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
      (Faultsim.Harness.queries ~max_key ~max_t:3002 ~seed:5 ~count:40)
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
let test_failed_open_releases_fds arena_backing () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  let dir = Filename.temp_dir "rta-test-fds" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  let path = Filename.concat dir "wh" in
  let open_ ~max_key =
    Durable.open_ ~store:Storage.Store_kind.Mmap ~arena_backing ~max_key ~path ()
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

(* Explorer tears the journal at every boundary.  The buffered arena
   keeps the mmap store's pages in RAM, so its images are exactly those
   of the memory store; recovery rebuilds the working set from each. *)
let test_crash_matrix_mmap () =
  let trace =
    Faultsim.Harness.run_trace ~store:Storage.Store_kind.Mmap ~checkpoint_every:20
      ~updates:40 ~max_key:10 ()
  in
  let r = Faultsim.Harness.check ~limit:60 trace in
  (match r.Faultsim.Harness.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "crash matrix violation: %s"
        (Format.asprintf "%a" Faultsim.Harness.pp_violation v));
  Alcotest.(check bool) "checked a real sample" true (r.Faultsim.Harness.checked >= 30)

let test_vacuum_matrix_mmap () =
  let trace =
    Faultsim.Vacuum_matrix.run_trace ~store:Storage.Store_kind.Mmap ~updates:50
      ~max_key:10 ()
  in
  let r = Faultsim.Vacuum_matrix.check ~limit:25 trace in
  (match r.Faultsim.Vacuum_matrix.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "vacuum matrix violation: %s"
        (Format.asprintf "%a" Faultsim.Vacuum_matrix.pp_violation v));
  Alcotest.(check bool) "checked a real sample" true
    (r.Faultsim.Vacuum_matrix.checked >= 15)

let () =
  Alcotest.run "arena"
    [
      ( "zcodec",
        [ Alcotest.test_case "codec equivalence" `Quick test_zcodec_codec_equivalence ] );
      ( "arena",
        [
          Alcotest.test_case "buffered lifecycle" `Quick test_arena_buffered;
          Alcotest.test_case "mapped lifecycle" `Quick test_arena_mapped;
        ] );
      ( "mmap-store",
        [
          Alcotest.test_case "buffered lifecycle" `Quick test_mmap_store_buffered;
          Alcotest.test_case "mapped lifecycle" `Quick test_mmap_store_mapped;
        ] );
      ( "raw-frames",
        [
          Alcotest.test_case "mmap store, buffered" `Quick (test_base_frames `Buffered);
          Alcotest.test_case "mmap store, mapped" `Quick (test_base_frames `Auto);
          Alcotest.test_case "damaged snapshots fail" `Quick test_snapshot_damage;
        ] );
      ( "cross-backend",
        [ QCheck_alcotest.to_alcotest prop_backends_agree;
          Alcotest.test_case "no removed generation stays mapped" `Quick
            test_no_removed_generation_mapped ] );
      ( "close",
        [
          Alcotest.test_case "buffered arena releases fds" `Slow
            (test_close_releases_fds ~cycles:100 `Buffered);
          Alcotest.test_case "mmap store releases fds" `Slow
            (test_close_releases_fds ~cycles:600 `Auto);
          Alcotest.test_case "buffered arena failed open releases fds" `Quick
            (test_failed_open_releases_fds `Buffered);
          Alcotest.test_case "mmap store failed open releases fds" `Quick
            (test_failed_open_releases_fds `Auto);
        ] );
      ( "lock",
        [
          Alcotest.test_case "buffered arena rejects a second process" `Quick
            (test_second_open_rejected `Buffered);
          Alcotest.test_case "mmap store rejects a second process" `Quick
            (test_second_open_rejected `Auto);
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "mmap store" `Slow test_crash_matrix_mmap;
          Alcotest.test_case "mmap store vacuum" `Slow test_vacuum_matrix_mmap;
        ] );
    ]
