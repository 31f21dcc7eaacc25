(* Storage-engine tests: Zcodec/Codec byte equivalence, the mmap arena
   (both backings), the Mmap page store and its verbatim frame copies,
   checksummed snapshot streaming, cross-backend engine equivalence
   (Memory/Mmap answer and checkpoint identically), descriptor and lock
   hygiene, and the crash matrices over an mmap-backed working set. *)

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
  Alcotest.(check int) "page i in block i" 3 (Storage.Page_id.to_int (List.nth ids 3));
  Alcotest.(check int) "used prefix (10 pages)" (10 * 128) (MStore.file_size_bytes s);
  (* mapped accesses are charged both as I/O and as mapped ops *)
  Alcotest.(check bool) "mapped reads counted" true
    (Storage.Io_stats.mapped_reads stats >= 10);
  Alcotest.(check bool) "mapped writes counted" true
    (Storage.Io_stats.mapped_writes stats >= 10);
  let freed = List.nth ids 3 in
  MStore.free s freed;
  Alcotest.(check bool) "freed page gone" false (MStore.mem s freed);
  Alcotest.check_raises "read freed" Not_found (fun () -> ignore (MStore.read s freed));
  Alcotest.(check int) "live pages" 9 (MStore.live_pages s);
  (* ids continue; a retired id is never reused *)
  Alcotest.(check int) "ids continue" 10 (Storage.Page_id.to_int (MStore.alloc s));
  MStore.close s

let test_mmap_store_buffered () =
  let dir = Filename.temp_dir "rta-test-mstore" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  store_lifecycle ~backing:`Buffered ~path:(Filename.concat dir "pages") ()

let test_mmap_store_mapped () =
  let path = Filename.temp_file "rta-test-mstore" "" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> store_lifecycle ~backing:`Auto ~path ()

(* --- Raw frames: install_raw / read_frame ------------------------------------------ *)

let rm_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Pages written as values into [a], their frames read back and
   installed (from inside a larger buffer) into [b]: the copy is verbatim
   both ways — [b] hands back the very frame it was given, which decodes
   to the value — each copy is charged one read and one write, and a
   frame installed with a flipped payload bit (installs trust their
   caller's CRC check) fails on the way out. *)
let raw_frames_agree mk =
  let stats = Storage.Io_stats.create () in
  let a = mk ~stats ~path:"a" and b = mk ~stats ~path:"b" in
  let id = Storage.Page_id.of_int in
  let ids = [ 0; 1; 2; 5; 9 ] in
  let value i = List.init (1 + (i mod 4)) (fun j -> (i * 1000) + j - 7) in
  for _ = 0 to 9 do
    ignore (MStore.alloc a)
  done;
  List.iter (fun i -> MStore.write a (id i) (value i)) ids;
  let reads0 = Storage.Io_stats.reads stats and writes0 = Storage.Io_stats.writes stats in
  let frames =
    List.map
      (fun i ->
        let frame = MStore.read_frame a (id i) in
        let buf = Bytes.make (Bytes.length frame + 10) '\xff' in
        Bytes.blit frame 0 buf 3 (Bytes.length frame);
        MStore.install_raw b (id i) buf ~pos:3 ~len:(Bytes.length frame);
        frame)
      ids
  in
  Alcotest.(check int) "one read per frame" (List.length ids)
    (Storage.Io_stats.reads stats - reads0);
  Alcotest.(check int) "one write per raw install" (List.length ids)
    (Storage.Io_stats.writes stats - writes0);
  List.iter2
    (fun i frame ->
      Alcotest.(check int) "frame = [len][crc][payload]"
        (Int32.to_int (Bytes.get_int32_le frame 0) + MStore.block_overhead)
        (Bytes.length frame);
      Alcotest.(check bytes) "the frame comes back verbatim" frame (MStore.read_frame b (id i));
      Alcotest.(check (list int)) "raw page decodes" (value i) (MStore.read b (id i)))
    ids frames;
  (match MStore.install_raw b (id 3) (Bytes.create 200) ~pos:0 ~len:129 with
  | exception Storage.Codec.Overflow _ -> ()
  | () -> Alcotest.fail "an oversized frame was installed");
  let frame = MStore.read_frame a (id 5) in
  (match MStore.install_raw b (id 3) frame ~pos:0 ~len:(Bytes.length frame - 1) with
  | exception Storage.Codec.Overflow _ -> ()
  | () -> Alcotest.fail "a frame whose length field disagrees was installed");
  Bytes.set frame 13 (Char.chr (Char.code (Bytes.get frame 13) lxor 0x01));
  MStore.install_raw b (id 5) frame ~pos:0 ~len:(Bytes.length frame);
  let failures = Storage.Io_stats.crc_failures stats in
  (match MStore.read_frame b (id 5) with
  | exception Storage.Page_store.Corrupt_page _ -> ()
  | _ -> Alcotest.fail "read_frame returned a corrupt frame");
  (match MStore.read b (id 5) with
  | exception Storage.Page_store.Corrupt_page _ -> ()
  | _ -> Alcotest.fail "a corrupt page decoded");
  Alcotest.(check int) "crc failures counted" (failures + 2)
    (Storage.Io_stats.crc_failures stats);
  MStore.close a;
  MStore.close b

let test_raw_frames_mmap_buffered () =
  raw_frames_agree (fun ~stats ~path ->
      MStore.create ~stats ~page_size:128 ~backing:`Buffered ~path ())

let test_raw_frames_mmap_mapped () =
  let dir = Filename.temp_dir "rta-test-raw" "" in
  Fun.protect ~finally:(fun () -> rm_tree dir) @@ fun () ->
  raw_frames_agree (fun ~stats ~path ->
      MStore.create ~stats ~page_size:128 ~backing:`Auto ~path:(Filename.concat dir path) ())

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
   (decoded) and a page file (raw frames).  [crc] says which refusal is
   due: a checksum mismatch, or a structural failure. *)
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
  attempt "page-file load" (fun () ->
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

(* One deterministic engine run: the harness's alive-aware script under a
   given store kind.  Half the script runs, then a checkpoint, then a
   quarter more that lives only in the WAL; the engine closes and reopens
   from that checkpoint plus the WAL tail (under [Mmap], raw snapshot
   chunks streamed into a fresh working set and the tail replayed over
   it), plays the rest and checkpoints again.  Returns the
   query answers, the update script it played, and the whole image of
   the filesystem: the buffered arena keeps the working set in RAM, so
   under either store only WAL, checkpoints and pointer reach it. *)
let run_script ~store ~seed ~updates ~max_key =
  let fs = M.create () in
  let vfs = M.vfs fs in
  let open_ () =
    Durable.open_ ~sync_policy:(Wal.Every_n 4) ~store ~arena_backing:`Buffered ~vfs
      ~max_key ~path:"w" ()
  in
  let rng = Random.State.make [| seed; 0x3a7e |] in
  let ups = ref [] in
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
        Storage.Storage_error.ok_exn (Durable.delete eng ~key ~at:!now);
        ups := `Delete (key, !now) :: !ups
      end
      else begin
        let rec find i =
          let k = (start + i) mod max_key in
          if Rta.is_alive rta ~key:k then find (i + 1) else k
        in
        let key = find 0 in
        let value = 1 + Random.State.int rng 100 in
        Storage.Storage_error.ok_exn (Durable.insert eng ~key ~value ~at:!now);
        ups := `Insert (key, value, !now) :: !ups
      end
    done
  in
  let eng = open_ () in
  play eng (updates / 2);
  Storage.Storage_error.ok_exn (Durable.checkpoint eng);
  play eng (updates / 4);
  Durable.close eng;
  let eng = open_ () in
  let report = Durable.recovery_report eng in
  if report.Durable.checkpoint_gen <> Some 1 || report.Durable.replayed <> updates / 4 then
    QCheck.Test.fail_reportf "reopen under %s: %a" (Storage.Store_kind.to_string store)
      Durable.pp_recovery_report report;
  play eng (updates - (updates / 2) - (updates / 4));
  Storage.Storage_error.ok_exn (Durable.checkpoint eng);
  let rta = Durable.warehouse eng in
  Rta.check_invariants rta;
  let qs =
    Faultsim.Harness.queries ~max_key ~max_t:(!now + 2) ~seed:(seed + 1) ~count:20
  in
  let answers =
    List.map (fun (klo, khi, tlo, thi) -> Rta.sum_count rta ~klo ~khi ~tlo ~thi) qs
  in
  Durable.close eng;
  let image = M.contents fs in
  (answers, List.rev !ups, qs, image)

let oracle_answers ups qs =
  let w = Reference.Warehouse.create () in
  List.iter
    (function
      | `Insert (key, value, at) -> Reference.Warehouse.insert w ~key ~value ~at
      | `Delete (key, at) -> Reference.Warehouse.delete w ~key ~at)
    ups;
  List.map
    (fun (klo, khi, tlo, thi) ->
      ( Reference.Warehouse.rta_sum w ~klo ~khi ~tlo ~thi,
        Reference.Warehouse.rta_count w ~klo ~khi ~tlo ~thi ))
    qs

let prop_backends_agree =
  QCheck.Test.make ~count:15 ~name:"memory/mmap engines are indistinguishable"
    QCheck.(pair (int_range 1 1000) (int_range 20 60))
    (fun (seed, updates) ->
      let max_key = 12 in
      let mem = run_script ~store:Storage.Store_kind.Memory ~seed ~updates ~max_key in
      let mmap = run_script ~store:Storage.Store_kind.Mmap ~seed ~updates ~max_key in
      let answers (a, _, _, _) = a
      and ups (_, u, _, _) = u
      and qs (_, _, q, _) = q
      and image (_, _, _, i) = i in
      (* identical scripts (the generator is backend-blind)... *)
      if ups mmap <> ups mem then
        QCheck.Test.fail_report "backends played different scripts";
      (* ...identical, oracle-exact answers... *)
      let want = oracle_answers (ups mem) (qs mem) in
      if answers mem <> want then QCheck.Test.fail_report "memory diverges from oracle";
      if answers mmap <> want then QCheck.Test.fail_report "mmap diverges from oracle";
      (* ...and byte-identical filesystem images (WAL, checkpoint
         snapshots, pointer — the working set never reaches it), the
         second checkpoint written from a working set that was rebuilt
         from the first one. *)
      if image mmap <> image mem then
        QCheck.Test.fail_report "mmap checkpoint image differs from memory";
      true)

(* --- Descriptor hygiene ---------------------------------------------------------- *)

(* Durable.close must release the working set's page files, not just the
   log: [cycles] open/insert/close cycles (with checkpoints, so reopens
   stream snapshots into fresh page files) keep the descriptor count
   flat.  A leak of one descriptor per cycle would show as [cycles]. *)
let test_close_releases_fds ~cycles arena_backing () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  (* tmpfs where there is one: the cycles are fsync-bound, and the count
     of descriptors does not depend on the filesystem. *)
  let temp_dir =
    if Sys.file_exists "/dev/shm" then "/dev/shm" else Filename.get_temp_dir_name ()
  in
  let dir = Filename.temp_dir ~temp_dir "rta-test-fds" "" in
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
          Alcotest.test_case "mmap store, buffered" `Quick test_raw_frames_mmap_buffered;
          Alcotest.test_case "mmap store, mapped" `Quick test_raw_frames_mmap_mapped;
          Alcotest.test_case "damaged snapshots fail" `Quick test_snapshot_damage;
        ] );
      ( "cross-backend",
        [ QCheck_alcotest.to_alcotest prop_backends_agree ] );
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
