(* Tests for the crash-state explorer, the fault-scenario engine's crash
   dimension, and the checksums of the recovery source: the disk model
   replays correctly on hand-built journals, every enumerated crash image
   of a real engine run recovers within bounds, matches the oracle and
   recovers the same twice (also over random scenarios, as a QCheck
   property), each step counts toward the oracle by its answer, a
   flipped checkpoint chunk fails every open, page files left by an
   earlier run are never read, and scrub detects 100% of the single-bit
   flips injected into a checkpoint, repairs them from a twin only where
   the twin verifies, and reports corrupt log frames without touching
   the log. *)

module E = Faultsim.Explorer
module S = Faultsim.Scenario
module M = Storage.Vfs.Memory

let temp_prefix () =
  let p = Filename.temp_file "mvsbt_faultsim" "" in
  Sys.remove p;
  p

let cleanup prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  Array.iter
    (fun name ->
      if String.length name >= String.length base
         && String.sub name 0 (String.length base) = base then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

(* --- Explorer: the disk model on hand-built journals -------------------------- *)

let has_state images files = List.exists (fun (i : E.image) -> i.files = files) images

let test_explorer_disk_model () =
  let ops =
    [
      M.Create "f";
      M.Pwrite { path = "f"; off = 0; data = "AAAA" };
      M.Sync "f";
      M.Pwrite { path = "f"; off = 4; data = "BBBB" };
    ]
  in
  let images = E.enumerate ops in
  Alcotest.(check bool) "empty disk (crash before anything)" true (has_state images []);
  Alcotest.(check bool)
    "unsynced create leaves no durable trace" true
    (has_state images [ ("f", "AAAA") ]);
  Alcotest.(check bool)
    "everything applied" true
    (has_state images [ ("f", "AAAABBBB") ]);
  Alcotest.(check bool)
    "second write torn to a prefix" true
    (has_state images [ ("f", "AAAABB") ]);
  (* Without any fsync, no non-applied image may carry data: enumerate
     the journal prefix that stops before the [Sync] and check that
     everything except the applied snapshots is empty-handed. *)
  let unsynced =
    E.enumerate [ M.Create "f"; M.Pwrite { path = "f"; off = 0; data = "AAAA" } ]
  in
  Alcotest.(check bool)
    "pwrite volatile until fsync" true
    (List.for_all
       (fun (i : E.image) ->
         i.kind = E.Applied || List.for_all (fun (_, c) -> c = "") i.files)
       unsynced)

let test_explorer_rename_and_dir_sync () =
  let ops =
    [
      M.Create "a";
      M.Pwrite { path = "a"; off = 0; data = "hello" };
      M.Sync "a";
      M.Rename ("a", "b");
      M.Sync_dir ".";
    ]
  in
  let images = E.enumerate ops in
  (* Before the directory fsync the durable namespace still holds the old
     name; after it, the new one (rename atomic: never both, never a mix). *)
  let before_dir_sync =
    E.enumerate [ M.Create "a"; M.Pwrite { path = "a"; off = 0; data = "hello" };
                  M.Sync "a"; M.Rename ("a", "b") ]
  in
  Alcotest.(check bool)
    "rename volatile until dir fsync: old name can survive" true
    (has_state before_dir_sync [ ("a", "hello") ]);
  Alcotest.(check bool)
    "rename volatile until dir fsync: new name only as applied state" true
    (List.for_all
       (fun (i : E.image) -> i.kind = E.Applied || not (List.mem_assoc "b" i.files))
       before_dir_sync);
  Alcotest.(check bool)
    "rename durable after dir fsync" true
    (has_state images [ ("b", "hello") ]);
  Alcotest.(check bool)
    "no image holds both names" true
    (not
       (List.exists
          (fun (i : E.image) ->
            List.mem_assoc "a" i.files && List.mem_assoc "b" i.files)
          images));
  (* Metadata journalling without data: a dir fsync can commit the dentry
     of a file whose data was never fsynced, leaving it empty. *)
  let ops2 =
    [ M.Create "g"; M.Pwrite { path = "g"; off = 0; data = "XX" }; M.Sync_dir "." ]
  in
  Alcotest.(check bool)
    "dentry durable, data lost" true
    (has_state (E.enumerate ops2) [ ("g", "") ])

let test_explorer_deterministic () =
  let j = S.record (S.script `Crash ~seed:9 ~updates:30 ~max_key:12) in
  let ops = Array.to_list j.S.ops in
  let a = E.enumerate ops and b = E.enumerate ops in
  Alcotest.(check int) "same image count" (List.length a) (List.length b);
  List.iter2
    (fun (x : E.image) (y : E.image) ->
      Alcotest.(check bool) "same image" true
        (x.cut = y.cut && x.kind = y.kind && x.files = y.files))
    a b

(* --- The crash matrix: acceptance criterion ----------------------------------- *)

let no_violations what r =
  Alcotest.(check (list string)) what []
    (List.map (fun v -> v.S.at ^ ": " ^ v.S.reason) r.S.violations)

let test_crash_matrix () =
  let j =
    S.record ~sync_policy:(Wal.Every_n 4) ~checkpoint_every:40
      (S.script `Crash ~seed:1 ~updates:120 ~max_key:24)
  in
  let r = S.crash j in
  let images = S.count r "crash images" in
  Alcotest.(check bool)
    (Format.asprintf "at least 200 distinct crash states (got %d)" images)
    true (images >= 200);
  Alcotest.(check int) "every image checked" images (S.count r "checked");
  no_violations "zero invariant violations" r

let test_crash_matrix_policies () =
  List.iter
    (fun (sync_policy, checkpoint_every, seed, updates) ->
      let j =
        S.record ~sync_policy ~checkpoint_every (S.script `Crash ~seed ~updates ~max_key:16)
      in
      no_violations
        (Format.asprintf "no violations under %a" Wal.pp_sync_policy sync_policy)
        (S.crash ~limit:80 j))
    [
      (Wal.Always, 25, 3, 60);
      (Wal.Never, 30, 4, 60);
      (Wal.Every_n 7, 0, 5, 60);
    ]

let test_floor_and_ceiling_monotone () =
  let j = S.record ~checkpoint_every:20 (S.script `Crash ~seed:2 ~updates:60 ~max_key:16) in
  let n = Array.length j.S.ops in
  let floors = S.floors j in
  let prev_ceil = ref 0 in
  for cut = 0 to n do
    let floor = floors.(cut) in
    let ceil = S.ceiling j ~cut in
    if floor > ceil then
      Alcotest.failf "cut %d: floor %d above ceiling %d" cut floor ceil;
    if ceil < !prev_ceil then Alcotest.failf "cut %d: ceiling decreased" cut;
    prev_ceil := ceil
  done;
  Alcotest.(check int) "final ceiling covers the whole trace" (Array.length j.S.log)
    (S.ceiling j ~cut:n)

(* An update counts toward the oracle by its answer, and a record count
   that disagrees with the answer is flagged: an update acknowledged but
   never logged must fall short of the oracle, not redefine it. *)
let test_steps_count_by_answer () =
  let ins = S.Insert { key = 1; value = 5; at = 3 } and vac = S.Vacuum { horizon = 2 } in
  let err = Error (Storage.Storage_error.v ~op:Append ~path:"w.wal" Enospc) in
  let check what step r ~moved ~steps ~wrong =
    let got, msg = S.counted step r ~moved in
    Alcotest.(check int) (what ^ ": steps counted") steps (List.length got);
    Alcotest.(check bool) (what ^ ": flagged") wrong (msg <> None)
  in
  check "acknowledged update" ins (Ok ()) ~moved:1 ~steps:1 ~wrong:false;
  check "acknowledged, never applied" ins (Ok ()) ~moved:0 ~steps:1 ~wrong:true;
  check "acknowledged, applied twice" ins (Ok ()) ~moved:2 ~steps:1 ~wrong:true;
  check "refused update" ins err ~moved:0 ~steps:0 ~wrong:false;
  check "refused, applied anyway" ins err ~moved:1 ~steps:0 ~wrong:true;
  check "checkpoint" S.Checkpoint (Ok ()) ~moved:0 ~steps:0 ~wrong:false;
  check "checkpoint that logged" S.Checkpoint (Ok ()) ~moved:1 ~steps:0 ~wrong:true;
  check "vacuum" vac (Ok ()) ~moved:3 ~steps:3 ~wrong:false;
  check "vacuum cut short" vac err ~moved:2 ~steps:2 ~wrong:false

(* --- Random scenarios --------------------------------------------------------- *)

(* Any script under any sync policy and checkpoint cadence, with up to
   two vacuums: every sampled crash image passes the check, recovers the
   same a second time, and re-vacuums to a fixed point. *)
let prop_random_scenarios =
  let policy =
    QCheck.Gen.(
      oneof [ return Wal.Always; return Wal.Never; map (fun n -> Wal.Every_n n) (int_range 1 8) ])
  in
  let gen =
    QCheck.Gen.(
      tup5 (int_bound 10_000) policy (int_range 0 40) (int_range 0 2) (int_range 20 60))
  in
  let print (seed, p, ck, vacuums, updates) =
    Format.asprintf "seed %d, %a, checkpoint every %d, %d vacuums, %d updates" seed
      Wal.pp_sync_policy p ck vacuums updates
  in
  QCheck.Test.make ~count:12 ~name:"random scenarios recover without violations"
    (QCheck.make ~print gen)
    (fun (seed, sync_policy, checkpoint_every, vacuums, updates) ->
      let script = S.script `Vacuum ~seed ~updates ~max_key:12 in
      (* The vacuum preset's script vacuums twice; keep the first
         [vacuums] of them. *)
      let kept = ref 0 in
      let steps =
        Array.to_list script.S.steps
        |> List.filter (function
             | S.Vacuum _ ->
                 incr kept;
                 !kept <= vacuums
             | _ -> true)
      in
      let j =
        S.record ~sync_policy ~checkpoint_every { script with S.steps = Array.of_list steps }
      in
      let r = S.crash ~limit:25 j in
      if r.S.violations <> [] then
        QCheck.Test.fail_reportf "%a" S.pp_report r;
      true)

(* --- Scrub and repair --------------------------------------------------------- *)

let fixed_updates n =
  (* Deterministic insert/delete mix; [apply] replays it onto any sink. *)
  let rng = Random.State.make [| 0xbeef |] in
  let alive = Hashtbl.create 16 in
  let now = ref 0 in
  List.init n (fun _ ->
      now := !now + Random.State.int rng 2;
      let key = Random.State.int rng 16 in
      if Hashtbl.length alive = 16
         || (Hashtbl.mem alive key && Random.State.bool rng) then begin
        let key = ref key in
        while not (Hashtbl.mem alive !key) do
          key := (!key + 1) mod 16
        done;
        Hashtbl.remove alive !key;
        S.Delete { key = !key; at = !now }
      end
      else begin
        let key = ref key in
        while Hashtbl.mem alive !key do
          key := (!key + 1) mod 16
        done;
        Hashtbl.add alive !key ();
        S.Insert { key = !key; value = 1 + Random.State.int rng 50; at = !now }
      end)

let apply_updates rta ups =
  List.iter
    (fun u ->
      match u with
      | S.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
      | S.Delete { key; at } -> Rta.delete rta ~key ~at
      | S.Checkpoint | S.Vacuum _ -> ())
    ups

let small_config = { (Mvsbt.default_config ~b:8) with f = 0.75 }
let ok = Storage.Storage_error.ok_exn

(* A warehouse at [path] built through the engine from [ups], optionally
   vacuumed to half its history, then checkpointed once. *)
let build_checkpointed ?(config = small_config) ?store ?(vacuum = false) ups ~path =
  let eng = Durable.open_ ~config ?store ~max_key:16 ~path () in
  List.iter
    (fun u -> ok (S.apply eng u))
    ups;
  if vacuum then
    ignore (ok (Durable.vacuum eng ~horizon:(Rta.now (Durable.warehouse eng) / 2)));
  ok (Durable.checkpoint eng);
  Durable.close eng

let chunk_ids l =
  List.map (fun (c : Durable.chunk) -> (Filename.extension c.file, c.index)) l

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* The checkpoint files of the warehouse at [prefix] (one checkpoint, so
   generation 1). *)
let ckpt_files prefix = List.map (fun (ext, _) -> prefix ^ ".ckpt-1" ^ ext) Rta.snapshot_files

(* One checkpoint-scrub round trip.  The inputs vary what is built (the
   store it ran on, the page size, a vacuum), how many chunks are
   flipped, and whether the twin is true or stopped short of the target's
   update count. *)
let checkpoint_scrub ?config ?store ?vacuum ?(n = 150) ?(stale = false)
    ~flips () =
  let prefix = temp_prefix () and twin = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix; cleanup twin) @@ fun () ->
  let ups = fixed_updates n in
  let build = build_checkpointed ?config ?store ?vacuum in
  build ups ~path:prefix;
  build (if stale then List.filteri (fun i _ -> i < n - 20) ups else ups) ~path:twin;
  let clean = Durable.scrub ~path:prefix () in
  Alcotest.(check bool) "built clean" true (Durable.scrub_clean clean);
  let hits = Durable.inject_bit_flips ~path:prefix ~seed:7 ~flips () in
  (* Every chunk but the one of [.meta] is a target. *)
  Alcotest.(check int) "flips injected" (min flips (clean.Durable.chunks_checked - 1))
    (List.length hits);
  (match Durable.open_ ~max_key:16 ~path:prefix () with
  | eng ->
      Durable.close eng;
      Alcotest.fail "a flipped checkpoint opened"
  | exception Storage.Storage_error.Io { errno = Storage.Storage_error.Checksum_mismatch; _ }
    ->
      ());
  let stats = Storage.Io_stats.create () in
  let r = Durable.scrub ~stats ~repair_from:twin ~path:prefix () in
  let pairs = Alcotest.(list (pair string int)) in
  Alcotest.check pairs "every flip found, nothing else" (chunk_ids hits)
    (chunk_ids r.Durable.corrupt);
  Alcotest.check pairs "repaired" (if stale then [] else chunk_ids hits)
    (chunk_ids r.Durable.repaired);
  Alcotest.check pairs "irreparable" (if stale then chunk_ids hits else [])
    (chunk_ids r.Durable.irreparable);
  let s = Storage.Io_stats.snapshot stats in
  Alcotest.(check int) "scrubbed counter" r.Durable.chunks_checked s.Storage.Io_stats.scrubbed;
  Alcotest.(check int) "crc_failures counter" (List.length hits)
    s.Storage.Io_stats.crc_failures;
  Alcotest.(check int) "repaired counter" (List.length r.Durable.repaired)
    s.Storage.Io_stats.repaired;
  if not stale then begin
    Alcotest.(check bool) "clean after repair" true
      (Durable.scrub_clean (Durable.scrub ~path:prefix ()));
    (* A twin's checkpoint is a clean copy of the target's, byte for
       byte, so the repaired files are the twin's. *)
    List.iter2
      (fun a b -> Alcotest.(check string) (Filename.extension a) (read_all b) (read_all a))
      (ckpt_files prefix) (ckpt_files twin);
    let eng = Durable.open_ ~max_key:16 ~path:prefix () in
    let oracle = Rta.create ~max_key:16 () in
    apply_updates oracle ups;
    let h = Durable.horizon eng in
    List.iter
      (fun (klo, khi, tlo, thi) ->
        let tlo = max tlo h in
        if tlo < thi then
          Alcotest.(check (pair int int))
            (Printf.sprintf "query [%d,%d)x[%d,%d)" klo khi tlo thi)
            (Rta.sum_count oracle ~klo ~khi ~tlo ~thi)
            (Durable.sum_count eng ~klo ~khi ~tlo ~thi))
      [ (0, 16, 0, 1000); (2, 9, 3, 40); (5, 6, 0, 200); (0, 16, 90, 91) ];
    Durable.close eng
  end

(* --- The recovery source is checksummed --------------------------------------- *)

let exe = "../bin/rta_cli.exe"

(* A bit flipped in any chunk — the state and page-count chunks, the
   first, a middle and the last page of either snapshot, or [.meta] —
   fails the open with [Checksum_mismatch] naming the file and chunk,
   under every store, and leaves every file as it was: the log is not
   replayed, let alone truncated.  The page files of a mapped store are
   a cache the failed open rebuilds, so they are not compared. *)
let test_flipped_checkpoint_refused () =
  let prefix = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix) @@ fun () ->
  let ups = fixed_updates 200 in
  build_checkpointed (List.filteri (fun i _ -> i < 150) ups) ~path:prefix;
  (let eng = Durable.open_ ~max_key:16 ~path:prefix () in
   List.iteri
     (fun i u ->
       if i >= 150 then ok (S.apply eng u))
     ups;
   Durable.close eng);
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  let image () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           String.starts_with ~prefix:base f
           && not (String.starts_with ~prefix:(base ^ ".store") f))
    |> List.map (fun f -> (f, read_all (Filename.concat dir f)))
  in
  let frames file magic =
    Storage.Frame.Reader.with_file Storage.Vfs.os ~path:file ~magic @@ fun rd ->
    let rec go acc =
      match Storage.Frame.Reader.next rd with
      | Whole f -> go ((f.index, f.offset + Storage.Frame.header_bytes, f.len) :: acc)
      | _ -> Array.of_list (List.rev acc)
    in
    go []
  in
  let targets =
    List.concat_map
      (fun (file, (ext, magic)) ->
        let fs = frames file magic in
        let n = Array.length fs in
        if ext = ".meta" then [ (file, fs.(0)) ]
        else
          List.map (fun i -> (file, fs.(i))) (List.sort_uniq compare [ 0; 1; 2; (n + 1) / 2; n - 1 ]))
      (List.combine (ckpt_files prefix) Rta.snapshot_files)
  in
  Alcotest.(check int) "five chunks per snapshot, one in .meta" 11 (List.length targets);
  List.iter
    (fun (file, (index, payload, len)) ->
      let original = read_all file in
      let flipped = Bytes.of_string original in
      let at = payload + (len / 2) in
      Bytes.set_uint8 flipped at (Bytes.get_uint8 flipped at lxor 0x10);
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc flipped);
      let before = image () in
      let what = Printf.sprintf "%s chunk %d" (Filename.extension file) index in
      List.iter
        (fun (name, store) ->
          (match Durable.open_ ~store ~max_key:16 ~path:prefix () with
          | eng ->
              Durable.close eng;
              Alcotest.failf "%s under %s: opened" what name
          | exception Storage.Storage_error.Io e ->
              Alcotest.(check bool)
                (Printf.sprintf "%s under %s: checksum mismatch" what name)
                true
                (e.errno = Storage.Storage_error.Checksum_mismatch
                 && e.path = file
                 && e.detail = Some (Printf.sprintf "chunk %d" index)));
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s under %s: files untouched" what name)
            before (image ()))
        [ ("memory", Storage.Store_kind.Memory); ("mmap", Storage.Store_kind.Mmap) ];
      List.iter
        (fun store ->
          let code =
            Sys.command
              (Printf.sprintf "%s recover --wal %s --max-key 16 --store %s > /dev/null 2>&1"
                 exe prefix store)
          in
          Alcotest.(check bool) (Printf.sprintf "%s: recover --store %s fails" what store)
            true (code <> 0))
        [ "memory"; "mmap" ];
      Alcotest.(check (list (pair string string))) (what ^ ": CLI left files untouched")
        before (image ());
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc original))
    targets;
  (* Restored, the warehouse opens and holds every update. *)
  let eng = Durable.open_ ~max_key:16 ~path:prefix () in
  Alcotest.(check int) "all updates recovered" 200 (Rta.n_updates (Durable.warehouse eng));
  Durable.close eng

(* Overlay files hold the pages written since the committed checkpoint,
   which holds the rest, and are a cache: every open starts them empty
   and rebuilds what they held from the checkpoint and the log.  Whatever
   an earlier run left in them — its own pages, garbage of the right
   size, a truncated file, bytes past the end — is never read: each store
   answers from the recovery source alone, a mapped open leaves overlay
   files byte-identical to an open over no overlay files at all, and a
   memory-store open does not touch them.  A 2-page pool makes every life
   write pages back to its overlay. *)
let test_overlay_files_are_a_cache () =
  let prefix = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix) @@ fun () ->
  let ups = fixed_updates 200 in
  let mapped = Storage.Store_kind.Mmap in
  let open_ store = Durable.open_ ~store ~pool_capacity:2 ~max_key:16 ~path:prefix () in
  build_checkpointed ~store:mapped (List.filteri (fun i _ -> i < 150) ups) ~path:prefix;
  (let eng = open_ mapped in
   List.iteri
     (fun i u ->
       if i >= 150 then ok (S.apply eng u))
     ups;
   Durable.close eng);
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  let pages =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:(base ^ ".store") f)
    |> List.map (Filename.concat dir)
  in
  let image () = List.map read_all pages in
  Alcotest.(check bool) "the mapped store left pages in its overlay files" true
    (pages <> [] && List.exists (String.exists (fun c -> c <> '\000')) (image ()));
  List.iter Sys.remove pages;
  let oracle = Rta.create ~max_key:16 () in
  apply_updates oracle ups;
  (* The queries evict the replay's dirty pages into the overlay, so an
     open over no overlay files asks them too. *)
  let open_and_ask what kind =
    let eng = open_ kind in
    Alcotest.(check int) (what ^ ": every update") 200 (Rta.n_updates (Durable.warehouse eng));
    List.iter
      (fun (klo, khi, tlo, thi) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s: query [%d,%d)x[%d,%d)" what klo khi tlo thi)
          (Rta.sum_count oracle ~klo ~khi ~tlo ~thi)
          (Durable.sum_count eng ~klo ~khi ~tlo ~thi))
      [ (0, 16, 0, 1000); (2, 9, 3, 40); (5, 6, 0, 200); (0, 16, 90, 91) ];
    Durable.close eng
  in
  open_and_ask "no overlay files" mapped;
  let fresh = image () in
  let scribbles =
    [ ("garbage", fun s -> String.map (fun c -> Char.chr (Char.code c lxor 0xA5)) s);
      ("truncated", fun s -> String.sub s 0 (min 100 (String.length s)));
      ("extended", fun s -> s ^ String.make 8192 '\xff') ]
  in
  List.iter
    (fun (how, scribble) ->
      List.iter
        (fun (name, store) ->
          List.iter
            (fun f ->
              let s = scribble (read_all f) in
              Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s))
            pages;
          let scribbled = image () in
          let what = Printf.sprintf "%s overlay files, %s" how name in
          open_and_ask what store;
          Alcotest.(check (list string)) (what ^ ": overlay files")
            (if store = mapped then fresh else scribbled)
            (image ()))
        [ ("mmap", mapped); ("memory", Storage.Store_kind.Memory) ])
    scribbles

(* Flip one bit in the middle of the payload of chunk [index] of the
   checkpoint file [file]. *)
let flip_chunk file index =
  let magic = List.assoc (Filename.extension file) Rta.snapshot_files in
  let payload, len =
    Storage.Frame.Reader.with_file Storage.Vfs.os ~path:file ~magic @@ fun rd ->
    let rec go () =
      match Storage.Frame.Reader.next rd with
      | (Whole f | Bad_crc f) when f.index = index ->
          (f.offset + Storage.Frame.header_bytes, f.len)
      | Whole _ | Bad_crc _ -> go ()
      | _ -> Alcotest.failf "%s has no chunk %d" file index
    in
    go ()
  in
  let b = Bytes.of_string (read_all file) in
  let at = payload + (len / 2) in
  Bytes.set_uint8 b at (Bytes.get_uint8 b at lxor 0x10);
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b)

(* A twin is trusted chunk by chunk: a twin chunk that fails its CRC is
   never copied, and a [.meta] that fails on either side blocks every
   repair, since the two update counts cannot be compared.  Scrub never
   writes the twin. *)
let test_scrub_verifies_the_twin () =
  let prefix = temp_prefix () and twin = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix; cleanup twin) @@ fun () ->
  let ups = fixed_updates 150 in
  build_checkpointed ups ~path:prefix;
  build_checkpointed ups ~path:twin;
  let hits = Durable.inject_bit_flips ~path:prefix ~seed:11 ~flips:3 () in
  Alcotest.(check int) "three flips" 3 (List.length hits);
  let first = List.hd hits in
  let twin_file = twin ^ ".ckpt-1" ^ Filename.extension first.Durable.file in
  let twin_meta = twin ^ ".ckpt-1.meta" and meta = prefix ^ ".ckpt-1.meta" in
  let twin_image () = List.map read_all (ckpt_files twin) in
  let pairs = Alcotest.(list (pair string int)) in
  let scrub what ~corrupt ~repaired =
    let before = twin_image () in
    let r = Durable.scrub ~repair_from:twin ~path:prefix () in
    let irreparable = List.filter (fun c -> not (List.mem c repaired)) corrupt in
    let ids l = chunk_ids (List.sort compare l) in
    Alcotest.check pairs (what ^ ": corrupt") (ids corrupt) (chunk_ids r.Durable.corrupt);
    Alcotest.check pairs (what ^ ": repaired") (ids repaired) (chunk_ids r.Durable.repaired);
    Alcotest.check pairs (what ^ ": irreparable") (ids irreparable)
      (chunk_ids r.Durable.irreparable);
    Alcotest.(check (list string)) (what ^ ": twin untouched") before (twin_image ())
  in
  (* Flipping the same bit a second time restores the chunk. *)
  flip_chunk twin_file first.Durable.index;
  scrub "corrupt twin chunk" ~corrupt:hits ~repaired:(List.tl hits);
  flip_chunk twin_file first.Durable.index;
  flip_chunk twin_meta 0;
  scrub "corrupt twin .meta" ~corrupt:[ first ] ~repaired:[];
  flip_chunk twin_meta 0;
  flip_chunk meta 0;
  scrub "corrupt target .meta"
    ~corrupt:[ first; { Durable.file = meta; index = 0 } ]
    ~repaired:[];
  flip_chunk meta 0;
  scrub "both verify" ~corrupt:[ first ] ~repaired:[ first ];
  Alcotest.(check bool) "clean after repair" true
    (Durable.scrub_clean (Durable.scrub ~path:prefix ()));
  List.iter2
    (fun a b -> Alcotest.(check string) (Filename.extension a) (read_all b) (read_all a))
    (ckpt_files prefix) (ckpt_files twin)

(* Scrub reads the log's frames too, and only reports: a flipped bit in
   a record mid-log is found by its offset, the frames after it still
   verify, and the log is byte-identical afterwards. *)
let test_scrub_wal_frames () =
  let prefix = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix) @@ fun () ->
  let ups = fixed_updates 150 in
  (let eng = Durable.open_ ~max_key:16 ~path:prefix () in
   List.iter
     (fun u -> ok (S.apply eng u))
     ups;
   Durable.close eng);
  let wal = Durable.wal_path prefix in
  let clean = Durable.scrub ~path:prefix () in
  Alcotest.(check bool) "clean log" true (Durable.scrub_clean clean);
  Alcotest.(check int) "every record a frame" 150 clean.Durable.wal_frames;
  Alcotest.(check int) "no checkpoint, no chunks" 0 clean.Durable.chunks_checked;
  (* Frame offsets: a 16-byte header, then [len][crc][payload] frames. *)
  let bytes = Bytes.of_string (read_all wal) in
  let rec offsets off acc =
    if off >= Bytes.length bytes then List.rev acc
    else offsets (off + 8 + Int32.to_int (Bytes.get_int32_le bytes off)) (off :: acc)
  in
  let frame = List.nth (offsets 16 []) 75 in
  Bytes.set_uint8 bytes (frame + 12) (Bytes.get_uint8 bytes (frame + 12) lxor 0x04);
  Out_channel.with_open_bin wal (fun oc -> Out_channel.output_bytes oc bytes);
  let r = Durable.scrub ~path:prefix () in
  Alcotest.(check (list int)) "the flipped frame, by offset" [ frame ] r.Durable.wal_corrupt;
  Alcotest.(check int) "the other frames verify" 149 r.Durable.wal_frames;
  Alcotest.(check bool) "not clean" false (Durable.scrub_clean r);
  Alcotest.(check string) "log untouched" (Bytes.to_string bytes) (read_all wal);
  Alcotest.(check int) "the CLI exits 1" 1
    (Sys.command (Printf.sprintf "%s scrub --path %s > /dev/null 2>&1" exe prefix));
  Alcotest.(check string) "log untouched by the CLI" (Bytes.to_string bytes) (read_all wal)

(* --- Suite -------------------------------------------------------------------- *)

let () =
  Alcotest.run "faultsim"
    [
      ( "explorer",
        [
          Alcotest.test_case "disk model: volatile until fsync" `Quick
            test_explorer_disk_model;
          Alcotest.test_case "rename atomicity and dir fsync" `Quick
            test_explorer_rename_and_dir_sync;
          Alcotest.test_case "enumeration is deterministic" `Quick
            test_explorer_deterministic;
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "200+ states, zero violations" `Quick test_crash_matrix;
          Alcotest.test_case "other sync policies" `Quick test_crash_matrix_policies;
          Alcotest.test_case "floor below ceiling everywhere" `Quick
            test_floor_and_ceiling_monotone;
          Alcotest.test_case "steps count by their answer" `Quick test_steps_count_by_answer;
          QCheck_alcotest.to_alcotest prop_random_scenarios;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "a flipped chunk fails every open" `Quick
            test_flipped_checkpoint_refused;
          Alcotest.test_case "overlay files are a cache the open empties" `Quick
            test_overlay_files_are_a_cache;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "round trip, memory store" `Quick (checkpoint_scrub ~flips:12);
          Alcotest.test_case "round trip, mapped store" `Quick
            (checkpoint_scrub ~store:Storage.Store_kind.Mmap ~flips:12);
          Alcotest.test_case "b=170 pages" `Quick
            (checkpoint_scrub ~config:(Mvsbt.default_config ~b:170) ~n:2000 ~flips:4);
          Alcotest.test_case "over a vacuumed store" `Quick
            (checkpoint_scrub ~vacuum:true ~flips:4);
          Alcotest.test_case "detects 100% of injected flips" `Quick
            (checkpoint_scrub ~flips:10_000);
          Alcotest.test_case "refuses a stale twin" `Quick
            (checkpoint_scrub ~stale:true ~flips:4);
          Alcotest.test_case "log frames are checked, not repaired" `Quick
            test_scrub_wal_frames;
          Alcotest.test_case "trusts a twin only where it verifies" `Quick
            test_scrub_verifies_the_twin;
        ] );
    ]
