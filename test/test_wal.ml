(* Tests for the durability layer: WAL framing and replay, torn/corrupt
   tail handling, fault injection, the Durable engine's checkpoint
   lifecycle, and crash recovery checked against the reference oracle. *)

let temp_prefix () =
  let p = Filename.temp_file "mvsbt_wal" "" in
  Sys.remove p;
  p

(* Engine files live under [prefix ^ ".wal"], [prefix ^ ".ckpt"], and
   generation-stamped [prefix ^ ".ckpt-<gen>.*"] snapshot names; sweep
   everything with the prefix rather than enumerating generations. *)
let cleanup prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  Array.iter
    (fun name ->
      if String.length name >= String.length base
         && String.sub name 0 (String.length base) = base then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

let payload s = Bytes.of_string s

(* These tests drive the log and engine without error injection, so the
   typed error channel should never carry anything: unwrap it. *)
let ok = Storage.Storage_error.ok_exn

let replay_strings wal =
  let acc = ref [] in
  let n =
    Wal.replay wal (fun rd ->
        let buf = Buffer.create 8 in
        (try
           while true do
             Buffer.add_char buf (Char.chr (Storage.Codec.Reader.u8 rd))
           done
         with Storage.Codec.Overflow _ -> ());
        acc := Buffer.contents buf :: !acc)
  in
  (n, List.rev !acc)

(* --- WAL framing -------------------------------------------------------------- *)

let test_wal_roundtrip () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path ~policy:Wal.Always path in
  Alcotest.(check int) "empty log replays nothing" 0 (Wal.replay wal (fun _ -> ()));
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "alpha"; "bravo"; "charlie" ];
  let st = Wal.stats wal in
  Alcotest.(check int) "appends" 3 (Wal.Stats.appends st);
  Alcotest.(check int) "fsyncs under Always" 3 (Wal.Stats.fsyncs st);
  Wal.close wal;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "replayed" 3 n;
  Alcotest.(check (list string)) "payloads" [ "alpha"; "bravo"; "charlie" ] got;
  (* Appending after replay extends the same log. *)
  ok (Wal.append wal (payload "delta"));
  Wal.close wal;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "replayed after extend" 4 n;
  Alcotest.(check (list string)) "extended" [ "alpha"; "bravo"; "charlie"; "delta" ] got;
  Wal.close wal;
  cleanup prefix

let test_wal_group_commit () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path ~policy:(Wal.Every_n 4) path in
  for i = 1 to 10 do
    ok (Wal.append wal (payload (string_of_int i)))
  done;
  Alcotest.(check int) "two group commits for 10 appends" 2
    (Wal.Stats.fsyncs (Wal.stats wal));
  Wal.close wal;
  let wal = Wal.open_path ~policy:Wal.Never path in
  ignore (Wal.replay wal (fun _ -> ()));
  ok (Wal.append wal (payload "x"));
  Alcotest.(check int) "Never policy: no fsync" 0 (Wal.Stats.fsyncs (Wal.stats wal));
  Wal.close wal;
  cleanup prefix

let append_raw path bytes =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_bytes oc bytes;
  close_out oc

let test_wal_torn_tail () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "one"; "two" ];
  Wal.close wal;
  (* A torn append: a frame header promising 100 bytes, then silence. *)
  let torn = Bytes.create 11 in
  Bytes.set_int32_le torn 0 100l;
  append_raw path torn;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "torn tail dropped" 2 n;
  Alcotest.(check (list string)) "prefix intact" [ "one"; "two" ] got;
  Alcotest.(check bool) "tail bytes counted" true
    (Wal.Stats.dropped_bytes (Wal.stats wal) = 11);
  (* The log was truncated back to the valid prefix: extending works. *)
  ok (Wal.append wal (payload "three"));
  Wal.close wal;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "extended after truncation" 3 n;
  Alcotest.(check (list string)) "no garbage revived" [ "one"; "two"; "three" ] got;
  Wal.close wal;
  cleanup prefix

let test_wal_corrupt_record () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "aaaa"; "bbbb"; "cccc" ];
  let size = Wal.size wal in
  Wal.close wal;
  (* Flip one payload byte of the middle record. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let mid_payload_off = size - (2 * (8 + 4)) + 8 in
  ignore (Unix.lseek fd mid_payload_off Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "stops at corrupt record" 1 n;
  Alcotest.(check (list string)) "only the intact prefix" [ "aaaa" ] got;
  Wal.close wal;
  cleanup prefix

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let file_size path = (Unix.stat path).Unix.st_size

(* A whole header that fails its check is refused, typed and naming the
   log, and the file is left as it is; a header shorter than one is what
   a crash while the log was being made leaves, and starts afresh. *)
let test_wal_garbage_header () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  write_file path "certainly not a write-ahead log";
  (match Wal.open_path path with
  | _ -> Alcotest.fail "a foreign file opened as a log"
  | exception Storage.Storage_error.Io { errno = Checksum_mismatch; path = p; _ } ->
      Alcotest.(check string) "the error names the log" path p);
  Alcotest.(check int) "foreign file left as it is" 31 (file_size path);
  write_file path "MVSBTWAL\001\000";
  let wal = Wal.open_path path in
  Alcotest.(check int) "torn header resets to empty" 0 (Wal.replay wal (fun _ -> ()));
  Alcotest.(check int) "reset counted" 1 (Wal.Stats.truncations (Wal.stats wal));
  ok (Wal.append wal (payload "fresh"));
  Wal.close wal;
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "usable after reset" 1 n;
  Alcotest.(check (list string)) "fresh record" [ "fresh" ] got;
  Wal.close wal;
  cleanup prefix

(* One flipped byte in the header of a log that holds records: the open
   refuses it rather than emptying the log, the file keeps its size, and
   scrub does not call it clean. *)
let test_wal_rotten_header () =
  let prefix = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix) @@ fun () ->
  let wh = Durable.open_ ~max_key:1000 ~path:prefix () in
  for i = 1 to 60 do
    ok (Durable.insert wh ~key:i ~value:i ~at:i)
  done;
  Durable.close wh;
  let path = prefix ^ ".wal" in
  let size = file_size path in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1 : int);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0x04);
  ignore (Unix.write fd b 0 1 : int);
  Unix.close fd;
  (match Durable.open_ ~max_key:1000 ~path:prefix () with
  | wh ->
      Durable.close wh;
      Alcotest.fail "opened a log whose header is rotten"
  | exception Storage.Storage_error.Io { errno = Checksum_mismatch; path = p; _ } ->
      Alcotest.(check string) "the error names the log" path p);
  Alcotest.(check int) "the log keeps its size" size (file_size path);
  let report = Durable.scrub ~path:prefix () in
  Alcotest.(check bool) "scrub does not call it clean" false (Durable.scrub_clean report);
  Alcotest.(check (list int)) "scrub names the header" [ 0 ] report.Durable.wal_corrupt

let test_faulty_crash () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  (* Header is 16 bytes; allow it plus one full frame (8 + 5) plus 3 bytes
     of the next frame: the second append must tear. *)
  let h, file = Wal.Faulty.wrap ~fail_after:(16 + 13 + 3) (Wal.os_file ~path) in
  let wal = Wal.open_log ~policy:Wal.Never file in
  ok (Wal.append wal (payload "hello"));
  Alcotest.(check bool) "alive before budget" false (Wal.Faulty.crashed h);
  Alcotest.check_raises "crash mid-append" Wal.Crashed (fun () ->
      ignore (Wal.append wal (payload "world")));
  Alcotest.(check bool) "crashed" true (Wal.Faulty.crashed h);
  Alcotest.(check int) "exact bytes reached the file" (16 + 13 + 3) (Wal.Faulty.written h);
  Alcotest.check_raises "dead after crash" Wal.Crashed (fun () ->
      ignore (Wal.append wal (payload "zombie")));
  (* A restarted process reopens the underlying file and sees the torn
     tail dropped. *)
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "recovered prefix" 1 n;
  Alcotest.(check (list string)) "payload survives" [ "hello" ] got;
  Wal.close wal;
  cleanup prefix

let test_faulty_dropped () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let h, file =
    Wal.Faulty.wrap ~mode:Storage.Vfs.Fault.Dropped ~fail_after:(16 + 13 + 3)
      (Wal.os_file ~path)
  in
  let wal = Wal.open_log ~policy:Wal.Never file in
  ok (Wal.append wal (payload "hello"));
  Alcotest.check_raises "crash on the crossing append" Wal.Crashed (fun () ->
      ignore (Wal.append wal (payload "world")));
  (* Dropped: the crossing write vanishes wholesale — no partial bytes. *)
  Alcotest.(check int) "only pre-crash bytes landed" (16 + 13) (Wal.Faulty.written h);
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "clean prefix, no torn tail" 1 n;
  Alcotest.(check (list string)) "first record survives" [ "hello" ] got;
  Alcotest.(check int) "nothing to truncate on recovery" 0
    (Wal.Stats.dropped_bytes (Wal.stats wal));
  Wal.close wal;
  cleanup prefix

let test_faulty_duplicated () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let h, file =
    Wal.Faulty.wrap ~mode:Storage.Vfs.Fault.Duplicated ~fail_after:(16 + 13 + 3)
      (Wal.os_file ~path)
  in
  let wal = Wal.open_log ~policy:Wal.Never file in
  ok (Wal.append wal (payload "hello"));
  Alcotest.check_raises "crash on the crossing append" Wal.Crashed (fun () ->
      ignore (Wal.append wal (payload "world")));
  (* Duplicated: a retried write whose first copy also landed — the frame
     appears twice, each copy a valid CRC frame. *)
  Alcotest.(check int) "the crossing frame landed twice" (16 + 13 + 26)
    (Wal.Faulty.written h);
  let wal = Wal.open_path path in
  let n, got = replay_strings wal in
  Alcotest.(check int) "both copies replay at the byte layer" 3 n;
  Alcotest.(check (list string)) "duplicate visible" [ "hello"; "world"; "world" ] got;
  Wal.close wal;
  cleanup prefix

(* The engine's sequence numbers make a duplicated record harmless: the
   second copy carries a seq the state already covers and is skipped. *)
let test_engine_skips_duplicated_record () =
  let prefix = temp_prefix () in
  let wal_wrap file =
    (* Header (16) + two insert frames (8 + 33 each): the second insert's
       append crosses the budget and lands twice. *)
    let _, f =
      Wal.Faulty.wrap ~mode:Storage.Vfs.Fault.Duplicated ~fail_after:(16 + 41 + 1) file
    in
    f
  in
  let mk = 1000 in
  (try
     let wh = Durable.open_ ~wal_wrap ~max_key:mk ~path:prefix () in
     ok (Durable.insert wh ~key:1 ~value:10 ~at:1);
     ok (Durable.insert wh ~key:2 ~value:20 ~at:2);
     Alcotest.fail "second insert should have crashed the WAL"
   with Wal.Crashed -> ());
  let wh = Durable.open_ ~max_key:mk ~path:prefix () in
  let rta = Durable.warehouse wh in
  Alcotest.(check int) "duplicate replayed once into state" 2 (Rta.n_updates rta);
  Alcotest.(check int) "three frames seen by replay" 3 (Durable.replayed_on_open wh);
  Alcotest.(check (pair int int)) "value counted once" (30, 2)
    (Rta.sum_count rta ~klo:0 ~khi:mk ~tlo:0 ~thi:10);
  Rta.check_invariants rta;
  Durable.close wh;
  cleanup prefix

(* --- Durable engine ----------------------------------------------------------- *)

let max_key = 1000

let random_events ~n ~seed =
  let spec : Workload.Generator.spec =
    {
      n_records = n;
      n_keys = max 4 (n / 4);
      max_key;
      max_time = 50_000;
      key_distribution = Workload.Generator.Uniform;
      interval_style = Workload.Generator.Short_lived;
      value_bound = 500;
      version_skew = 0.;
      seed;
    }
  in
  Workload.Generator.events spec

let feed_reference events n =
  let oracle = Reference.Warehouse.create () in
  List.iteri
    (fun i ev ->
      if i < n then
        match ev with
        | Workload.Generator.Insert { key; value; at } ->
            Reference.Warehouse.insert oracle ~key ~value ~at
        | Workload.Generator.Delete { key; at } -> Reference.Warehouse.delete oracle ~key ~at)
    events;
  oracle

let check_against_oracle ~what rta oracle =
  let rng = Workload.Rng.create ~seed:4242 in
  for i = 1 to 40 do
    let r =
      Workload.Query_gen.rectangle rng ~max_key ~max_time:50_000 ~qrs:0.05 ~r_over_i:1.0
    in
    let sum, count = Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
    let esum = Reference.Warehouse.rta_sum oracle ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
    let ecount =
      Reference.Warehouse.rta_count oracle ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi
    in
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s: rectangle %d" what i)
      (esum, ecount) (sum, count)
  done

let test_durable_checkpoint_lifecycle () =
  let prefix = temp_prefix () in
  let events = random_events ~n:300 ~seed:7 in
  let n_total = List.length events in
  let wh = Durable.open_ ~max_key ~path:prefix () in
  let applied = ref 0 in
  List.iteri
    (fun i ev ->
      (match ev with
      | Workload.Generator.Insert { key; value; at } -> ok (Durable.insert wh ~key ~value ~at)
      | Workload.Generator.Delete { key; at } -> ok (Durable.delete wh ~key ~at));
      incr applied;
      (* A manual checkpoint a third of the way in. *)
      if i = n_total / 3 then ok (Durable.checkpoint wh))
    events;
  Alcotest.(check int) "one checkpoint" 1 (Durable.checkpoints wh);
  Alcotest.(check int) "post-checkpoint updates pending" (n_total - (n_total / 3) - 1)
    (Durable.updates_since_checkpoint wh);
  Durable.close wh;
  (* Reopen: checkpoint + replay of the tail must equal the full history. *)
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "tail replayed" (n_total - (n_total / 3) - 1)
    (Durable.replayed_on_open wh);
  Alcotest.(check int) "every update recovered" n_total (Rta.n_updates (Durable.warehouse wh));
  check_against_oracle ~what:"checkpoint+tail" (Durable.warehouse wh)
    (feed_reference events n_total);
  (* Checkpoint now, reopen again: nothing left to replay. *)
  ok (Durable.checkpoint wh);
  Durable.close wh;
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "log empty after checkpoint" 0 (Durable.replayed_on_open wh);
  Alcotest.(check int) "state intact" n_total (Rta.n_updates (Durable.warehouse wh));
  Durable.close wh;
  cleanup prefix

let test_durable_auto_checkpoint () =
  let prefix = temp_prefix () in
  let events = random_events ~n:200 ~seed:11 in
  let wh = Durable.open_ ~checkpoint_every:50 ~max_key ~path:prefix () in
  List.iter
    (fun ev ->
      match ev with
      | Workload.Generator.Insert { key; value; at } -> ok (Durable.insert wh ~key ~value ~at)
      | Workload.Generator.Delete { key; at } -> ok (Durable.delete wh ~key ~at))
    events;
  let n_total = List.length events in
  Alcotest.(check int) "auto checkpoints fired" (n_total / 50) (Durable.checkpoints wh);
  Alcotest.(check bool) "log stays short" true (Durable.updates_since_checkpoint wh < 50);
  Durable.close wh;
  let wh = Durable.open_ ~max_key ~path:prefix () in
  check_against_oracle ~what:"auto-checkpoint" (Durable.warehouse wh)
    (feed_reference events n_total);
  Durable.close wh;
  cleanup prefix

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec loop () =
        let n = input ic buf 0 65536 in
        if n > 0 then begin
          output oc buf 0 n;
          loop ()
        end
      in
      loop ())

let apply_event wh = function
  | Workload.Generator.Insert { key; value; at } -> ok (Durable.insert wh ~key ~value ~at)
  | Workload.Generator.Delete { key; at } -> ok (Durable.delete wh ~key ~at)

let test_durable_checkpoint_atomicity () =
  (* The crash windows of the checkpoint protocol itself. *)
  let prefix = temp_prefix () in
  let events = random_events ~n:100 ~seed:19 in
  let n_total = List.length events in
  let wh = Durable.open_ ~max_key ~path:prefix () in
  List.iter (apply_event wh) events;
  (* Window 1: pointer committed but the WAL truncation never reached the
     disk — the log still holds every record the checkpoint covers.
     Replay must skip them all (they carry sequence numbers at or below
     the checkpoint's), not double-apply. *)
  copy_file (prefix ^ ".wal") (prefix ^ ".walcopy");
  ok (Durable.checkpoint wh);
  Durable.close wh;
  Sys.rename (prefix ^ ".walcopy") (prefix ^ ".wal");
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "covered records replayed (skipped)" n_total
    (Durable.replayed_on_open wh);
  Alcotest.(check int) "no double-apply" n_total (Rta.n_updates (Durable.warehouse wh));
  check_against_oracle ~what:"untruncated log after checkpoint" (Durable.warehouse wh)
    (feed_reference events n_total);
  Durable.close wh;
  (* Window 2: a later checkpoint crashed after writing its snapshot
     files but before the pointer swap.  The stale generation must be
     ignored on open (the committed one wins) and swept away. *)
  let stale ext = prefix ^ ".ckpt-9" ^ ext in
  List.iter
    (fun ext ->
      let oc = open_out_bin (stale ext) in
      output_string oc "half-written snapshot from a crashed checkpoint";
      close_out oc)
    [ ".lkst"; ".lklt"; ".meta" ];
  let oc = open_out_bin (prefix ^ ".ckpt.tmp") in
  output_string oc "torn pointer tmp";
  close_out oc;
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "stale generation ignored" n_total
    (Rta.n_updates (Durable.warehouse wh));
  Alcotest.(check bool) "stale snapshot files swept" false
    (Sys.file_exists (stale ".lkst") || Sys.file_exists (stale ".lklt")
    || Sys.file_exists (stale ".meta") || Sys.file_exists (prefix ^ ".ckpt.tmp"));
  (* A second checkpoint retires the previous generation's files. *)
  ok (Durable.checkpoint wh);
  Alcotest.(check bool) "old generation retired" false
    (Sys.file_exists (prefix ^ ".ckpt-1.lkst"));
  Alcotest.(check bool) "new generation committed" true
    (Sys.file_exists (prefix ^ ".ckpt-2.lkst"));
  Durable.close wh;
  (* A corrupt pointer must fail loudly: the WAL alone no longer holds
     the full history, so silently starting empty would lose data. *)
  let oc = open_out_bin (prefix ^ ".ckpt") in
  output_string oc "garbage-pointer";
  close_out oc;
  Alcotest.(check bool) "corrupt pointer rejected" true
    (try
       ignore (Durable.open_ ~max_key ~path:prefix ());
       false
     with Failure _ -> true);
  cleanup prefix

let test_durable_empty_and_garbage_log () =
  (* A fresh path: clean empty warehouse. *)
  let prefix = temp_prefix () in
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "fresh: no updates" 0 (Rta.n_updates (Durable.warehouse wh));
  Alcotest.(check int) "fresh: nothing replayed" 0 (Durable.replayed_on_open wh);
  Durable.close wh;
  cleanup prefix;
  (* A garbage .wal and no checkpoint: a whole header's worth of garbage
     is refused; less than a header is a clean empty warehouse. *)
  let prefix = temp_prefix () in
  let garbage n = write_file (prefix ^ ".wal") (String.init n (fun i -> Char.chr (i * 37 mod 256))) in
  garbage 100;
  (match Durable.open_ ~max_key ~path:prefix () with
  | _ -> Alcotest.fail "garbage log opened"
  | exception Storage.Storage_error.Io { errno = Checksum_mismatch; _ } -> ());
  garbage 10;
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "torn header: empty warehouse" 0 (Rta.n_updates (Durable.warehouse wh));
  Alcotest.(check (pair int int)) "torn header: zero aggregate" (0, 0)
    (Durable.sum_count wh ~klo:0 ~khi:max_key ~tlo:0 ~thi:50_000);
  Durable.close wh;
  cleanup prefix;
  (* A truncated-mid-record log: the valid prefix is recovered. *)
  let prefix = temp_prefix () in
  let wh = Durable.open_ ~max_key ~path:prefix () in
  ok (Durable.insert wh ~key:1 ~value:10 ~at:1);
  ok (Durable.insert wh ~key:2 ~value:20 ~at:2);
  Durable.close wh;
  let full = (Unix.stat (prefix ^ ".wal")).Unix.st_size in
  let fd = Unix.openfile (prefix ^ ".wal") [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd (full - 5);
  Unix.close fd;
  let wh = Durable.open_ ~max_key ~path:prefix () in
  Alcotest.(check int) "truncated log: prefix recovered" 1
    (Rta.n_updates (Durable.warehouse wh));
  Alcotest.(check bool) "first tuple alive" true
    (Rta.is_alive (Durable.warehouse wh) ~key:1);
  Alcotest.(check bool) "second tuple lost with the torn tail" false
    (Rta.is_alive (Durable.warehouse wh) ~key:2);
  Durable.close wh;
  cleanup prefix

(* Crash the WAL at a byte offset, recover, audit the applied prefix
   against the oracle.  This is the acceptance criterion of the PR. *)
let crash_and_recover ~events ~checkpoint_every ~fail_after =
  let prefix = temp_prefix () in
  let handle = ref None in
  let wal_wrap file =
    let h, f = Wal.Faulty.wrap ~fail_after file in
    handle := Some h;
    f
  in
  (try
     let wh =
       Durable.open_ ~checkpoint_every ~sync_policy:(Wal.Every_n 8) ~wal_wrap ~max_key
         ~path:prefix ()
     in
     List.iter
       (fun ev ->
         match ev with
         | Workload.Generator.Insert { key; value; at } -> ok (Durable.insert wh ~key ~value ~at)
         | Workload.Generator.Delete { key; at } -> ok (Durable.delete wh ~key ~at))
       events
     (* Budget large enough for the whole stream: no crash this run. *)
   with Wal.Crashed -> ());
  (* The "restarted process": reopen without faults and recover. *)
  let wh = Durable.open_ ~max_key ~path:prefix () in
  let rta = Durable.warehouse wh in
  let n_applied = Rta.n_updates rta in
  Alcotest.(check bool)
    (Printf.sprintf "recovered a prefix (fail_after=%d)" fail_after)
    true
    (n_applied >= 0 && n_applied <= List.length events);
  check_against_oracle
    ~what:(Printf.sprintf "crash at byte %d (ckpt_every=%d)" fail_after checkpoint_every)
    rta
    (feed_reference events n_applied);
  Rta.check_invariants rta;
  Durable.close wh;
  cleanup prefix;
  n_applied

let prop_crash_recovery =
  QCheck.Test.make ~name:"crash at random byte offset, recover, match oracle" ~count:25
    QCheck.(pair (int_range 0 6000) (int_range 0 2))
    (fun (fail_after, ckpt_sel) ->
      let events = random_events ~n:120 ~seed:(31 + ckpt_sel) in
      let checkpoint_every = [| 0; 40; 75 |].(ckpt_sel) in
      let n = crash_and_recover ~events ~checkpoint_every ~fail_after in
      n >= 0 && n <= List.length events)

let test_crash_recovery_fixed_offsets () =
  let events = random_events ~n:150 ~seed:23 in
  let full = crash_and_recover ~events ~checkpoint_every:0 ~fail_after:max_int in
  Alcotest.(check int) "fault-free run applies everything" (List.length events) full;
  (* Crash inside the header, at frame boundaries, and mid-record. *)
  List.iter
    (fun fail_after ->
      ignore (crash_and_recover ~events ~checkpoint_every:0 ~fail_after);
      ignore (crash_and_recover ~events ~checkpoint_every:50 ~fail_after))
    [ 0; 1; 15; 16; 17; 16 + 8 + 33; 500; 1000; 2500 ]

(* --- Live tailing ------------------------------------------------------------- *)

let wal_header_bytes = 16

let write_file path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  Bytes.of_string (Bytes.to_string b)

let poll_frame tail =
  match Wal.Tail.poll tail with
  | Wal.Tail.Frame p -> Bytes.to_string p
  | Wal.Tail.Need_more -> Alcotest.fail "expected a frame, got Need_more"
  | Wal.Tail.Corrupt m -> Alcotest.fail ("expected a frame, got Corrupt: " ^ m)

let check_need_more msg tail =
  match Wal.Tail.poll tail with
  | Wal.Tail.Need_more -> ()
  | Wal.Tail.Frame p -> Alcotest.fail (msg ^ ": unexpected frame " ^ Bytes.to_string p)
  | Wal.Tail.Corrupt m -> Alcotest.fail (msg ^ ": unexpected Corrupt: " ^ m)

(* The satellite case: a record whose bytes land in two installments must
   read as Need_more, then the complete frame — byte-exact. *)
let test_tail_split_frame () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path ~policy:Wal.Always path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "one"; "two"; "three" ];
  Wal.close wal;
  let full = read_file path in
  let split = Bytes.length full - 6 in
  let part = prefix ^ ".part.wal" in
  write_file part (Bytes.sub full 0 split);
  let tail = Wal.Tail.open_path part in
  Alcotest.(check string) "first frame" "one" (poll_frame tail);
  Alcotest.(check string) "second frame" "two" (poll_frame tail);
  check_need_more "third record half-landed" tail;
  check_need_more "still half-landed" tail;
  append_raw part (Bytes.sub full split (Bytes.length full - split));
  Alcotest.(check string) "completed across two polls" "three" (poll_frame tail);
  check_need_more "clean EOF" tail;
  (* New appends after the tail already hit EOF are picked up. *)
  let wal = Wal.open_path ~policy:Wal.Always part in
  ok (Wal.append wal (payload "four"));
  Wal.close wal;
  Alcotest.(check string) "append after EOF" "four" (poll_frame tail);
  Wal.Tail.close tail;
  cleanup prefix

let test_tail_truncation_reset () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path ~policy:Wal.Always path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "a"; "b"; "c" ];
  Wal.close wal;
  let tail = Wal.Tail.open_path path in
  let g1 = poll_frame tail in
  let g2 = poll_frame tail in
  let g3 = poll_frame tail in
  Alcotest.(check (list string)) "history read" [ "a"; "b"; "c" ] [ g1; g2; g3 ];
  (* A checkpoint truncates the log back to its header; the tail must
     notice the shrink and restart after the header, not misparse. *)
  Unix.truncate path wal_header_bytes;
  let wal = Wal.open_path ~policy:Wal.Always path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "post-ckpt" ];
  Wal.close wal;
  Alcotest.(check string) "restarted after the header" "post-ckpt" (poll_frame tail);
  check_need_more "EOF after reset" tail;
  Wal.Tail.close tail;
  cleanup prefix

let test_tail_corrupt_record () =
  let prefix = temp_prefix () in
  let path = prefix ^ ".wal" in
  let wal = Wal.open_path ~policy:Wal.Always path in
  List.iter (fun s -> ok (Wal.append wal (payload s))) [ "aaaa"; "bbbb" ];
  let size = Wal.size wal in
  Wal.close wal;
  (* Flip one payload byte of the second, fully-present record. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let tail = Wal.Tail.open_path path in
  Alcotest.(check string) "intact prefix" "aaaa" (poll_frame tail);
  (match Wal.Tail.poll tail with
  | Wal.Tail.Corrupt _ -> ()
  | e ->
      Alcotest.failf "expected Corrupt, got %s"
        (match e with
        | Wal.Tail.Frame p -> "Frame " ^ Bytes.to_string p
        | Wal.Tail.Need_more -> "Need_more"
        | Wal.Tail.Corrupt _ -> assert false));
  Wal.Tail.close tail;
  cleanup prefix

(* The log's one-process guard lives on [<wal>.lock]: closing another
   descriptor of the log in the same process — a replication tail, scrub —
   must not release it, so a second process still cannot open the live
   warehouse. *)
let test_guard_survives_reader_close () =
  let prefix = temp_prefix () in
  let eng = Durable.open_ ~max_key:100 ~path:prefix () in
  ok (Durable.insert eng ~key:1 ~value:1 ~at:1);
  let reader = Storage.Vfs.os.Storage.Vfs.v_open `Reopen (Durable.wal_path prefix) in
  reader.Storage.Vfs.f_close ();
  (match Unix.fork () with
  | 0 ->
      let code =
        match Durable.open_ ~max_key:100 ~path:prefix () with
        | _ -> 1
        | exception Failure _ -> 0
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED _ -> Alcotest.fail "a second process opened the live warehouse"
      | _ -> Alcotest.fail "child died"));
  Durable.close eng;
  (* Closing the engine releases the guard. *)
  Durable.close (Durable.open_ ~max_key:100 ~path:prefix ());
  cleanup prefix

let () =
  Alcotest.run "wal"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "group commit" `Quick test_wal_group_commit;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt record" `Quick test_wal_corrupt_record;
          Alcotest.test_case "garbage header" `Quick test_wal_garbage_header;
          Alcotest.test_case "rotten header is refused" `Quick test_wal_rotten_header;
          Alcotest.test_case "fault injection" `Quick test_faulty_crash;
          Alcotest.test_case "dropped write" `Quick test_faulty_dropped;
          Alcotest.test_case "duplicated write" `Quick test_faulty_duplicated;
          Alcotest.test_case "engine skips duplicated record" `Quick
            test_engine_skips_duplicated_record;
        ] );
      ( "durable-engine",
        [
          Alcotest.test_case "checkpoint lifecycle" `Quick test_durable_checkpoint_lifecycle;
          Alcotest.test_case "guard survives a reader's close" `Quick
            test_guard_survives_reader_close;
          Alcotest.test_case "auto checkpoint" `Quick test_durable_auto_checkpoint;
          Alcotest.test_case "checkpoint atomicity" `Quick test_durable_checkpoint_atomicity;
          Alcotest.test_case "empty/garbage/truncated logs" `Quick
            test_durable_empty_and_garbage_log;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "fixed offsets" `Quick test_crash_recovery_fixed_offsets;
          QCheck_alcotest.to_alcotest prop_crash_recovery;
        ] );
      ( "tail",
        [
          Alcotest.test_case "frame split across two polls" `Quick test_tail_split_frame;
          Alcotest.test_case "truncation resets to the header" `Quick
            test_tail_truncation_reset;
          Alcotest.test_case "corrupt record surfaces" `Quick test_tail_corrupt_record;
        ] );
    ]
