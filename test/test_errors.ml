(* Typed storage errors, retry/backoff, error injection, and the Durable
   engine's health state machine. *)

module E = Storage.Storage_error
module I = Storage.Vfs.Inject
module M = Storage.Vfs.Memory
module Retry = Storage.Retry
module Io_stats = Storage.Io_stats

let ok = E.ok_exn
let no_delay = Retry.no_delay

(* --- Vfs.Inject --------------------------------------------------------------- *)

let test_inject_fires_typed_error () =
  let fs = M.create () in
  let h, vfs = I.wrap ~persistent:false ~fail_at:3 ~cls:I.Eio (M.vfs fs) in
  let f = vfs.Storage.Vfs.v_open `Create "f" in
  (* syscall 1 *)
  let buf = Bytes.of_string "hello" in
  f.Storage.Vfs.f_append buf 0 5;
  (* syscall 2 *)
  (match f.Storage.Vfs.f_sync () (* syscall 3: fires *) with
  | () -> Alcotest.fail "expected an injected EIO"
  | exception E.Io e ->
      Alcotest.(check bool) "transient" true e.E.transient;
      (match e.E.errno with
      | E.Eio -> ()
      | _ -> Alcotest.failf "wrong errno: %s" (E.to_string e)));
  (* One-shot: the next syscall goes through. *)
  f.Storage.Vfs.f_sync ();
  Alcotest.(check int) "injected once" 1 (I.injected h);
  Alcotest.(check int) "4 syscalls counted" 4 (I.syscalls h)

let test_inject_short_write_class () =
  let fs = M.create () in
  let _h, vfs = I.wrap ~persistent:false ~fail_at:2 ~cls:I.Short (M.vfs fs) in
  let f = vfs.Storage.Vfs.v_open `Create "f" in
  match f.Storage.Vfs.f_append (Bytes.make 10 'x') 0 10 with
  | () -> Alcotest.fail "expected an injected short write"
  | exception E.Io { E.errno = E.Short_write { expected = 10; got = 0 }; _ } ->
      (* No side effect: nothing of the failed append landed. *)
      let f2 = (M.vfs fs).Storage.Vfs.v_open `Reopen "f" in
      Alcotest.(check int) "nothing written" 0 (f2.Storage.Vfs.f_size ())
  | exception E.Io e -> Alcotest.failf "wrong errno: %s" (E.to_string e)

let test_retry_absorbs_transients () =
  let fs = M.create () in
  let stats = Io_stats.create () in
  let h, injected = I.wrap ~stats ~persistent:false ~fail_at:max_int ~cls:I.Eintr (M.vfs fs) in
  let vfs = Storage.Vfs.with_retry ~stats ~policy:no_delay injected in
  let f = vfs.Storage.Vfs.v_open `Create "f" in
  I.arm h ~fail_at:(I.syscalls h + 1);
  (* The injected EINTR is retried away: the caller sees success. *)
  f.Storage.Vfs.f_pwrite 0 (Bytes.of_string "abc") 0 3;
  Alcotest.(check int) "one retry recorded" 1 (Io_stats.retries stats);
  Alcotest.(check int) "fault fired" 1 (I.injected h);
  Alcotest.(check int) "write landed intact" 3 (f.Storage.Vfs.f_size ())

let test_retry_skips_permanent () =
  let fs = M.create () in
  let stats = Io_stats.create () in
  let h, injected = I.wrap ~stats ~persistent:true ~fail_at:max_int ~cls:I.Enospc (M.vfs fs) in
  let vfs = Storage.Vfs.with_retry ~stats ~policy:no_delay injected in
  let f = vfs.Storage.Vfs.v_open `Create "f" in
  I.arm h ~fail_at:(I.syscalls h + 1);
  (match E.protect (fun () -> f.Storage.Vfs.f_pwrite 0 (Bytes.of_string "abc") 0 3) with
  | Ok () -> Alcotest.fail "ENOSPC must surface"
  | Error e -> Alcotest.(check bool) "permanent" false e.E.transient);
  Alcotest.(check int) "permanent errors are not retried" 0 (Io_stats.retries stats)

(* --- Wal append rollback ------------------------------------------------------ *)

let payload s = Bytes.of_string s

let test_wal_append_rolls_back_on_sync_failure () =
  let fs = M.create () in
  let base = M.vfs fs in
  let stats = Io_stats.create () in
  let h, injected = I.wrap ~stats ~persistent:false ~fail_at:max_int ~cls:I.Eio base in
  (* max_attempts = 1: no retries, so the injected fsync failure reaches
     Wal.append directly. *)
  let vfs = Storage.Vfs.with_retry ~stats ~policy:{ no_delay with Retry.max_attempts = 1 } injected in
  let wal =
    Wal.open_log ~policy:Wal.Always ~path:"log" (vfs.Storage.Vfs.v_open `Log "log")
  in
  ok (Wal.append wal (payload "first"));
  let size1 = Wal.size wal in
  (* Next append issues f_append then f_sync; fail the fsync. *)
  I.arm h ~fail_at:(I.syscalls h + 2);
  (match Wal.append wal (payload "second") with
  | Ok () -> Alcotest.fail "append must fail when its fsync fails"
  | Error _ -> ());
  Alcotest.(check bool) "rollback succeeded" false (Wal.broken wal);
  Alcotest.(check int) "log rolled back to pre-append size" size1 (Wal.size wal);
  ok (Wal.append wal (payload "third"));
  Wal.close wal;
  (* Recovery sees exactly the acknowledged records. *)
  let wal2 = Wal.open_log ~path:"log" (base.Storage.Vfs.v_open `Log "log") in
  let got = ref [] in
  let n =
    Wal.replay wal2 (fun rd ->
        let b = Buffer.create 8 in
        (try
           while true do
             Buffer.add_char b (Char.chr (Storage.Codec.Reader.u8 rd))
           done
         with _ -> ());
        got := Buffer.contents b :: !got)
  in
  Wal.close wal2;
  Alcotest.(check int) "two records recovered" 2 n;
  Alcotest.(check (list string)) "acknowledged payloads" [ "first"; "third" ]
    (List.rev !got)

let test_wal_poisoned_when_rollback_fails () =
  let fs = M.create () in
  let stats = Io_stats.create () in
  let h, injected = I.wrap ~stats ~persistent:true ~fail_at:max_int ~cls:I.Eio (M.vfs fs) in
  let vfs = Storage.Vfs.with_retry ~stats ~policy:{ no_delay with Retry.max_attempts = 1 } injected in
  let wal =
    Wal.open_log ~policy:Wal.Always ~path:"log" (vfs.Storage.Vfs.v_open `Log "log")
  in
  ok (Wal.append wal (payload "first"));
  (* Persistent EIO: the append's fsync fails AND the rollback truncate
     fails — the log must refuse further appends. *)
  I.arm h ~fail_at:(I.syscalls h + 2);
  (match Wal.append wal (payload "second") with
  | Ok () -> Alcotest.fail "append must fail"
  | Error _ -> ());
  Alcotest.(check bool) "poisoned" true (Wal.broken wal);
  (match Wal.append wal (payload "third") with
  | Error { E.errno = E.Wal_poisoned; _ } -> ()
  | Ok () -> Alcotest.fail "poisoned log accepted an append"
  | Error e -> Alcotest.failf "wrong errno: %s" (E.to_string e));
  (* A checkpoint-style truncation heals the log. *)
  I.arm h ~fail_at:max_int;
  ok (Wal.truncate wal);
  Alcotest.(check bool) "healed" false (Wal.broken wal);
  ok (Wal.append wal (payload "fourth"));
  Wal.close wal

(* --- Durable health machine --------------------------------------------------- *)

let query_panel ~max_key ~max_t =
  let rng = Random.State.make [| 7; 0xca5e |] in
  List.init 10 (fun _ ->
      let klo = Random.State.int rng max_key in
      let khi = klo + 1 + Random.State.int rng (max_key - klo) in
      let tlo = Random.State.int rng max_t in
      let thi = tlo + 1 + Random.State.int rng (max_t - tlo) in
      (klo, khi, tlo, thi))

let answers rta qs =
  List.map (fun (klo, khi, tlo, thi) -> Rta.sum_count rta ~klo ~khi ~tlo ~thi) qs

let build_updates ?(seed = 11) ?(from = 0) eng oracle ~n ~max_key =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let now = ref from in
  let rta = Durable.warehouse eng in
  for _ = 1 to n do
    now := !now + Random.State.int rng 3;
    let start = Random.State.int rng max_key in
    if Rta.alive_count rta > 0 && Random.State.int rng 3 = 0 then begin
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
      let value = 1 + Random.State.int rng 50 in
      ok (Durable.insert eng ~key ~value ~at:!now);
      Reference.Warehouse.insert oracle ~key ~value ~at:!now
    end
  done;
  !now

let test_enospc_drives_read_only () =
  let max_key = 16 in
  let fs = M.create () in
  let base = M.vfs fs in
  let stats = Io_stats.create () in
  let h, vfs = I.wrap ~stats ~persistent:true ~fail_at:max_int ~cls:I.Enospc base in
  let eng =
    Durable.open_ ~stats ~retry:(Some no_delay) ~sync_policy:Wal.Always ~vfs
      ~max_key ~path:"w" ()
  in
  let oracle = Reference.Warehouse.create () in
  let now = build_updates eng oracle ~n:20 ~max_key in
  let rta = Durable.warehouse eng in
  let qs = query_panel ~max_key ~max_t:(now + 2) in
  let pre = answers rta qs in
  Alcotest.(check string) "healthy before the fault" "healthy"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  (* The disk fills: every later allocation fails. *)
  I.arm h ~fail_at:(I.syscalls h + 1);
  let key = (* any dead key *)
    let rec free i = if Rta.is_alive rta ~key:i then free (i + 1) else i in
    free 0
  in
  (match Durable.insert eng ~key ~value:1 ~at:now with
  | Ok () -> Alcotest.fail "insert must fail on a full disk"
  | Error e -> (
      match e.E.errno with
      | E.Enospc -> ()
      | _ -> Alcotest.failf "wrong errno: %s" (E.to_string e)));
  Alcotest.(check string) "read-only after ENOSPC" "read-only"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  Alcotest.(check int) "transition counted" 1 (Io_stats.read_only_transitions stats);
  (* Updates are rejected with a typed error... *)
  (match Durable.insert eng ~key ~value:1 ~at:now with
  | Error { E.errno = E.Read_only_store; _ } -> ()
  | Ok () -> Alcotest.fail "read-only engine accepted an update"
  | Error e -> Alcotest.failf "wrong errno: %s" (E.to_string e));
  (match Durable.checkpoint eng with
  | Error { E.errno = E.Read_only_store; _ } -> ()
  | Ok () -> Alcotest.fail "read-only engine accepted a checkpoint"
  | Error e -> Alcotest.failf "wrong errno: %s" (E.to_string e));
  (* ...while queries keep answering exactly as before the failure. *)
  Alcotest.(check bool) "queries identical to pre-failure oracle" true
    (answers rta qs = pre);
  Alcotest.(check int) "no update leaked" 20 (Rta.n_updates rta);
  Durable.close eng;
  (* Space freed: reopening recovers every acknowledged update. *)
  let eng2 = Durable.open_ ~vfs:base ~max_key ~path:"w" () in
  Alcotest.(check int) "acknowledged updates recovered" 20
    (Rta.n_updates (Durable.warehouse eng2));
  Alcotest.(check bool) "recovered answers match" true
    (answers (Durable.warehouse eng2) qs = pre);
  Durable.close eng2

let test_transient_glitch_degrades_then_heals () =
  let max_key = 8 in
  let fs = M.create () in
  let stats = Io_stats.create () in
  let h, vfs = I.wrap ~stats ~persistent:false ~fail_at:max_int ~cls:I.Eio (M.vfs fs) in
  let eng =
    Durable.open_ ~stats ~retry:(Some no_delay) ~sync_policy:Wal.Always ~vfs
      ~max_key ~path:"w" ()
  in
  ok (Durable.insert eng ~key:0 ~value:1 ~at:0);
  I.arm h ~fail_at:(I.syscalls h + 1);
  (* The glitch is absorbed by a retry: the update succeeds. *)
  ok (Durable.insert eng ~key:1 ~value:2 ~at:1);
  Alcotest.(check bool) "retried" true (Io_stats.retries stats > 0);
  Alcotest.(check string) "degraded while retries happen" "degraded"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  (* A clean operation returns the engine to healthy. *)
  ok (Durable.insert eng ~key:2 ~value:3 ~at:2);
  Alcotest.(check string) "healthy again" "healthy"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  Alcotest.(check int) "all three updates applied" 3
    (Rta.n_updates (Durable.warehouse eng));
  Durable.close eng

(* --- qcheck: ENOSPC anywhere inside checkpoint -------------------------------- *)

(* Whatever syscall of a checkpoint ENOSPC hits, the previously committed
   generation stays intact and loadable, the engine keeps accepting
   updates (degraded, not dead), and recovery finds every acknowledged
   update. *)
let prop_enospc_checkpoint_atomic =
  QCheck.Test.make ~count:60 ~name:"enospc during checkpoint leaves previous gen loadable"
    QCheck.(int_range 1 80)
    (fun k ->
      let max_key = 12 in
      let fs = M.create () in
      let base = M.vfs fs in
      let stats = Io_stats.create () in
      let h, vfs = I.wrap ~stats ~persistent:true ~fail_at:max_int ~cls:I.Enospc base in
      let eng =
        Durable.open_ ~stats ~retry:(Some no_delay) ~sync_policy:(Wal.Every_n 4)
          ~vfs ~max_key ~path:"w" ()
      in
      let oracle = Reference.Warehouse.create () in
      let now = build_updates eng oracle ~n:15 ~max_key in
      ok (Durable.checkpoint eng);
      let now' = build_updates ~seed:13 ~from:now eng oracle ~n:10 ~max_key in
      (* Aim ENOSPC k syscalls into the second checkpoint. *)
      I.arm h ~fail_at:(I.syscalls h + k);
      let res = Durable.checkpoint eng in
      I.arm h ~fail_at:max_int;
      (match res with
      | Error _ ->
          if Durable.health eng <> Durable.Degraded then
            QCheck.Test.fail_report "failed checkpoint must leave engine degraded"
      | Ok () -> ());
      (* The engine still accepts updates either way. *)
      let rta = Durable.warehouse eng in
      let key =
        let rec free i = if Rta.is_alive rta ~key:i then free (i + 1) else i in
        free 0
      in
      ok (Durable.insert eng ~key ~value:9 ~at:now');
      Reference.Warehouse.insert oracle ~key ~value:9 ~at:now';
      Durable.close eng;
      (* Recovery: all 26 acknowledged updates, from a loadable committed
         generation. *)
      let eng2 = Durable.open_ ~vfs:base ~max_key ~path:"w" () in
      let rta2 = Durable.warehouse eng2 in
      let n2 = Rta.n_updates rta2 in
      let gen =
        match (Durable.recovery_report eng2).Durable.checkpoint_gen with
        | Some g -> g
        | None -> QCheck.Test.fail_report "a checkpoint was committed; pointer lost"
      in
      (match res with
      | Error _ when gen <> 1 ->
          QCheck.Test.fail_reportf
            "checkpoint failed but pointer moved to generation %d" gen
      | _ -> ());
      (* The committed generation's snapshot files load on their own. *)
      let snap = Rta.load ~vfs:base ~path:(Printf.sprintf "w.ckpt-%d" gen) () in
      ignore (Rta.n_updates snap);
      let qs = query_panel ~max_key ~max_t:(now' + 2) in
      let expected =
        List.map
          (fun (klo, khi, tlo, thi) ->
            ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
              Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi ))
          qs
      in
      let got = answers rta2 qs in
      Durable.close eng2;
      n2 = 26 && got = expected)

(* --- The sweep ---------------------------------------------------------------- *)

let test_errsweep_small_clean () =
  let spec =
    { Faultsim.Errsweep.default_spec with
      updates = 30;
      max_key = 12;
      checkpoint_at = 15;
      query_count = 8 }
  in
  let r = Faultsim.Errsweep.run ~limit_per_class:12 spec in
  if not (Faultsim.Errsweep.clean r) then
    Alcotest.failf "sweep violations:@\n%a" Faultsim.Errsweep.pp_report r;
  Alcotest.(check int) "4 classes x 12 points" 48 r.Faultsim.Errsweep.fault_points;
  Alcotest.(check bool) "faults fired" true (r.Faultsim.Errsweep.triggered > 0);
  Alcotest.(check bool) "some runs healed by retry" true
    (r.Faultsim.Errsweep.retried > 0);
  Alcotest.(check bool) "enospc runs went read-only" true
    (r.Faultsim.Errsweep.read_only > 0)

(* --- A corrupt working-set page under checkpoint --------------------------------- *)

(* The checkpoint copies every page as stored, CRC-checked.  A page in
   the overlay — written since the committed checkpoint — that fails its
   checksum must surface as a typed error — engine degraded, previous
   generation still committed, WAL untouched — and the next open rebuilds
   the overlay's pages from snapshot + WAL. *)
let test_checkpoint_corrupt_working_set () =
  let dir = Filename.temp_dir "rta-test-corrupt" "" in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 64 in
  (* A real mapping: the flip below goes behind the engine's back, and
     only a mapping sees it. *)
  let open_ () =
    Durable.open_ ~store:Storage.Store_kind.Mmap ~max_key ~path ()
  in
  let oracle = Reference.Warehouse.create () in
  let eng = open_ () in
  let apply i =
    let key = i mod max_key in
    if Rta.is_alive (Durable.warehouse eng) ~key then begin
      ok (Durable.delete eng ~key ~at:i);
      Reference.Warehouse.delete oracle ~key ~at:i
    end
    else begin
      ok (Durable.insert eng ~key ~value:(i + 1) ~at:i);
      Reference.Warehouse.insert oracle ~key ~value:(i + 1) ~at:i
    end
  in
  for i = 0 to 299 do
    apply i
  done;
  ok (Durable.checkpoint eng);
  for i = 300 to 319 do
    apply i
  done;
  Durable.close eng;
  let eng = open_ () in
  let wal = Durable.wal_path path in
  let wal_bytes = (Unix.stat wal).Unix.st_size in
  (* The replayed tail's pages go to the overlay when the pool is
     flushed; then one payload byte of every frame there — back to back,
     each from an 8-byte boundary — is flipped behind the engine's back.
     The current root is among them, and the checkpoint's walk starts
     there. *)
  Rta.drop_cache (Durable.warehouse eng);
  let fd = Unix.openfile (path ^ ".store.lkst.pages") [ Unix.O_RDWR ] 0 in
  let flipped = ref 0 in
  let rec flip off =
    let b = Bytes.create 4 in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    if Unix.read fd b 0 4 = 4 && Bytes.get_int32_le b 0 <> 0l then begin
      let len = Int32.to_int (Bytes.get_int32_le b 0) in
      ignore (Unix.lseek fd (off + 8 + 20) Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd (off + 8 + 20) Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      incr flipped;
      flip ((off + 8 + len + 7) land lnot 7)
    end
  in
  flip 0;
  Unix.close fd;
  Alcotest.(check bool) "the overlay holds pages" true (!flipped > 0);
  (match Durable.checkpoint eng with
  | Ok () -> Alcotest.fail "checkpoint copied a corrupt page"
  | Error { E.errno = E.Checksum_mismatch; op = E.Pread; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  Alcotest.(check string) "degraded" "degraded"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  Alcotest.(check int) "no checkpoint counted" 0 (Durable.checkpoints eng);
  Alcotest.(check int) "WAL untouched" wal_bytes (Unix.stat wal).Unix.st_size;
  Durable.close eng;
  let eng = open_ () in
  let r = Durable.recovery_report eng in
  Alcotest.(check (option int)) "pointer names generation 1" (Some 1) r.Durable.checkpoint_gen;
  Alcotest.(check int) "WAL tail replayed" 20 r.Durable.replayed;
  let q = (0, max_key, 0, 330) in
  let klo, khi, tlo, thi = q in
  Alcotest.(check (pair int int)) "answers after rebuild"
    ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
      Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
    (Durable.sum_count eng ~klo ~khi ~tlo ~thi);
  ok (Durable.checkpoint eng);
  Durable.close eng

(* --- A checkpoint the trees cannot move onto ------------------------------------- *)

(* A checkpoint whose new generation cannot be mapped still commits, but
   the trees stay on their old base and overlay, which still hold every
   page, though the old generation's file is removed: answers stay exact,
   the engine is degraded with the reason in [last_error], and the next
   checkpoint that can map moves the trees and heals it. *)
let test_failed_rebase_keeps_old_base () =
  let dir = Filename.temp_dir "rta-test-rebase" "" in
  Fun.protect ~finally:(fun () ->
      Unix.putenv "RTA_FORCE_NO_MMAP" "";
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let path = Filename.concat dir "wh" in
  let max_key = 64 in
  let open_ () =
    Durable.open_ ~store:Storage.Store_kind.Mmap ~pool_capacity:2
      ~max_key ~path ()
  in
  let oracle = Reference.Warehouse.create () in
  let eng = open_ () in
  let apply eng lo hi =
    for i = lo to hi - 1 do
      let key = i * 5 mod max_key in
      if Rta.is_alive (Durable.warehouse eng) ~key then begin
        ok (Durable.delete eng ~key ~at:i);
        Reference.Warehouse.delete oracle ~key ~at:i
      end
      else begin
        ok (Durable.insert eng ~key ~value:(i + 1) ~at:i);
        Reference.Warehouse.insert oracle ~key ~value:(i + 1) ~at:i
      end
    done
  in
  let check_answers what eng =
    Rta.drop_cache (Durable.warehouse eng);
    List.iter
      (fun (klo, khi, tlo, thi) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s [%d,%d)x[%d,%d)" what klo khi tlo thi)
          ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
            Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
          (Durable.sum_count eng ~klo ~khi ~tlo ~thi))
      [ (0, max_key, 0, 600); (3, 40, 100, 350); (10, 11, 0, 600); (0, max_key, 420, 421) ]
  in
  apply eng 0 300;
  ok (Durable.checkpoint eng);
  apply eng 300 400;
  Unix.putenv "RTA_FORCE_NO_MMAP" "1";
  let r = Durable.checkpoint eng in
  Unix.putenv "RTA_FORCE_NO_MMAP" "";
  ok r;
  Alcotest.(check int) "the checkpoint counts" 2 (Durable.checkpoints eng);
  Alcotest.(check string) "degraded" "degraded"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  (match Durable.last_error eng with
  | Some { E.detail = Some d; _ } ->
      Alcotest.(check bool) "the reason is kept" true
        (String.length d > 0 && String.sub d 0 (min 9 (String.length d)) = "the trees")
  | _ -> Alcotest.fail "no reason kept for the failed rebase");
  check_answers "on the old base" eng;
  apply eng 400 450;
  check_answers "written over the old base" eng;
  ok (Durable.checkpoint eng);
  Alcotest.(check string) "healed" "healthy"
    (Format.asprintf "%a" Durable.pp_health (Durable.health eng));
  check_answers "on the new base" eng;
  Durable.close eng;
  let eng = open_ () in
  Alcotest.(check int) "the last checkpoint holds every update" 0
    (Durable.replayed_on_open eng);
  check_answers "reopened" eng;
  Durable.close eng

let () =
  Alcotest.run "errors"
    [
      ( "inject",
        [
          Alcotest.test_case "fires a typed transient error" `Quick
            test_inject_fires_typed_error;
          Alcotest.test_case "short write has no side effect" `Quick
            test_inject_short_write_class;
        ] );
      ( "retry",
        [
          Alcotest.test_case "absorbs transients" `Quick test_retry_absorbs_transients;
          Alcotest.test_case "does not retry permanent errors" `Quick
            test_retry_skips_permanent;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append rolls back on fsync failure" `Quick
            test_wal_append_rolls_back_on_sync_failure;
          Alcotest.test_case "poisoned when rollback fails, healed by truncate" `Quick
            test_wal_poisoned_when_rollback_fails;
        ] );
      ( "health",
        [
          Alcotest.test_case "enospc drives read-only, queries keep serving" `Quick
            test_enospc_drives_read_only;
          Alcotest.test_case "transient glitch degrades then heals" `Quick
            test_transient_glitch_degrades_then_heals;
          QCheck_alcotest.to_alcotest prop_enospc_checkpoint_atomic;
          Alcotest.test_case "a failed rebase keeps the old base" `Quick
            test_failed_rebase_keeps_old_base;
        ] );
      ( "sweep",
        [ Alcotest.test_case "small sweep is clean" `Quick test_errsweep_small_clean ] );
      ( "corrupt page",
        [
          Alcotest.test_case "mmap store checkpoint returns Checksum_mismatch" `Quick
            test_checkpoint_corrupt_working_set;
        ] );
    ]
