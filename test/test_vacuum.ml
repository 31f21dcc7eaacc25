(* Crash-safe retention: the vacuum horizon end-to-end.

   Layers under test, bottom up: Root_star tenure pruning; Mvsbt
   scan/free/prune primitives; Rta begin/plan/apply with Below_horizon
   refusals; the Durable WAL-logged vacuum (crash mid-vacuum recovers
   consistently, replicas observe the horizon); the disk-pressure
   watermark machine; and scrub over a vacuumed store.  Everything is
   checked against the brute-force Reference.Warehouse oracle above the
   horizon. *)

let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun bound ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))

(* A churn workload: bounded live set, so most versions die young and
   vacuum has something to reclaim. *)
let churn ~n ~max_key ~seed apply =
  let rand = make_rng seed in
  let alive = Hashtbl.create 64 in
  let now = ref 1 in
  for _ = 1 to n do
    now := !now + rand 3;
    let do_delete = Hashtbl.length alive > max_key / 4 || (Hashtbl.length alive > 0 && rand 100 < 45) in
    if do_delete then begin
      let keys = Hashtbl.fold (fun k () acc -> k :: acc) alive [] in
      let key = List.nth keys (rand (List.length keys)) in
      Hashtbl.remove alive key;
      apply (`Delete (key, !now))
    end
    else begin
      let key = rand max_key in
      if not (Hashtbl.mem alive key) then begin
        Hashtbl.add alive key ();
        apply (`Insert (key, rand 1000 - 300, !now))
      end
    end
  done;
  !now

let build_pair ~n ~max_key ~seed =
  let t = Rta.create ~max_key () in
  let oracle = Reference.Warehouse.create () in
  let now =
    churn ~n ~max_key ~seed (function
      | `Insert (key, value, at) ->
          Rta.insert t ~key ~value ~at;
          Reference.Warehouse.insert oracle ~key ~value ~at
      | `Delete (key, at) ->
          Rta.delete t ~key ~at;
          Reference.Warehouse.delete oracle ~key ~at)
  in
  (t, oracle, now)

let check_queries ~above_only t oracle ~max_key ~now ~seed ~queries =
  let rand = make_rng seed in
  let h = Rta.horizon t in
  for _ = 1 to queries do
    let klo = rand (max_key + 1) and khi = rand (max_key + 1) in
    let tlo, thi =
      if above_only then (h + rand (now - h + 2), h + rand (now - h + 4))
      else (rand (now + 2), rand (now + 4))
    in
    let effective_lo = max 0 tlo in
    if klo < khi && tlo < thi && effective_lo < h then
      Alcotest.check_raises
        (Printf.sprintf "below-horizon window [%d,%d) refused" tlo thi)
        (Mvsbt.Below_horizon { at = effective_lo; horizon = h })
        (fun () -> ignore (Rta.sum_count t ~klo ~khi ~tlo ~thi))
    else begin
      let got = Rta.sum_count t ~klo ~khi ~tlo ~thi in
      let want =
        ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
          Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "query [%d,%d)x[%d,%d)" klo khi tlo thi)
        want got
    end
  done

(* --- Core vacuum: oracle-exact above, refused below ------------------------- *)

let test_vacuum_oracle_exact () =
  let max_key = 40 in
  let t, oracle, now = build_pair ~n:600 ~max_key ~seed:11 in
  let pages_before = Rta.page_count t in
  Rta.check_invariants t;
  let h = now / 2 in
  let report = Rta.vacuum t ~horizon:h in
  Alcotest.(check int) "horizon recorded" h (Rta.horizon t);
  Alcotest.(check bool)
    "churn at this scale frees pages" true
    (report.Rta.v_progress.Rta.pages_freed > 0);
  Alcotest.(check bool)
    "and prunes records in place" true
    (report.Rta.v_progress.Rta.records_dropped > 0);
  Alcotest.(check bool) "page count shrank" true (Rta.page_count t < pages_before);
  Rta.check_invariants t;
  check_queries ~above_only:false t oracle ~max_key ~now ~seed:21 ~queries:400;
  (* Point queries also refuse below the horizon. *)
  Alcotest.check_raises "lkst below horizon"
    (Mvsbt.Below_horizon { at = h - 1; horizon = h })
    (fun () -> ignore (Rta.lkst t ~key:3 ~at:(h - 1)));
  (* ... but negative times still answer (0,0): nothing can ever have
     lived there, so the answer is exact regardless of retention. *)
  Alcotest.(check (pair int int)) "negative time" (0, 0) (Rta.lkst t ~key:3 ~at:(-2))

let test_vacuum_idempotent () =
  let max_key = 30 in
  let t, oracle, now = build_pair ~n:400 ~max_key ~seed:7 in
  let h = now / 3 in
  let r1 = Rta.vacuum t ~horizon:h in
  Alcotest.(check bool) "first pass reclaims" true (r1.Rta.v_progress.Rta.pages_freed > 0);
  let updates_after = Rta.n_updates t in
  (* Same horizon again: nothing left to do. *)
  let r2 = Rta.vacuum t ~horizon:h in
  Alcotest.(check int) "re-vacuum frees nothing" 0 r2.Rta.v_progress.Rta.pages_freed;
  Alcotest.(check int) "re-vacuum drops nothing" 0 r2.Rta.v_progress.Rta.records_dropped;
  (* The no-op vacuum still consumed its sequence number (it is a logged
     mutation), and answers are unchanged. *)
  Alcotest.(check bool) "sequence numbers advanced" true (Rta.n_updates t > updates_after);
  Rta.check_invariants t;
  check_queries ~above_only:true t oracle ~max_key ~now ~seed:5 ~queries:200;
  (* Horizons are monotone. *)
  Alcotest.check_raises "backwards horizon rejected"
    (Invalid_argument
       (Printf.sprintf "Rta.vacuum_begin: horizon moves backwards (%d < %d)" (h - 1) h))
    (fun () -> Rta.vacuum_begin t ~horizon:(h - 1));
  Alcotest.check_raises "horizon beyond now rejected"
    (Invalid_argument
       (Printf.sprintf "Rta.vacuum_begin: horizon %d beyond current time %d" (now + 1) now))
    (fun () -> Rta.vacuum_begin t ~horizon:(now + 1))

let test_vacuum_incremental_with_queries () =
  (* Queries keep serving between bounded steps — the "online" in online
     retention. *)
  let max_key = 40 in
  let t, oracle, now = build_pair ~n:600 ~max_key ~seed:13 in
  let h = (2 * now) / 3 in
  Rta.vacuum_begin t ~horizon:h;
  let chunks = Rta.vacuum_plan ~max_pages:4 t in
  Alcotest.(check bool) "plan is genuinely incremental" true (List.length chunks > 3);
  List.iteri
    (fun i chunk ->
      ignore (Rta.vacuum_apply t chunk);
      check_queries ~above_only:true t oracle ~max_key ~now ~seed:(100 + i) ~queries:20)
    chunks;
  Rta.check_invariants t;
  (* The plan is empty once everything is applied. *)
  Alcotest.(check int) "drained plan" 0 (List.length (Rta.vacuum_plan t))

(* WAL replay applies a vacuum's chunks again, over a store that may
   already hold their effect, and each applier reports only the work it
   did: the first pass's pages freed are the page count's drop and the
   [pages_reclaimed] delta, and the same chunks applied again report
   nothing and change nothing. *)
let test_vacuum_reports_its_work () =
  let max_key = 40 in
  let t, oracle, now = build_pair ~n:600 ~max_key ~seed:17 in
  let stats = Rta.stats t in
  Rta.vacuum_begin t ~horizon:(now / 2);
  let chunks = Rta.vacuum_plan ~max_pages:8 t in
  let pass () =
    let pages = Rta.page_count t and reclaimed = Storage.Io_stats.pages_reclaimed stats in
    let p =
      List.fold_left
        (fun acc chunk -> Rta.vacuum_progress_add acc (Rta.vacuum_apply t chunk))
        Rta.vacuum_progress_zero chunks
    in
    (p, pages - Rta.page_count t, Storage.Io_stats.pages_reclaimed stats - reclaimed)
  in
  let first, dropped, reclaimed = pass () in
  Alcotest.(check bool) "the first pass frees pages" true (first.Rta.pages_freed > 0);
  Alcotest.(check bool) "and prunes records" true (first.Rta.records_dropped > 0);
  Alcotest.(check int) "pages freed: the page count's drop" dropped first.Rta.pages_freed;
  Alcotest.(check int) "pages freed: the pages reclaimed" reclaimed first.Rta.pages_freed;
  let again, dropped, reclaimed = pass () in
  Alcotest.(check int) "replayed: no page freed" 0 again.Rta.pages_freed;
  Alcotest.(check int) "replayed: no page pruned" 0 again.Rta.pages_pruned;
  Alcotest.(check int) "replayed: no record dropped" 0 again.Rta.records_dropped;
  Alcotest.(check int) "replayed: the page count stays" 0 dropped;
  Alcotest.(check int) "replayed: no page reclaimed" 0 reclaimed;
  Rta.check_invariants t;
  check_queries ~above_only:true t oracle ~max_key ~now ~seed:19 ~queries:100

let test_root_star_prune () =
  let rs = Root_star.create () in
  List.iter (fun (at, pid) -> Root_star.register rs ~at (Storage.Page_id.of_int pid))
    [ (0, 10); (5, 11); (9, 12); (14, 13) ];
  (* Horizon 9: tenures [0,5) and [5,9) end at or below it. *)
  Alcotest.(check int) "two tenures dropped" 2 (Root_star.prune rs ~below:9);
  Alcotest.(check int) "two remain" 2 (Root_star.count rs);
  Alcotest.(check int) "find at the horizon" 12
    (Storage.Page_id.to_int (Root_star.find rs ~at:9));
  Alcotest.(check int) "find above" 13 (Storage.Page_id.to_int (Root_star.find rs ~at:20));
  Alcotest.(check int) "re-prune is a no-op" 0 (Root_star.prune rs ~below:9);
  (* Pruning never removes the last (open-ended) tenure. *)
  Alcotest.(check int) "prune far above keeps the live root" 1
    (Root_star.prune rs ~below:1000);
  Alcotest.(check int) "one left" 1 (Root_star.count rs);
  (* Btree backing behaves identically. *)
  let rb = Root_star.create ~btree:true () in
  List.iter (fun (at, pid) -> Root_star.register rb ~at (Storage.Page_id.of_int pid))
    [ (0, 10); (5, 11); (9, 12); (14, 13) ];
  Alcotest.(check int) "btree: two dropped" 2 (Root_star.prune rb ~below:9);
  Alcotest.(check int) "btree: find at horizon" 12
    (Storage.Page_id.to_int (Root_star.find rb ~at:9))

(* --- Durable: WAL-logged vacuum survives crashes ---------------------------- *)

module M = Storage.Vfs.Memory

let ok = Storage.Storage_error.ok_exn

let build_durable ~n ~max_key ~seed ~vfs ~path =
  let eng = Durable.open_ ~sync_policy:(Wal.Every_n 4) ~vfs ~max_key ~path () in
  let oracle = Reference.Warehouse.create () in
  let now =
    churn ~n ~max_key ~seed (function
      | `Insert (key, value, at) ->
          ok (Durable.insert eng ~key ~value ~at);
          Reference.Warehouse.insert oracle ~key ~value ~at
      | `Delete (key, at) ->
          ok (Durable.delete eng ~key ~at);
          Reference.Warehouse.delete oracle ~key ~at)
  in
  (eng, oracle, now)

let vacuum_exn ?max_pages_per_step eng ~horizon =
  match Durable.vacuum ?max_pages_per_step eng ~horizon with
  | Ok r -> r
  | Error e -> Alcotest.failf "vacuum: %s" (Storage.Storage_error.to_string e)

let test_durable_vacuum_recovers () =
  let max_key = 30 in
  let vfs = M.vfs (M.create ()) in
  let eng, oracle, now = build_durable ~n:400 ~max_key ~seed:3 ~vfs ~path:"w" in
  let h = now / 2 in
  let r = vacuum_exn eng ~horizon:h in
  Alcotest.(check bool) "reclaims" true (r.Rta.v_progress.Rta.pages_freed > 0);
  Alcotest.(check int) "horizon" h (Durable.horizon eng);
  Alcotest.(check int) "one vacuum run" 1 (Durable.vacuums eng);
  let n_after = Rta.n_updates (Durable.warehouse eng) in
  check_queries ~above_only:false (Durable.warehouse eng) oracle ~max_key ~now ~seed:31
    ~queries:200;
  (* Crash: abandon the handle without closing; everything the vacuum
     logged was synced, so recovery must land on the same state. *)
  let eng2 = Durable.open_ ~sync_policy:(Wal.Every_n 4) ~vfs ~max_key ~path:"w" () in
  Alcotest.(check int) "horizon recovered" h (Durable.horizon eng2);
  Alcotest.(check int) "records recovered" n_after (Rta.n_updates (Durable.warehouse eng2));
  Rta.check_invariants (Durable.warehouse eng2);
  check_queries ~above_only:false (Durable.warehouse eng2) oracle ~max_key ~now ~seed:32
    ~queries:200;
  (* And a checkpoint taken above the vacuumed state round-trips too. *)
  ok (Durable.checkpoint eng2);
  Durable.close eng2;
  let eng3 = Durable.open_ ~sync_policy:(Wal.Every_n 4) ~vfs ~max_key ~path:"w" () in
  Alcotest.(check int) "horizon after checkpoint" h (Durable.horizon eng3);
  check_queries ~above_only:false (Durable.warehouse eng3) oracle ~max_key ~now ~seed:33
    ~queries:100;
  Durable.close eng3

(* The follower sees the leader's retention through the shipped WAL: the
   vacuum frames replay through the engine's own vacuum path, so the
   follower's horizon, page graph and sequence numbers stay in step. *)
let test_replica_ships_vacuum () =
  let max_key = 24 in
  let lvfs = M.vfs (M.create ()) in
  let leng = Durable.open_ ~sync_policy:Wal.Always ~vfs:lvfs ~max_key ~path:"lead" () in
  let oracle = Reference.Warehouse.create () in
  let n_data = ref 0 in
  let now =
    churn ~n:200 ~max_key ~seed:9 (function
      | `Insert (key, value, at) ->
          incr n_data;
          ok (Durable.insert leng ~key ~value ~at);
          Reference.Warehouse.insert oracle ~key ~value ~at
      | `Delete (key, at) ->
          incr n_data;
          ok (Durable.delete leng ~key ~at);
          Reference.Warehouse.delete oracle ~key ~at)
  in
  let h = now / 2 in
  let r = vacuum_exn leng ~horizon:h in
  Alcotest.(check bool) "leader reclaims" true (r.Rta.v_progress.Rta.pages_freed > 0);
  let tail = Wal.Tail.create (lvfs.Storage.Vfs.v_open `Log (Durable.wal_path "lead")) in
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    match Wal.Tail.poll tail with
    | Wal.Tail.Frame p -> frames := p :: !frames
    | Wal.Tail.Need_more -> continue := false
    | Wal.Tail.Corrupt m -> Alcotest.fail ("tail corrupt: " ^ m)
  done;
  let frames = List.rev !frames in
  Alcotest.(check int) "one frame per WAL record"
    (Rta.n_updates (Durable.warehouse leng))
    (List.length frames);
  Alcotest.(check bool) "vacuum produced extra frames" true (List.length frames > !n_data);
  let feng =
    Durable.open_ ~sync_policy:Wal.Never ~vfs:(M.vfs (M.create ())) ~max_key ~path:"fol" ()
  in
  List.iter
    (fun p ->
      match Replica.Apply.replay feng p with
      | Replica.Apply.Applied _ -> ()
      | o -> Alcotest.failf "replay: %a" Replica.Apply.pp_outcome o)
    frames;
  Alcotest.(check int) "watermarks agree"
    (Rta.n_updates (Durable.warehouse leng))
    (Replica.Apply.watermark feng);
  Alcotest.(check int) "follower horizon" h (Durable.horizon feng);
  Rta.check_invariants (Durable.warehouse feng);
  check_queries ~above_only:false (Durable.warehouse feng) oracle ~max_key ~now ~seed:91
    ~queries:200;
  (* Resent vacuum frames are idempotent, like resent updates. *)
  let last = List.nth frames (List.length frames - 1) in
  (match Replica.Apply.replay feng last with
  | Replica.Apply.Skipped -> ()
  | o -> Alcotest.failf "duplicate vacuum frame should skip, got %a" Replica.Apply.pp_outcome o);
  Durable.close leng;
  Durable.close feng

(* --- Disk-pressure watermarks ----------------------------------------------- *)

let test_watermarks () =
  let used = ref 0 in
  let vfs = M.vfs (M.create ()) in
  let eng =
    Durable.open_ ~sync_policy:Wal.Always ~vfs ~max_key:64 ~path:"wm"
      ~watermarks:(100, 200)
      ~disk_used:(fun () -> !used)
      ~retention:(Durable.Keep_last 10) ()
  in
  let transitions = ref [] in
  Durable.on_health_change eng (fun a b -> transitions := (a, b) :: !transitions);
  for i = 1 to 15 do
    ok (Durable.insert eng ~key:(i - 1) ~value:i ~at:(2 * i))
  done;
  Alcotest.(check bool) "healthy below soft" true (Durable.health eng = Durable.Healthy);
  Alcotest.(check bool) "normal pressure" true (Durable.pressure eng = Durable.Normal);
  (* Cross the soft watermark: the next mutation notices, degrades, and
     auto-vacuums to [now - span]. *)
  used := 150;
  ok (Durable.insert eng ~key:15 ~value:1 ~at:32);
  Alcotest.(check bool) "soft pressure" true (Durable.pressure eng = Durable.Soft);
  Alcotest.(check bool) "degraded at soft" true (Durable.health eng = Durable.Degraded);
  Alcotest.(check int) "auto-vacuumed to now - span" 22 (Durable.horizon eng);
  Alcotest.(check bool) "a vacuum ran" true (Durable.vacuums eng >= 1);
  (* Cross the hard watermark: the mutation that notices still succeeds
     (it was accepted under Soft), everything after is rejected. *)
  used := 250;
  ok (Durable.insert eng ~key:16 ~value:1 ~at:34);
  Alcotest.(check bool) "hard pressure" true (Durable.pressure eng = Durable.Hard);
  Alcotest.(check bool) "published read-only" true (Durable.health eng = Durable.Read_only);
  Alcotest.(check bool) "io machine untouched" true (Durable.io_health eng = Durable.Healthy);
  let n_before = Rta.n_updates (Durable.warehouse eng) in
  (match Durable.insert eng ~key:17 ~value:1 ~at:36 with
  | Error e ->
      Alcotest.(check bool) "watermark detail" true
        (let s = Storage.Storage_error.to_string e in
         let rec mem i =
           i + 9 <= String.length s && (String.sub s i 9 = "watermark" || mem (i + 1))
         in
         mem 0)
  | Ok () -> Alcotest.fail "update accepted above the hard watermark");
  Alcotest.(check int) "rejected update not applied" n_before
    (Rta.n_updates (Durable.warehouse eng));
  (* Maintenance stays allowed above the hard watermark — it is the way
     back down. *)
  ok (Durable.checkpoint eng);
  (match Durable.vacuum eng ~horizon:(Durable.horizon eng) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "maintenance vacuum refused: %s" (Storage.Storage_error.to_string e));
  (* Space freed: pressure is not sticky. *)
  used := 50;
  Alcotest.(check bool) "pressure clears" true (Durable.refresh_pressure eng = Durable.Normal);
  Alcotest.(check bool) "healthy again" true (Durable.health eng = Durable.Healthy);
  ok (Durable.insert eng ~key:18 ~value:1 ~at:40);
  let saw a b = List.mem (a, b) !transitions in
  Alcotest.(check bool) "healthy->degraded seen" true (saw Durable.Healthy Durable.Degraded);
  Alcotest.(check bool) "degraded->read-only seen" true
    (saw Durable.Degraded Durable.Read_only);
  Alcotest.(check bool) "read-only->healthy seen" true
    (saw Durable.Read_only Durable.Healthy);
  Durable.close eng

(* --- The crash matrix --------------------------------------------------------- *)

let test_vacuum_matrix () =
  let module S = Faultsim.Scenario in
  let r =
    S.crash (S.record ~checkpoint_every:40 (S.script `Vacuum ~seed:1 ~updates:110 ~max_key:12))
  in
  Alcotest.(check bool)
    (Format.asprintf "matrix: %a" S.pp_report r)
    true (r.S.violations = []);
  Alcotest.(check bool) "at least 100 kill states" true (S.count r "checked" >= 100)

(* --- Property: vacuum never changes what it keeps ----------------------------- *)

(* Random workloads x random horizons: queries strictly above the horizon
   answer identically before the vacuum, after it, and after a crash in
   the middle of it — all equal to the brute-force oracle — and windows
   reaching below refuse. *)
let prop_vacuum_equivalence =
  QCheck.Test.make ~name:"vacuum equivalence above the horizon" ~count:8
    QCheck.(triple (int_range 0 10_000) (int_range 120 260) (int_range 20 80))
    (fun (seed, n, frac) ->
      let max_key = 24 in
      let t, oracle, now = build_pair ~n ~max_key ~seed in
      let h = now * frac / 100 in
      check_queries ~above_only:true t oracle ~max_key ~now ~seed:(seed + 1) ~queries:60;
      ignore (Rta.vacuum t ~horizon:h);
      check_queries ~above_only:false t oracle ~max_key ~now ~seed:(seed + 2) ~queries:60;
      (* The same workload through the WAL engine, crashed mid-vacuum. *)
      let vfs = M.vfs (M.create ()) in
      let eng, _, _ = build_durable ~n ~max_key ~seed ~vfs ~path:"q" in
      (match Durable.vacuum_begin eng ~horizon:h with
      | Ok () -> ()
      | Error e -> Alcotest.failf "vacuum_begin: %s" (Storage.Storage_error.to_string e));
      let chunks = Rta.vacuum_plan ~max_pages:6 (Durable.warehouse eng) in
      List.iteri
        (fun i c ->
          if i < (List.length chunks + 1) / 2 then
            match Durable.vacuum_chunk eng c with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "chunk: %s" (Storage.Storage_error.to_string e))
        chunks;
      ok (Durable.sync_wal eng);
      (* Crash (no close) and recover: half the retention work is logged. *)
      let eng2 = Durable.open_ ~sync_policy:(Wal.Every_n 4) ~vfs ~max_key ~path:"q" () in
      Alcotest.(check int) "horizon recovered mid-vacuum" h (Durable.horizon eng2);
      Rta.check_invariants (Durable.warehouse eng2);
      check_queries ~above_only:false (Durable.warehouse eng2) oracle ~max_key ~now
        ~seed:(seed + 3) ~queries:60;
      (* Finishing the interrupted vacuum converges. *)
      ignore (vacuum_exn eng2 ~horizon:h);
      check_queries ~above_only:false (Durable.warehouse eng2) oracle ~max_key ~now
        ~seed:(seed + 4) ~queries:60;
      Durable.close eng2;
      true)

let () =
  Alcotest.run "vacuum"
    [
      ( "core",
        [
          Alcotest.test_case "oracle-exact above, refused below" `Quick
            test_vacuum_oracle_exact;
          Alcotest.test_case "idempotent and monotone" `Quick test_vacuum_idempotent;
          Alcotest.test_case "incremental with queries serving" `Quick
            test_vacuum_incremental_with_queries;
          Alcotest.test_case "appliers report only the work they did" `Quick
            test_vacuum_reports_its_work;
          Alcotest.test_case "root* tenure pruning" `Quick test_root_star_prune;
        ] );
      ( "durable",
        [
          Alcotest.test_case "vacuum survives crash and checkpoint" `Quick
            test_durable_vacuum_recovers;
          Alcotest.test_case "replica ships the horizon" `Quick test_replica_ships_vacuum;
          Alcotest.test_case "disk-pressure watermarks" `Quick test_watermarks;
        ] );
      ( "matrix",
        [ Alcotest.test_case "every boundary, zero violations" `Slow test_vacuum_matrix ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_vacuum_equivalence ]);
    ]
