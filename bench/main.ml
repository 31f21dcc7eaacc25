(* The experiment harness: regenerates every figure of the paper's
   evaluation (section 5) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- fig4b    -- run a subset (by name)

   Scale: the paper uses 1M-record datasets; the default here is
   REPRO_SCALE = 0.1 (100,000 records, same 100 versions-per-key shape) so
   the whole suite runs in a couple of minutes.  Set REPRO_SCALE=1.0 to
   reproduce at full size.

   Cost model: as in the paper, estimated time = #I/O x 10 ms + measured
   CPU time, with LRU buffer pools (default 64 pages) in front of the
   simulated disk.  The MVSBTs are the frame store the server runs, over
   RAM; each figure closes its warehouses when it is done with them, since
   their RAM chunks are mappings the GC is not charged for. *)

(* --smoke is a CI mode: a tiny dataset and a quick experiment subset, so
   the whole run finishes in seconds.  It must be read here, before the
   workload spec below is computed from [scale]. *)
let smoke = Array.exists (( = ) "--smoke") Sys.argv

let scale =
  if smoke then 0.01
  else
    match Sys.getenv_opt "REPRO_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.1)
    | None -> 0.1

let page_size = 4096

(* Paper record layout: key, start, end, value at 4 bytes each. *)
let mvbt_b = page_size / 16

(* MVSBT records additionally carry a key range and a child pointer. *)
let mvsbt_b = page_size / 24

let queries_per_batch = 100
let spec = Workload.Generator.scaled Workload.Generator.paper_spec scale
let events = lazy (Workload.Generator.events spec)

let mvsbt_config = { (Mvsbt.default_config ~b:mvsbt_b) with f = 0.9 }

let pp_mb ppf pages = Format.fprintf ppf "%.2f" (float_of_int (pages * page_size) /. 1e6)

let header title = Printf.printf "\n=== %s ===\n%!" title

(* --- Builders ---------------------------------------------------------------- *)

let build_mvbt ?(pool_capacity = 64) ?on_event () =
  let stats = Storage.Io_stats.create () in
  let config = Mvbt.default_config ~b:mvbt_b in
  let mvbt = Mvbt.create ~config ~pool_capacity ~stats ~max_key:spec.max_key () in
  let i = ref 0 in
  let _, m =
    Storage.Cost_model.measure ~stats (fun () ->
        List.iter
          (fun ev ->
            (match ev with
            | Workload.Generator.Insert { key; value; at } -> Mvbt.insert mvbt ~key ~value ~at
            | Workload.Generator.Delete { key; at } -> Mvbt.delete mvbt ~key ~at);
            incr i;
            match on_event with Some f -> f !i mvbt | None -> ())
          (Lazy.force events);
        (* Account for the final write-back of dirty pages. *)
        Mvbt.drop_cache mvbt)
  in
  (mvbt, stats, m)

let build_rta ?(pool_capacity = 64) ?(config = mvsbt_config) ?on_event () =
  let stats = Storage.Io_stats.create () in
  let rta = Rta.create ~config ~pool_capacity ~stats ~max_key:spec.max_key () in
  let i = ref 0 in
  let _, m =
    Storage.Cost_model.measure ~stats (fun () ->
        List.iter
          (fun ev ->
            (match ev with
            | Workload.Generator.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
            | Workload.Generator.Delete { key; at } -> Rta.delete rta ~key ~at);
            incr i;
            match on_event with Some f -> f !i rta | None -> ())
          (Lazy.force events);
        Rta.drop_cache rta)
  in
  (rta, stats, m)

let total_updates () = List.length (Lazy.force events)

(* --- Query batches ------------------------------------------------------------ *)

let run_batch_mvbt mvbt stats rects =
  Mvbt.drop_cache mvbt;
  let results = ref [] in
  let _, m =
    Storage.Cost_model.measure ~stats (fun () ->
        List.iter
          (fun (r : Workload.Query_gen.rect) ->
            let { Naive_rta.sum; count } =
              Naive_rta.sum_count mvbt ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi
            in
            results := (sum, count) :: !results)
          rects)
  in
  (List.rev !results, m)

let run_batch_rta rta stats rects =
  Rta.drop_cache rta;
  let results = ref [] in
  let _, m =
    Storage.Cost_model.measure ~stats (fun () ->
        List.iter
          (fun (r : Workload.Query_gen.rect) ->
            results := Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi :: !results)
          rects)
  in
  (List.rev !results, m)

(* A batch's page reads and writes: the estimates add CPU time, so only
   these counts are exact from run to run. *)
let io (m : Storage.Cost_model.measurement) = Printf.sprintf "%d/%d" m.reads m.writes

let check_agreement ~what a b =
  List.iteri
    (fun i ((s1, c1), (s2, c2)) ->
      if s1 <> s2 || c1 <> c2 then
        Printf.printf "!! MISMATCH in %s, query %d: mvbt=(%d,%d) mvsbt=(%d,%d)\n%!" what i
          s1 c1 s2 c2)
    (List.combine a b)

let rects_for ~qrs ~seed =
  let rng = Workload.Rng.create ~seed in
  Workload.Query_gen.batch rng ~n:queries_per_batch ~max_key:spec.max_key
    ~max_time:spec.max_time ~qrs ~r_over_i:1.0

(* --- Figure 4a: space --------------------------------------------------------- *)

let fig4a () =
  header "Figure 4a: index size vs. number of updates (uniform keys, long intervals)";
  Printf.printf "records=%d unique_keys=%d page=%dB b(mvbt)=%d b(mvsbt)=%d f=%.2f\n"
    spec.n_records spec.n_keys page_size mvbt_b mvsbt_b mvsbt_config.Mvsbt.f;
  let nev = total_updates () in
  let checkpoints = List.init 10 (fun i -> (i + 1) * nev / 10) in
  let mvbt_points = ref [] in
  let _, _, _ =
    build_mvbt
      ~on_event:(fun i m ->
        if List.mem i checkpoints then mvbt_points := (i, Mvbt.page_count m) :: !mvbt_points)
      ()
  in
  let rta_points = ref [] in
  let rta, _, _ =
    build_rta
      ~on_event:(fun i r ->
        if List.mem i checkpoints then rta_points := (i, Rta.page_count r) :: !rta_points)
      ()
  in
  Rta.close rta;
  Printf.printf "%12s %14s %14s %14s %14s %8s\n" "updates" "mvbt pages" "mvbt MB"
    "2-mvsbt pages" "2-mvsbt MB" "ratio";
  List.iter2
    (fun (i, p1) (_, p2) ->
      Printf.printf "%12d %14d %14s %14d %14s %8.2f\n" i p1
        (Format.asprintf "%a" pp_mb p1)
        p2
        (Format.asprintf "%a" pp_mb p2)
        (float_of_int p2 /. float_of_int p1))
    (List.rev !mvbt_points) (List.rev !rta_points);
  Printf.printf
    "(paper: the two-MVSBT approach used about 2.5x the space of the single MVBT)\n"

(* --- Update cost --------------------------------------------------------------- *)

let update_time () =
  header "Update cost per insertion/deletion (section 5, discussed with fig 4a)";
  let _, _, m1 = build_mvbt () in
  let rta, _, m2 = build_rta () in
  Rta.close rta;
  let n = float_of_int (total_updates ()) in
  let row name (m : Storage.Cost_model.measurement) =
    Printf.printf "%10s  total: %s\n" name (Format.asprintf "%a" Storage.Cost_model.pp_measurement m);
    Printf.printf "%10s  per update: %.3f I/Os, %.4f ms estimated\n" ""
      (float_of_int (m.reads + m.writes) /. n)
      (m.estimated_s *. 1000. /. n)
  in
  row "mvbt" m1;
  row "2-mvsbt" m2;
  Printf.printf "(paper: update overhead of the two-MVSBT approach similar to its space overhead)\n"

(* --- Figure 4b: query time vs QRS ---------------------------------------------- *)

let fig4b () =
  header "Figure 4b: RTA query estimated time vs query rectangle size (R/I = 1, buffer 64)";
  let mvbt, mvbt_stats, _ = build_mvbt () in
  let rta, rta_stats, _ = build_rta () in
  Printf.printf "%10s %16s %16s %12s %22s %22s\n" "QRS" "mvbt est (s)" "2-mvsbt est (s)"
    "speedup" "mvbt reads/writes" "2-mvsbt reads/writes";
  List.iter
    (fun qrs ->
      let rects = rects_for ~qrs ~seed:(int_of_float (qrs *. 1e6) + 17) in
      let res1, m1 = run_batch_mvbt mvbt mvbt_stats rects in
      let res2, m2 = run_batch_rta rta rta_stats rects in
      check_agreement ~what:(Printf.sprintf "fig4b qrs=%g" qrs) res1 res2;
      Printf.printf "%9.2f%% %16.4f %16.4f %11.1fx %22s %22s\n" (qrs *. 100.) m1.estimated_s
        m2.estimated_s
        (m1.estimated_s /. m2.estimated_s)
        (io m1) (io m2))
    [ 0.0001; 0.001; 0.01; 0.1; 1.0 ];
  Rta.close rta;
  Printf.printf
    "(paper: speedup grows with QRS; >5000x when the rectangle is the whole space)\n"

(* --- Figure 4c: query time vs buffer size --------------------------------------- *)

let fig4c () =
  header "Figure 4c: RTA query estimated time vs buffer size (QRS = 1%)";
  Printf.printf "%10s %16s %16s %12s %22s %22s\n" "buffer" "mvbt est (s)" "2-mvsbt est (s)"
    "speedup" "mvbt reads/writes" "2-mvsbt reads/writes";
  List.iter
    (fun capacity ->
      let mvbt, mvbt_stats, _ = build_mvbt ~pool_capacity:capacity () in
      let rta, rta_stats, _ = build_rta ~pool_capacity:capacity () in
      let rects = rects_for ~qrs:0.01 ~seed:4242 in
      let res1, m1 = run_batch_mvbt mvbt mvbt_stats rects in
      let res2, m2 = run_batch_rta rta rta_stats rects in
      check_agreement ~what:(Printf.sprintf "fig4c buffer=%d" capacity) res1 res2;
      Rta.close rta;
      Printf.printf "%10d %16.4f %16.4f %11.1fx %22s %22s\n" capacity m1.estimated_s
        m2.estimated_s
        (m1.estimated_s /. m2.estimated_s)
        (io m1) (io m2))
    [ 16; 32; 64; 128; 256; 512 ]

(* --- Ablation: strong factor f --------------------------------------------------- *)

let ablation_f () =
  header "Ablation: strong factor f (open problem (i) of section 6)";
  Printf.printf "%6s %12s %12s %18s %18s\n" "f" "pages" "records" "upd est (ms)" "qry est (s, 1%)";
  List.iter
    (fun f ->
      let config = { mvsbt_config with Mvsbt.f } in
      let rta, stats, m = build_rta ~config () in
      let rects = rects_for ~qrs:0.01 ~seed:99 in
      let _, qm = run_batch_rta rta stats rects in
      Printf.printf "%6.2f %12d %12d %18.4f %18.4f\n" f (Rta.page_count rta)
        (Rta.record_count rta)
        (m.estimated_s *. 1000. /. float_of_int (total_updates ()))
        qm.estimated_s;
      Rta.close rta)
    [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]

(* --- Ablation: the three optimisations ------------------------------------------- *)

let ablation_opt () =
  header "Ablation: insertion variant and optimisations (sections 4.1, 4.2)";
  Printf.printf "%10s %8s %9s %12s %14s %16s\n" "variant" "merging" "disposal" "pages"
    "records" "upd est (ms)";
  let combos =
    [ (Mvsbt.Logical, true, true); (Mvsbt.Logical, true, false);
      (Mvsbt.Logical, false, true); (Mvsbt.Logical, false, false);
      (Mvsbt.Plain, true, true); (Mvsbt.Plain, false, false) ]
  in
  List.iter
    (fun (variant, merging, disposal) ->
      let config = { mvsbt_config with Mvsbt.variant; merging; disposal } in
      let rta, _stats, m = build_rta ~config () in
      Printf.printf "%10s %8b %9b %12d %14s %16.4f\n"
        (match variant with Mvsbt.Plain -> "plain" | Mvsbt.Logical -> "logical")
        merging disposal (Rta.page_count rta) (string_of_int (Rta.record_count rta))
        (m.estimated_s *. 1000. /. float_of_int (total_updates ()));
      Rta.close rta)
    combos;
  Printf.printf "(logical splitting is optimisation 4.2.1; the plain 4.1 algorithm splits Theta(b) records per insertion)\n"

(* --- Ablation: dataset shape ------------------------------------------------------ *)

let ablation_data () =
  header "Ablation: dataset shape (section 5 datasets, plus hot-key skew)";
  Printf.printf "%16s %12s %14s %14s %16s %12s\n" "keys" "intervals" "mvbt pages"
    "2-mvsbt pages" "qry speedup(1%)" "agree";
  let run_row ~kd_name ~st_name spec' =
          let evs = Workload.Generator.events spec' in
          let mvbt_stats = Storage.Io_stats.create () in
          let mvbt =
            Mvbt.create ~config:(Mvbt.default_config ~b:mvbt_b) ~stats:mvbt_stats
              ~max_key:spec.max_key ()
          in
          let rta_stats = Storage.Io_stats.create () in
          let rta = Rta.create ~config:mvsbt_config ~stats:rta_stats ~max_key:spec.max_key () in
          List.iter
            (fun ev ->
              match ev with
              | Workload.Generator.Insert { key; value; at } ->
                  Mvbt.insert mvbt ~key ~value ~at;
                  Rta.insert rta ~key ~value ~at
              | Workload.Generator.Delete { key; at } ->
                  Mvbt.delete mvbt ~key ~at;
                  Rta.delete rta ~key ~at)
            evs;
          let rects = rects_for ~qrs:0.01 ~seed:7 in
          let res1, m1 = run_batch_mvbt mvbt mvbt_stats rects in
          let res2, m2 = run_batch_rta rta rta_stats rects in
          let agree =
            List.for_all2 (fun (a, b) (c, d) -> a = c && b = d) res1 res2
          in
          Printf.printf "%16s %12s %14d %14d %15.1fx %12b\n" kd_name st_name
            (Mvbt.page_count mvbt) (Rta.page_count rta)
            (m1.estimated_s /. m2.estimated_s)
            agree;
          Rta.close rta
  in
  List.iter
    (fun (kd, kd_name) ->
      List.iter
        (fun (st, st_name) ->
          run_row ~kd_name ~st_name
            { spec with Workload.Generator.key_distribution = kd; interval_style = st })
        [ (Workload.Generator.Long_lived, "long"); (Workload.Generator.Short_lived, "short") ])
    [ (Workload.Generator.Uniform, "uniform");
      (Workload.Generator.Normal { mean_frac = 0.5; stddev_frac = 0.1 }, "normal") ];
  (* Hot-key skew: many versions concentrated on few keys. *)
  run_row ~kd_name:"uniform+zipf1.0" ~st_name:"long"
    { spec with Workload.Generator.version_skew = 1.0 }

(* --- Scalar temporal aggregation baselines (section 2.1) -------------------------- *)

let scalar_baselines () =
  header "Scalar aggregation baselines (section 2.1): SB-tree vs [KS95] vs [MLI00] vs [Tum92]";
  let module G = Aggregate.Group.Int_sum in
  let module Sb = Sbtree.Make (G) in
  let module KS = Agg_tree.Make (G) in
  let module Bal = Balanced_agg_tree.Make (G) in
  let module Scan = Two_scan.Make (G) in
  let horizon = 1_000_000 in
  let n = max 1000 (int_of_float (20_000. *. scale /. 0.1)) in
  let mk_random () =
    let rng = Workload.Rng.create ~seed:55 in
    List.init n (fun _ ->
        let a = Workload.Rng.int rng horizon and b = Workload.Rng.int rng horizon in
        let lo = min a b and hi = max a b in
        if lo < hi then (lo, hi, 1) else (lo, lo + 1, 1))
  in
  (* The adversarial case is quadratic for [KS95] by design; cap it so the
     suite stays fast while the blow-up remains unmistakable. *)
  let n_sorted = min n 4000 in
  let mk_sorted () =
    (* Nested, endpoint-sorted intervals: the [KS95] worst case. *)
    List.init n_sorted (fun i ->
        let i = i mod (horizon / 2 - 1) in
        (i, horizon - 1 - i, 1))
  in
  let run name intervals =
    let probes =
      let rng = Workload.Rng.create ~seed:56 in
      List.init 1000 (fun _ -> Workload.Rng.int rng horizon)
    in
    let time f =
      let t0 = Sys.time () in
      let x = f () in
      (x, Sys.time () -. t0)
    in
    let sb = Sb.create ~b:64 ~horizon () in
    let _, sb_build =
      time (fun () -> List.iter (fun (lo, hi, v) -> Sb.insert sb ~lo ~hi v) intervals)
    in
    let sb_res, sb_q = time (fun () -> List.map (fun p -> Sb.query sb p) probes) in
    let ks = KS.create ~horizon () in
    let _, ks_build =
      time (fun () -> List.iter (fun (lo, hi, v) -> KS.insert ks ~lo ~hi v) intervals)
    in
    let ks_res, ks_q = time (fun () -> List.map (fun p -> KS.query ks p) probes) in
    let bal = Bal.create ~horizon () in
    let _, bal_build =
      time (fun () -> List.iter (fun (lo, hi, v) -> Bal.insert bal ~lo ~hi v) intervals)
    in
    let bal_res, bal_q = time (fun () -> List.map (fun p -> Bal.query bal p) probes) in
    let scan_input = List.map (fun (lo, hi, v) -> (Interval.make lo hi, v)) intervals in
    let scan_result, scan_build = time (fun () -> Scan.compute scan_input) in
    let scan_res, scan_q =
      time (fun () -> List.map (fun p -> Scan.at scan_result p) probes)
    in
    if not (sb_res = ks_res && ks_res = bal_res && bal_res = scan_res) then
      Printf.printf "!! MISMATCH between scalar baselines on %s\n" name;
    Printf.printf "%s (%d intervals, 1000 point queries; CPU seconds):\n" name
      (List.length intervals);
    Printf.printf "  %-22s %12s %12s %10s\n" "method" "build (s)" "query (s)" "depth";
    Printf.printf "  %-22s %12.4f %12.4f %10d\n" "SB-tree [YW01]" sb_build sb_q (Sb.height sb);
    Printf.printf "  %-22s %12.4f %12.4f %10d\n" "agg-tree [KS95]" ks_build ks_q (KS.depth ks);
    Printf.printf "  %-22s %12.4f %12.4f %10d\n" "balanced [MLI00]" bal_build bal_q (Bal.depth bal);
    Printf.printf "  %-22s %12.4f %12.4f %10s\n" "two-scan [Tum92]" scan_build scan_q "-"
  in
  run "random intervals" (mk_random ());
  run "sorted/nested intervals" (mk_sorted ());
  Printf.printf
    "(section 2.1: the KS95 tree degenerates on adversarial orders; MLI00 fixes balance\n\
    \ but stays main-memory; Tum92 is non-incremental; the SB-tree is both balanced and\n\
    \ disk-based)\n"

(* --- Ablation: root* backing -------------------------------------------------------- *)

let ablation_root_star () =
  header "Ablation: root* as main-memory array vs B+-tree (section 4.4 discussion)";
  Printf.printf "%12s %12s %16s %18s\n" "root*" "roots" "qry est (s, 1%)" "qry I/Os/query";
  List.iter
    (fun btree ->
      let config = { mvsbt_config with Mvsbt.root_star_btree = btree } in
      let rta, stats, _ = build_rta ~config () in
      let rects = rects_for ~qrs:0.01 ~seed:21 in
      let _, m = run_batch_rta rta stats rects in
      Printf.printf "%12s %12d %16.4f %18.2f\n"
        (if btree then "b+tree" else "array")
        (Rta.root_count rta) m.estimated_s
        (float_of_int (m.reads + m.writes) /. float_of_int queries_per_batch);
      Rta.close rta)
    [ false; true ]

(* --- WAL overhead ------------------------------------------------------------------- *)

(* Unlike everything above, this experiment measures wall clock, not the
   paper's I/O cost model: fsync latency is exactly the cost being studied
   and it is invisible to both CPU time and the simulated-disk counters. *)
let wal_overhead () =
  header "WAL overhead: durable (log + fsync) build vs in-memory build";
  let evs = Lazy.force events in
  let n = List.length evs in
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let apply ~insert ~delete cap =
    let i = ref 0 in
    List.iter
      (fun ev ->
        incr i;
        if !i <= cap then
          match ev with
          | Workload.Generator.Insert { key; value; at } -> insert ~key ~value ~at
          | Workload.Generator.Delete { key; at } -> delete ~key ~at)
      evs
  in
  let with_tmp_prefix f =
    let dir = Filename.temp_file "mvsbt_wal" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f (Filename.concat dir "wh"))
  in
  let rta = Rta.create ~config:mvsbt_config ~max_key:spec.max_key () in
  let base_s = wall (fun () -> apply ~insert:(Rta.insert rta) ~delete:(Rta.delete rta) n) in
  Rta.close rta;
  let per_update_base = base_s /. float_of_int n in
  Printf.printf "  %-22s %9d updates %9.3f s %11.0f upd/s\n" "no WAL (in-memory)" n base_s
    (float_of_int n /. base_s);
  let budget_ok = ref true in
  List.iter
    (fun (name, policy, cap) ->
      (* Always means one fsync per update; cap it so the suite stays fast
         while the per-update cost is still measured honestly. *)
      let cap = min cap n in
      let wal_stats = Wal.Stats.create () in
      let s =
        with_tmp_prefix (fun path ->
            wall (fun () ->
                let eng =
                  Durable.open_ ~config:mvsbt_config ~sync_policy:policy ~wal_stats
                    ~max_key:spec.max_key ~path ()
                in
                let ok = Storage.Storage_error.ok_exn in
                apply
                  ~insert:(fun ~key ~value ~at -> ok (Durable.insert eng ~key ~value ~at))
                  ~delete:(fun ~key ~at -> ok (Durable.delete eng ~key ~at))
                  cap;
                Durable.close eng))
      in
      let slowdown = s /. float_of_int cap /. per_update_base in
      Printf.printf "  %-22s %9d updates %9.3f s %11.0f upd/s %8.2fx (%d fsyncs)\n" name cap
        s
        (float_of_int cap /. s)
        slowdown (Wal.Stats.fsyncs wal_stats);
      match policy with
      | Wal.Every_n _ when slowdown > 5. -> budget_ok := false
      | _ -> ())
    [ ("wal --sync never", Wal.Never, n);
      ("wal --sync every:32", Wal.Every_n 32, n);
      ("wal --sync always", Wal.Always, 2000) ];
  Printf.printf "  group commit within 5x of in-memory: %b\n" !budget_ok;
  if not !budget_ok then Printf.printf "!! WAL group commit exceeded the 5x overhead budget\n"

(* --- Group commit over the wire ----------------------------------------------------- *)

(* Wall clock again: the quantity under study is fsync amortisation.  Each
   configuration forks a real server process on a Unix socket and drives
   it with the blocking client in a closed loop (pipeline window matched
   to the batch size), so the numbers include the full wire round trip.
   The baseline is the classic per-request contract: engine under
   [Wal.Always], batch size 1 — one fsync before every ack. *)
let group_commit () =
  header "Group commit: req/s over the socket vs per-request fsync";
  let evs = Lazy.force events in
  let cap = min (List.length evs) (if smoke then 800 else 4_000) in
  (* One fsync per request is slow by design; cap the baseline so the
     suite stays fast while the per-request cost is measured honestly. *)
  let always_cap = min cap (if smoke then 300 else 1_000) in
  let with_tmp_dir f =
    let dir = Filename.temp_file "mvsbt_net" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f dir)
  in
  let connect_retry sock =
    let rec go n =
      match Client.connect_unix ~path:sock () with
      | cli -> cli
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 100 ->
          Unix.sleepf 0.05;
          go (n + 1)
    in
    go 0
  in
  let drive cli ~window ~cap =
    let outstanding = ref 0 and acked = ref 0 in
    let drain () =
      decr outstanding;
      match Client.recv cli with
      | Wire.Ack -> incr acked
      | r -> failwith (Format.asprintf "group_commit: unexpected %a" Wire.pp_response r)
    in
    let i = ref 0 in
    List.iter
      (fun ev ->
        incr i;
        if !i <= cap then begin
          let req =
            match ev with
            | Workload.Generator.Insert { key; value; at } -> Wire.Insert { key; value; at }
            | Workload.Generator.Delete { key; at } -> Wire.Delete { key; at }
          in
          while !outstanding >= window do
            drain ()
          done;
          Client.send cli req;
          incr outstanding
        end)
      evs;
    while !outstanding > 0 do
      drain ()
    done;
    !acked
  in
  let run_config ~label ~sync_policy ~max_batch ~window ~cap =
    with_tmp_dir (fun dir ->
        let sock = Filename.concat dir "s.sock" in
        let listen = Server.listen_unix ~path:sock in
        flush stdout;
        match Unix.fork () with
        | 0 ->
            (* Child: the server owns the engine; [_exit] skips the
               parent's buffered stdout inherited across the fork. *)
            let eng =
              Durable.open_ ~config:mvsbt_config ~sync_policy ~max_key:spec.max_key
                ~path:(Filename.concat dir "wh") ()
            in
            let cluster =
              Shard.Cluster.create
                ~config:{ Shard.Cluster.default_config with max_batch }
                [| eng |]
            in
            Server.run (Server.create ~cluster ~listen ());
            Shard.Cluster.shutdown cluster;
            Durable.close eng;
            Unix._exit 0
        | pid ->
            Unix.close listen;
            let cli = connect_retry sock in
            let t0 = Unix.gettimeofday () in
            let acked = drive cli ~window ~cap in
            let wall = Unix.gettimeofday () -. t0 in
            let syncs =
              match Client.stats cli with Some s -> s.Wire.wal_syncs | None -> 0
            in
            ignore (Client.shutdown cli);
            Client.close cli;
            ignore (Unix.waitpid [] pid);
            assert (acked = cap);
            let rps = float_of_int cap /. wall in
            Printf.printf "  %-26s %7d writes %9.3f s %11.0f req/s (%d fsyncs)\n" label cap
              wall rps syncs;
            rps)
  in
  let base =
    run_config ~label:"always-fsync, window 1" ~sync_policy:Wal.Always ~max_batch:1
      ~window:1 ~cap:always_cap
  in
  let speedup_64 = ref 0. in
  List.iter
    (fun b ->
      let rps =
        run_config
          ~label:(Printf.sprintf "group commit, batch %d" b)
          ~sync_policy:Wal.Never ~max_batch:b ~window:b ~cap
      in
      Printf.printf "  %-26s speedup over always-fsync: %.1fx\n" "" (rps /. base);
      if b = 64 then speedup_64 := rps /. base)
    [ 1; 8; 64 ];
  Printf.printf "  group commit >= 5x over always-fsync at batch 64: %b\n"
    (!speedup_64 >= 5.);
  if !speedup_64 < 5. then
    Printf.printf "!! group commit at batch 64 fell short of the 5x speedup budget\n"

(* --- Retry-wrapper overhead --------------------------------------------------------- *)

(* Every engine file operation runs behind Vfs.with_retry closures whether
   or not the disk ever misbehaves; this measures what that indirection
   costs on the fault-free path.  Wall clock again: the wrapper's cost is
   pure CPU overhead per syscall, invisible to the simulated-disk
   counters. *)
let retry_overhead () =
  header "Retry overhead: fault-free durable build, retry wrapper on vs off";
  let evs = Lazy.force events in
  let cap = min (List.length evs) (if smoke then 2_000 else 10_000) in
  let ok = Storage.Storage_error.ok_exn in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let with_tmp_prefix f =
    let dir = Filename.temp_file "mvsbt_retry" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f (Filename.concat dir "wh"))
  in
  let build ~retry =
    with_tmp_prefix (fun path ->
        let stats = Storage.Io_stats.create () in
        let s, w =
          wall (fun () ->
              let eng =
                Durable.open_ ~config:mvsbt_config ~stats ~sync_policy:(Wal.Every_n 32)
                  ~retry ~max_key:spec.max_key ~path ()
              in
              let i = ref 0 in
              List.iter
                (fun ev ->
                  incr i;
                  if !i <= cap then
                    match ev with
                    | Workload.Generator.Insert { key; value; at } ->
                        ok (Durable.insert eng ~key ~value ~at)
                    | Workload.Generator.Delete { key; at } ->
                        ok (Durable.delete eng ~key ~at))
                evs;
              Durable.close eng;
              stats)
        in
        (s, w))
  in
  let stats_off, off_s = build ~retry:None in
  let stats_on, on_s = build ~retry:(Some Storage.Retry.default) in
  let rate s = float_of_int cap /. s in
  Printf.printf "  %-24s %9d updates %9.3f s %11.0f upd/s\n" "retry wrapper off" cap off_s
    (rate off_s);
  Printf.printf "  %-24s %9d updates %9.3f s %11.0f upd/s\n" "retry wrapper on" cap on_s
    (rate on_s);
  Printf.printf "  wrapper cost: %.2fx on the fault-free path (%.2f µs/update)\n"
    (on_s /. off_s)
    ((on_s -. off_s) *. 1e6 /. float_of_int cap);
  Format.printf "  io (wrapper on): %a@." Storage.Io_stats.pp stats_on;
  if Storage.Io_stats.retries stats_on <> 0 || Storage.Io_stats.retries stats_off <> 0 then
    Printf.printf "!! retries on a healthy disk: the retry loop misfired\n";
  (* Wall clock on shared CI machines is noisy; flag only gross regressions. *)
  if on_s > 2. *. off_s && on_s -. off_s > 0.5 then
    Printf.printf "!! retry wrapper costs more than 2x on the fault-free path\n"

(* --- Scrub & checksum overhead ------------------------------------------------------ *)

(* Also wall clock: CRC32 verification and the scrub sweep are CPU + real
   file reads, invisible to the simulated-disk counters.  The Io_stats
   integrity counters (crc_failures / scrubbed / repaired, in chunks) do
   show up in the printed stats line. *)
let scrub_overhead () =
  header "Scrub & checksum overhead: per-chunk CRC32 over a committed checkpoint";
  let evs = Lazy.force events in
  let cap = min (List.length evs) (if smoke then 1_000 else 8_000) in
  let config = { (Mvsbt.default_config ~b:64) with Mvsbt.f = 0.9 } in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let with_tmp_dir f =
    let dir = Filename.temp_file "mvsbt_scrub" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f dir)
  in
  with_tmp_dir @@ fun dir ->
  (* Target and twin: the same updates through the engine, one
     checkpoint each. *)
  let build path =
    let ok = Storage.Storage_error.ok_exn in
    let eng = Durable.open_ ~config ~max_key:spec.max_key ~path () in
    List.iteri
      (fun i ev ->
        if i < cap then
          match ev with
          | Workload.Generator.Insert { key; value; at } ->
              ok (Durable.insert eng ~key ~value ~at)
          | Workload.Generator.Delete { key; at } -> ok (Durable.delete eng ~key ~at))
      evs;
    ok (Durable.checkpoint eng);
    Durable.close eng
  in
  let target = Filename.concat dir "target" and twin = Filename.concat dir "twin" in
  let (), build_s = wall (fun () -> build target; build twin) in
  Printf.printf "  built two checkpointed warehouses: %d updates each, %.3f s total\n" cap
    build_s;
  let ckpt_bytes =
    Array.fold_left
      (fun acc f ->
        if String.starts_with ~prefix:"target.ckpt-" f then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  let stats = Storage.Io_stats.create () in
  let clean, scrub_s = wall (fun () -> Durable.scrub ~stats ~path:target ()) in
  let chunks = clean.Durable.chunks_checked in
  Printf.printf
    "  scrub (clean): %d chunks, %.2f MB in %.4f s — %.1f MB/s, %.1f µs/chunk (read + CRC32)\n"
    chunks
    (float_of_int ckpt_bytes /. 1e6)
    scrub_s
    (float_of_int ckpt_bytes /. 1e6 /. scrub_s)
    (scrub_s *. 1e6 /. float_of_int (max 1 chunks));
  let hits = Durable.inject_bit_flips ~path:target ~seed:2001 ~flips:16 () in
  let repair, repair_s =
    wall (fun () -> Durable.scrub ~stats ~repair_from:twin ~path:target ())
  in
  let final = Durable.scrub ~stats ~path:target () in
  Printf.printf
    "  corruption round trip: %d chunks flipped, %d detected, %d repaired in %.4f s; \
     clean after: %b\n"
    (List.length hits)
    (List.length repair.Durable.corrupt)
    (List.length repair.Durable.repaired)
    repair_s (Durable.scrub_clean final);
  Format.printf "  io: %a@." Storage.Io_stats.pp stats;
  if
    List.length repair.Durable.corrupt <> List.length hits
    || List.length repair.Durable.repaired <> List.length hits
    || not (Durable.scrub_clean final)
  then Printf.printf "!! scrub failed to detect or repair injected corruption\n"

(* --- Telemetry overhead -------------------------------------------------------------- *)

(* Wall clock once more: the tracer's cost is clock reads, Io_stats
   snapshots and sink pushes — pure CPU per operation, invisible to the
   simulated-disk counters.  Three modes, per the acceptance criteria:
   disabled (the Tracer.noop default: hot paths pay one branch), a noop
   sink (tracer enabled, spans built and discarded), and a memory sink
   (spans retained in the ring buffer, then folded into histograms). *)
let telemetry_overhead () =
  header "Telemetry overhead: disabled (noop tracer) vs null sink vs memory ring";
  let module Tracer = Telemetry.Tracer in
  let evs = Lazy.force events in
  let n = List.length evs in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run name telemetry =
    let (rta, _stats), build_s =
      wall (fun () ->
          let stats = Storage.Io_stats.create () in
          let rta = Rta.create ~config:mvsbt_config ~stats ?telemetry ~max_key:spec.max_key () in
          List.iter
            (fun ev ->
              match ev with
              | Workload.Generator.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
              | Workload.Generator.Delete { key; at } -> Rta.delete rta ~key ~at)
            evs;
          (rta, stats))
    in
    let rects = rects_for ~qrs:0.01 ~seed:77 in
    let _, query_s =
      wall (fun () ->
          List.iter
            (fun (r : Workload.Query_gen.rect) ->
              ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi))
            rects)
    in
    Printf.printf "  %-26s %9d upd %8.3f s %11.0f upd/s  %4d qry %9.2f µs/qry\n" name n
      build_s
      (float_of_int n /. build_s)
      (List.length rects)
      (query_s *. 1e6 /. float_of_int (List.length rects));
    Rta.close rta;
    build_s
  in
  let base_s = run "disabled (Tracer.noop)" None in
  let null_stats = Storage.Io_stats.create () in
  let null_s =
    run "enabled, null sink" (Some (Tracer.create ~stats:null_stats Tracer.null_sink))
  in
  let buffer = Tracer.Memory.create ~capacity:65_536 () in
  let mem_stats = Storage.Io_stats.create () in
  let mem_s =
    run "enabled, memory ring" (Some (Tracer.create ~stats:mem_stats (Tracer.Memory.sink buffer)))
  in
  Printf.printf "  overhead vs disabled: null sink %.2fx, memory ring %.2fx\n"
    (null_s /. base_s) (mem_s /. base_s);
  Printf.printf "  ring: %d spans pushed, %d retained, %d dropped\n"
    (Tracer.Memory.span_count buffer)
    (List.length (Tracer.Memory.spans buffer))
    (Tracer.Memory.dropped buffer);
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.observe_spans reg (Tracer.Memory.spans buffer);
  Format.printf "%a" Telemetry.Metrics.pp_summary reg;
  (* Wall clock on shared machines is noisy; flag only a gross blow-up of
     the always-on (disabled-tracer) path relative to full tracing. *)
  if null_s > 2. *. base_s && null_s -. base_s > 0.5 then
    Printf.printf "!! null-sink tracing costs more than 2x the disabled path\n"

(* --- Bechamel micro-benchmarks ----------------------------------------------------- *)

let micro () =
  header "Bechamel micro-benchmarks (wall clock per operation)";
  let open Bechamel in
  let open Toolkit in
  (* Pre-built structures shared by the query benchmarks. *)
  let rta, _, _ = build_rta () in
  let mvbt, _, _ = build_mvbt () in
  let horizon = Rta.now rta in
  let rng = Workload.Rng.create ~seed:31 in
  (* A fresh small index, hammered with one more insertion each run. *)
  let fresh = Rta.create ~config:mvsbt_config ~max_key:spec.max_key () in
  let insert_rta =
    let t = ref 1 and k = ref 0 in
    fun () ->
      incr t;
      k := (!k + 7919) mod spec.max_key;
      if Rta.is_alive fresh ~key:!k then Rta.delete fresh ~key:!k ~at:!t
      else Rta.insert fresh ~key:!k ~value:1 ~at:!t
  in
  let tests =
    [
      Test.make ~name:"mvsbt point query" (Staged.stage (fun () ->
           ignore (Rta.lkst rta ~key:(Workload.Rng.int rng spec.max_key)
                     ~at:(Workload.Rng.int rng (horizon + 1)))));
      Test.make ~name:"rta sum_count (1% rect)" (Staged.stage (fun () ->
           let r =
             Workload.Query_gen.rectangle rng ~max_key:spec.max_key
               ~max_time:spec.max_time ~qrs:0.01 ~r_over_i:1.0
           in
           ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi)));
      Test.make ~name:"mvbt snapshot (1% range)" (Staged.stage (fun () ->
           let klen = spec.max_key / 100 in
           let klo = Workload.Rng.int rng (spec.max_key - klen) in
           ignore (Mvbt.snapshot mvbt ~klo ~khi:(klo + klen)
                     ~at:(Workload.Rng.int rng (horizon + 1)))));
      Test.make ~name:"rta update" (Staged.stage insert_rta);
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    tests;
  Rta.close rta;
  Rta.close fresh

(* --- Shard scaling ------------------------------------------------------------------- *)

(* In-process Shard.Cluster throughput: writer-domain counts for the
   write path, reader-domain counts for snapshot queries.  The host the
   suite runs on may have a single core, so writer scaling measures
   coordination overhead there; reader scaling is made observable by
   charging a simulated device latency per page touch on the query path
   (queries overlap their I/O waits across reader domains). *)
let shard_scaling () =
  header "Shard scaling: writer domains and snapshot-reader domains";
  let evs = Lazy.force events in
  let cap = min (List.length evs) (if smoke then 600 else 6_000) in
  let ops =
    List.filteri (fun i _ -> i < cap) evs
    |> List.map (function
         | Workload.Generator.Insert { key; value; at } ->
             Shard.Op.Insert { key; value; at }
         | Workload.Generator.Delete { key; at } -> Shard.Op.Delete { key; at })
  in
  let with_cluster ~shards cfg f =
    let dir = Filename.temp_file "mvsbt_shard" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let engines =
      Array.init shards (fun i ->
          Durable.open_ ~config:mvsbt_config ~sync_policy:Wal.Never ~max_key:spec.max_key
            ~path:(Shard.Cluster.shard_path (Filename.concat dir "wh") ~shards i)
            ())
    in
    let c = Shard.Cluster.create ~config:cfg engines in
    Fun.protect
      ~finally:(fun () ->
        Shard.Cluster.shutdown c;
        Array.iter Durable.close engines;
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> f c)
  in
  let write_run shards =
    with_cluster ~shards Shard.Cluster.default_config (fun c ->
        let acked = ref 0 in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun op ->
            Shard.Cluster.submit_write c op (function
              | Shard.Cluster.Applied -> incr acked
              | _ -> ()))
          ops;
        Shard.Cluster.await c;
        (!acked, Unix.gettimeofday () -. t0))
  in
  Printf.printf "  write path (%d ops, WAL group commit per shard):\n%!" (List.length ops);
  List.iter
    (fun shards ->
      let acked, wall = write_run shards in
      Printf.printf "    shards=%d: %7.0f req/s (%d acked, %.3f s)\n%!" shards
        (float_of_int acked /. wall)
        acked wall)
    [ 1; 2; 4; 8 ];
  (* The read phase wants the simulated I/O wait, not CPU tree walks, to
     dominate — that is the regime where reader domains pay off on any
     core count — so it preloads a smaller tree than the write phase and
     charges a heavier per-page latency. *)
  let read_ops =
    let cap = if smoke then 200 else 1_500 in
    List.filteri (fun i _ -> i < cap) ops
  in
  let n_queries = if smoke then 40 else 400 in
  let sim_us = 50 in
  let rng = Workload.Rng.create ~seed:77 in
  let rects =
    List.init n_queries (fun _ ->
        Workload.Query_gen.rectangle rng ~max_key:spec.max_key ~max_time:spec.max_time
          ~qrs:0.01 ~r_over_i:1.0)
  in
  let read_run readers =
    with_cluster ~shards:4
      { Shard.Cluster.default_config with readers; sim_io_ns = sim_us * 1000 }
      (fun c ->
        List.iter (fun op -> Shard.Cluster.submit_write c op (fun _ -> ())) read_ops;
        Shard.Cluster.await c;
        (* Let the reader replicas finish applying the preload broadcasts
           before timing queries (acks only cover the writer side). *)
        Unix.sleepf 0.2;
        let ok = ref 0 in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun (r : Workload.Query_gen.rect) ->
            Shard.Cluster.submit_query c ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi
              (function Ok _ -> incr ok | Error _ -> ()))
          rects;
        Shard.Cluster.await c;
        (!ok, Unix.gettimeofday () -. t0))
  in
  Printf.printf
    "  query path (%d rects over 4 shards, %d us simulated I/O per page touch):\n%!"
    n_queries sim_us;
  let base = ref 0. in
  List.iter
    (fun readers ->
      let ok, wall = read_run readers in
      let qps = float_of_int ok /. wall in
      if readers = 1 then base := qps;
      Printf.printf "    readers=%d: %7.0f q/s (%d ok, %.3f s, %.2fx vs readers=1)\n%!"
        readers qps ok wall
        (if !base > 0. then qps /. !base else 1.))
    [ 1; 2; 4 ];
  Printf.printf
    "  note: writer scaling on a single-core host measures coordination overhead;\n\
    \  reader speedup comes from overlapping the simulated per-page I/O waits.\n"

(* --- Replication: follower read scaling and failover time ---------------------------- *)

(* Real processes over unix sockets: one leader with a semi-sync quorum of
   1 and two followers replaying its WAL.  The read phase drives the same
   query load against one follower and then against both (one client
   domain per server process), so the speedup is genuine multi-process
   parallelism.  The failover phase SIGKILLs the leader mid-cluster and
   times the follower's detector + retry budget + promotion, then the
   first write accepted by the new leader. *)
let replication () =
  header "Replication: follower read scaling and failover time";
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/rta_cli.exe"
  in
  if not (Sys.file_exists exe) then
    Printf.printf "  skipped: %s not built\n%!" exe
  else begin
    let dir = Filename.temp_file "mvsbt_repl" ".bench" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let sock name = Filename.concat dir (name ^ ".sock") in
    let spawn args =
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null
      in
      Unix.close null;
      pid
    in
    let rec connect ?(n = 0) path =
      match Client.connect_unix ~timeout:10.0 ~path () with
      | cli -> cli
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 200
        ->
          Unix.sleepf 0.05;
          connect ~n:(n + 1) path
    in
    let rec await ?(tries = 500) what p =
      if tries <= 0 then failwith ("replication bench: timed out waiting for " ^ what)
      else if not (p ()) then begin
        Unix.sleepf 0.02;
        await ~tries:(tries - 1) what p
      end
    in
    let stats cli = Client.replica_stats cli in
    let max_key = 100_000 in
    let lpid =
      spawn
        [ "serve"; "--wal"; Filename.concat dir "lead"; "--socket"; sock "l";
          "--max-key"; string_of_int max_key; "--max-batch"; "16"; "--sync-replicas";
          "1"; "--heartbeat-ms"; "20" ]
    in
    (* Followers charge 50 us of simulated device latency per page
       touched on the query path (the same knob as the shard-scaling
       experiment), so follower reads are I/O-bound and the 2-follower
       speedup measures overlapped waits across processes rather than
       raw core count.  Only f0 may promote itself when the leader dies;
       f1 keeps serving reads (a real deployment elects one candidate
       the same way). *)
    (* The small buffer pool keeps queries touching the (simulated)
       device even at smoke scale, where the whole tree would otherwise
       fit in the default 64 pages and the latency knob would not bite. *)
    let follower name extra =
      spawn
        ([ "serve"; "--wal"; Filename.concat dir name; "--socket"; sock name;
           "--max-key"; string_of_int max_key; "--follower-of"; sock "l";
           "--heartbeat-ms"; "20"; "--failover-ms"; "250"; "--sim-io-us"; "50";
           "--buffer"; "8" ]
        @ extra)
    in
    let f0pid = follower "f0" [] in
    let f1pid = follower "f1" [ "--no-auto-promote" ] in
    let lcli = connect (sock "l") in
    await "both subscriptions" (fun () ->
        match stats lcli with
        | Some s -> List.length s.Wire.r_followers = 2
        | None -> false);
    (* Write phase: pipelined inserts, every ack certifies leader fsync
       plus one follower replay+fsync. *)
    let n = if smoke then 400 else 4_000 in
    let window = 32 in
    let acked = ref 0 and issued = ref 0 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      while !issued - !acked >= window do
        match Client.recv lcli with Wire.Ack -> incr acked | _ -> ()
      done;
      Client.send lcli (Wire.Insert { key = i mod max_key; value = i; at = i });
      incr issued
    done;
    while !acked < !issued do
      match Client.recv lcli with Wire.Ack -> incr acked | _ -> ()
    done;
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "  semi-sync writes (quorum 1): %7.0f req/s (%d acked, %.3f s)\n%!"
      (float_of_int !acked /. wall)
      !acked wall;
    let caught_up path =
      let cli = connect path in
      let r =
        match stats cli with Some s -> s.Wire.r_durable >= n | None -> false
      in
      Client.close cli;
      r
    in
    await "follower catch-up" (fun () -> caught_up (sock "f0") && caught_up (sock "f1"));
    (* Read phase: the same rectangle load, one client domain per target
       follower process.  The 1-follower run uses two domains against the
       same process so client-side parallelism is identical. *)
    let n_queries = if smoke then 240 else 2_400 in
    let rng = Workload.Rng.create ~seed:91 in
    let rects =
      Array.init n_queries (fun _ ->
          Workload.Query_gen.rectangle rng ~max_key ~max_time:n ~qrs:0.05 ~r_over_i:1.0)
    in
    let read_run targets =
      let d = 2 in
      let per = n_queries / d in
      let worker w =
        Domain.spawn (fun () ->
            let cli = connect (List.nth targets (w mod List.length targets)) in
            let ok = ref 0 in
            for i = w * per to ((w + 1) * per) - 1 do
              let r : Workload.Query_gen.rect = rects.(i) in
              match
                Client.query cli ~agg:Wire.Sum ~klo:r.klo ~khi:r.khi ~tlo:r.tlo
                  ~thi:r.thi
              with
              | Wire.Agg _ -> incr ok
              | _ -> ()
            done;
            Client.close cli;
            !ok)
      in
      let t0 = Unix.gettimeofday () in
      let doms = List.init d worker in
      let ok = List.fold_left (fun a dm -> a + Domain.join dm) 0 doms in
      (ok, Unix.gettimeofday () -. t0)
    in
    let ok1, w1 = read_run [ sock "f0" ] in
    let ok2, w2 = read_run [ sock "f0"; sock "f1" ] in
    let qps1 = float_of_int ok1 /. w1 and qps2 = float_of_int ok2 /. w2 in
    Printf.printf
      "  follower reads (50 us simulated I/O per page touch):\n\
      \    1 follower:  %7.0f q/s (%d ok, %.3f s)\n\
      \    2 followers: %7.0f q/s (%d ok, %.3f s, %.2fx)\n%!"
      qps1 ok1 w1 qps2 ok2 w2 (qps2 /. qps1);
    (* Failover: kill the leader, time until f0 serves as leader, then
       until it accepts its first write. *)
    let t0 = Unix.gettimeofday () in
    Unix.kill lpid Sys.sigkill;
    ignore (Unix.waitpid [] lpid);
    (try Client.close lcli with _ -> ());
    let fcli = connect (sock "f0") in
    await ~tries:2000 "promotion" (fun () ->
        match stats fcli with
        | Some s -> s.Wire.r_role = Wire.R_leader
        | None -> false);
    let t_promoted = Unix.gettimeofday () -. t0 in
    let rec first_write ?(n = 0) () =
      match Client.insert fcli ~key:0 ~value:1 ~at:(n + 1_000_000) with
      | Wire.Ack -> ()
      | _ when n < 200 ->
          Unix.sleepf 0.01;
          first_write ~n:(n + 1) ()
      | r -> failwith (Format.asprintf "post-failover write: %a" Wire.pp_response r)
    in
    first_write ();
    let t_write = Unix.gettimeofday () -. t0 in
    Printf.printf
      "  failover (kill -9, 250 ms detector): promoted in %.0f ms, first write acked \
       in %.0f ms\n\
       %!"
      (t_promoted *. 1000.) (t_write *. 1000.);
    (match stats fcli with
    | Some s ->
        Printf.printf "  promoted node: epoch %d, %d records durable, %d promotion(s)\n%!"
          s.Wire.r_epoch s.Wire.r_durable s.Wire.r_promotions
    | None -> ());
    ignore (Client.shutdown fcli);
    Client.close fcli;
    let f1cli = connect (sock "f1") in
    ignore (Client.shutdown f1cli);
    Client.close f1cli;
    ignore (Unix.waitpid [] f0pid);
    ignore (Unix.waitpid [] f1pid);
    ignore f1pid;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* --- Retention / vacuum --------------------------------------------------------------- *)

(* On-disk bytes reclaimed by online vacuum under a churn workload, and
   what vacuuming costs the query path.  The store checkpoints before
   each measurement so the bytes compared are the snapshot's — the WAL is
   truncated on both sides — and the vacuum itself runs in small chunks
   with the query panel interleaved between chunks, which is exactly how
   an online system would run it. *)
let vacuum_churn () =
  header "Retention: on-disk bytes reclaimed by online vacuum under churn";
  let n = if smoke then 2_000 else 12_000 in
  let max_key = 256 in
  let dir = Filename.temp_file "mvsbt_vacuum" ".bench" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let du () =
    Array.fold_left
      (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  let eng =
    Durable.open_ ~config:mvsbt_config ~sync_policy:(Wal.Every_n 64) ~max_key
      ~path:(Filename.concat dir "wh") ()
  in
  (* Bounded live set: every displaced tuple leaves a dead version behind,
     which is the garbage retention exists to reclaim. *)
  let rng = Random.State.make [| 0x7e7e; n |] in
  let alive = Hashtbl.create 64 in
  let ok_exn = function Ok () -> () | Error e ->
    failwith (Format.asprintf "vacuum_churn: %a" Storage.Storage_error.pp e)
  in
  for i = 0 to n - 1 do
    let at = 2 * i in
    let key = Random.State.int rng max_key in
    if Hashtbl.mem alive key && (Random.State.int rng 3 > 0 || Hashtbl.length alive = max_key)
    then begin
      Hashtbl.remove alive key;
      ok_exn (Durable.delete eng ~key ~at)
    end
    else begin
      let key = ref key in
      while Hashtbl.mem alive !key do
        key := (!key + 1) mod max_key
      done;
      Hashtbl.add alive !key ();
      ok_exn (Durable.insert eng ~key:!key ~value:(1 + Random.State.int rng 1000) ~at)
    end
  done;
  ok_exn (Durable.checkpoint eng);
  let before = du () in
  let now = Rta.now (Durable.warehouse eng) in
  (* The query panel stays above the deepest horizon so it is answerable
     at every stage; it runs between every pair of vacuum chunks. *)
  let qlo = (3 * now / 4) + 1 in
  let panel () =
    let acc = ref 0 in
    for k = 0 to 15 do
      let klo = k * (max_key / 16) in
      let sum, count =
        Durable.sum_count eng ~klo ~khi:(klo + (max_key / 16)) ~tlo:qlo ~thi:(now + 1)
      in
      acc := !acc + sum + count
    done;
    !acc
  in
  let baseline = panel () in
  let t0 = Unix.gettimeofday () in
  let reps = if smoke then 20 else 100 in
  for _ = 1 to reps do ignore (panel ()) done;
  let q_before = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  Printf.printf "  churn: %d updates over %d keys; checkpointed store: %d bytes on disk\n%!"
    n max_key before;
  List.iter
    (fun (label, h) ->
      let rta = Durable.warehouse eng in
      ok_exn (Durable.vacuum_begin eng ~horizon:h);
      let chunks = Rta.vacuum_plan ~max_pages:16 rta in
      let dropped = ref 0 and freed = ref 0 in
      let q_during = ref 0.0 and q_reps = ref 0 in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun chunk ->
          (match Durable.vacuum_chunk eng chunk with
          | Ok p ->
              dropped := !dropped + p.Rta.records_dropped;
              freed := !freed + p.Rta.pages_freed
          | Error e ->
              failwith (Format.asprintf "vacuum chunk: %a" Storage.Storage_error.pp e));
          let tq = Unix.gettimeofday () in
          if panel () <> baseline then failwith "query drifted during vacuum";
          q_during := !q_during +. (Unix.gettimeofday () -. tq);
          incr q_reps)
        chunks;
      let wall = Unix.gettimeofday () -. t0 in
      ok_exn (Durable.checkpoint eng);
      let after = du () in
      Printf.printf
        "    horizon=%s: %d -> %d bytes (%.1f%% reclaimed); %d chunks in %.3f s, %d \
         pages freed, %d records dropped; query during vacuum %.1f us (%.1f us idle)\n\
         %!"
        label before after
        (100. *. float_of_int (before - after) /. float_of_int (max 1 before))
        (List.length chunks) wall !freed !dropped
        (1e6 *. !q_during /. float_of_int (max 1 !q_reps))
        (1e6 *. q_before))
    [ ("25%", now / 4); ("50%", now / 2); ("75%", 3 * now / 4) ];
  Durable.close eng

(* --- Measured disk: the page-store backends on real hardware ------------------------- *)

(* Everything above charges the paper's simulated 10 ms per I/O.  This
   experiment drops the cost model entirely: the same warehouse is built
   over each store kind a server runs — [memory] (the frame store over
   RAM) and [mmap] (zero-copy mapped overlay files on real disk, which
   hold every page, since no checkpoint is taken), both with the served
   pools' clock eviction — and the Figure-4b QRS sweep plus a cold-cache
   point-query panel are timed with the wall clock.

   "Cold" means pool-cold: the buffer pool is dropped (dirty pages
   written back) before every point query, so each descent faults its
   whole root-to-leaf path through the backend.  The kernel page cache
   is deliberately left alone — flushing it needs root, and serving
   re-reads from it is precisely the regime mmap is built for, so the
   numbers show the backend difference honestly rather than a synthetic
   worst case. *)
let store_disk () =
  header "Measured disk: wall-clock QRS sweep and pool-cold point-query latency";
  let dir = Filename.temp_file "rta-bench-store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Printf.printf "records=%d b=%d buffer=64; mmap overlay files under %s\n" spec.n_records
    mvsbt_b dir;
  let qrs_list = [ 0.0001; 0.001; 0.01; 0.1; 1.0 ] in
  let point_queries = if smoke then 50 else 200 in
  let run name (store : Storage.Store_kind.t) =
    let stats = Storage.Io_stats.create () in
    let rta =
      Rta.create ~config:mvsbt_config ~policy:Storage.Evict.Second_chance ~stats
        ~backing:(Storage.Store_kind.backing store) ~path:(Filename.concat dir name)
        ~max_key:spec.max_key ()
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun ev ->
        match ev with
        | Workload.Generator.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
        | Workload.Generator.Delete { key; at } -> Rta.delete rta ~key ~at)
      (Lazy.force events);
    let build_s = Unix.gettimeofday () -. t0 in
    (* Figure 4b on the wall clock: batch of 100 per QRS, pool dropped
       once per batch (the sweep regime of the simulated figure). *)
    let sweep =
      List.map
        (fun qrs ->
          let rects = rects_for ~qrs ~seed:(int_of_float (qrs *. 1e6) + 17) in
          Rta.drop_cache rta;
          let t0 = Unix.gettimeofday () in
          List.iter
            (fun (r : Workload.Query_gen.rect) ->
              ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi))
            rects;
          (qrs, Unix.gettimeofday () -. t0))
        qrs_list
    in
    (* Pool-cold point queries, latencies through the telemetry
       histogram (the same estimator the serving plane reports). *)
    let reg = Telemetry.Metrics.create () in
    let h =
      Telemetry.Metrics.histogram reg ~help:"pool-cold point query latency"
        "cold_point_query_us"
    in
    let rng = Workload.Rng.create ~seed:1007 in
    for _ = 1 to point_queries do
      let k = Workload.Rng.int rng spec.max_key in
      let t = Workload.Rng.int rng spec.max_time in
      Rta.drop_cache rta;
      let t0 = Unix.gettimeofday () in
      ignore (Rta.sum_count rta ~klo:k ~khi:(k + 1) ~tlo:t ~thi:(t + 1));
      Telemetry.Metrics.observe h ((Unix.gettimeofday () -. t0) *. 1e6)
    done;
    let q p = Telemetry.Metrics.quantile h p in
    Printf.printf
      "  %-6s build %6.2f s; cold point query p50 %8.1f us, p99 %8.1f us, max %8.1f us\n"
      name build_s (q 0.5) (q 0.99) (q 1.);
    Printf.printf "         mapped: %d reads, %d writes; %d readaheads\n"
      (Storage.Io_stats.mapped_reads stats)
      (Storage.Io_stats.mapped_writes stats)
      (Storage.Io_stats.readaheads stats);
    Rta.close rta;
    (name, sweep)
  in
  (* forced order: list literals evaluate right-to-left *)
  let mem = run "memory" Memory in
  let mmap = run "mmap" Mmap in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let all = [ mem; mmap ] in
  Printf.printf "\n  QRS sweep, wall-clock seconds per %d-query batch (pool-cold):\n"
    queries_per_batch;
  Printf.printf "  %10s" "QRS";
  List.iter (fun (name, _) -> Printf.printf " %12s" name) all;
  print_newline ();
  List.iteri
    (fun i _ ->
      let qrs = List.nth qrs_list i in
      Printf.printf "  %9.2f%%" (qrs *. 100.);
      List.iter (fun (_, sweep) -> Printf.printf " %12.4f" (snd (List.nth sweep i))) all;
      print_newline ())
    qrs_list;
  Printf.printf
    "  (simulated fig4b charges 10 ms per I/O; these are real seconds on this disk)\n"

(* --- Driver -------------------------------------------------------------------------- *)

let experiments =
  [
    ("fig4a", fig4a);
    ("update-time", update_time);
    ("fig4b", fig4b);
    ("fig4c", fig4c);
    ("ablation-f", ablation_f);
    ("ablation-opt", ablation_opt);
    ("ablation-data", ablation_data);
    ("ablation-root-star", ablation_root_star);
    ("scalar-baselines", scalar_baselines);
    ("wal-overhead", wal_overhead);
    ("group-commit", group_commit);
    ("retry-overhead", retry_overhead);
    ("scrub-overhead", scrub_overhead);
    ("telemetry-overhead", telemetry_overhead);
    ("shard-scaling", shard_scaling);
    ("replication", replication);
    ("vacuum-churn", vacuum_churn);
    ("store-disk", store_disk);
    ("micro", micro);
  ]

(* The quick subset --smoke runs when no experiment is named explicitly:
   one of each kind (space, queries, durability). *)
let smoke_experiments =
  [ "fig4a"; "fig4b"; "wal-overhead"; "group-commit"; "retry-overhead";
    "scrub-overhead"; "telemetry-overhead"; "shard-scaling"; "replication";
    "vacuum-churn"; "store-disk" ]

let () =
  let requested =
    match List.filter (( <> ) "--smoke") (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] -> if smoke then smoke_experiments else List.map fst experiments
  in
  Printf.printf
    "MVSBT reproduction benchmarks | scale=%.3f (%d records, %d unique keys)\n"
    scale spec.n_records spec.n_keys;
  Printf.printf "cost model: 10 ms per page I/O + measured CPU; LRU buffer, %dB pages\n"
    page_size;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments)))
    requested
