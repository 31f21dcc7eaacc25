(* End-to-end tests of the RTA engine (two MVSBTs + Theorem-1 reduction)
   against the brute-force warehouse oracle. *)

let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun bound ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))

(* A random transaction-time stream: inserts of fresh keys, deletes of
   alive keys, with time advancing randomly (including bursts at the same
   instant). *)
let drive ~n ~max_key ~seed apply =
  let rand = make_rng seed in
  let alive = Hashtbl.create 64 in
  let now = ref 1 in
  for _ = 1 to n do
    now := !now + rand 3;
    let do_delete = Hashtbl.length alive > 0 && rand 100 < 40 in
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

let test_against_oracle ~config ~max_key ~n ~seed () =
  let rta = Rta.create ~config ~max_key () in
  let oracle = Reference.Warehouse.create () in
  let horizon =
    drive ~n ~max_key ~seed (function
      | `Insert (key, value, at) ->
          Rta.insert rta ~key ~value ~at;
          Reference.Warehouse.insert oracle ~key ~value ~at
      | `Delete (key, at) ->
          Rta.delete rta ~key ~at;
          Reference.Warehouse.delete oracle ~key ~at)
  in
  Rta.check_invariants rta;
  let rand = make_rng (seed + 1) in
  for _ = 1 to 400 do
    let k1 = rand (max_key + 1) and k2 = rand (max_key + 1) in
    let klo = min k1 k2 and khi = max k1 k2 in
    let t1 = rand (horizon + 3) and t2 = rand (horizon + 3) in
    let tlo = min t1 t2 and thi = max t1 t2 in
    let got_sum, got_count = Rta.sum_count rta ~klo ~khi ~tlo ~thi in
    let want_sum = Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi in
    let want_count = Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi in
    if got_sum <> want_sum || got_count <> want_count then
      Alcotest.failf "rta [%d,%d)x[%d,%d): got (%d,%d) want (%d,%d)" klo khi tlo thi
        got_sum got_count want_sum want_count
  done;
  (* LKST / LKLT point queries too. *)
  for _ = 1 to 200 do
    let key = rand (max_key + 1) and at = rand (horizon + 2) in
    let got = Rta.lkst rta ~key ~at in
    let want = Reference.Warehouse.lkst oracle ~key ~at in
    if got <> want then
      Alcotest.failf "lkst (k=%d,t=%d): got (%d,%d) want (%d,%d)" key at (fst got)
        (snd got) (fst want) (snd want);
    let got = Rta.lklt rta ~key ~at in
    let want = Reference.Warehouse.lklt oracle ~key ~at in
    if got <> want then
      Alcotest.failf "lklt (k=%d,t=%d): got (%d,%d) want (%d,%d)" key at (fst got)
        (snd got) (fst want) (snd want)
  done

let test_basics () =
  let rta = Rta.create ~max_key:100 () in
  Rta.insert rta ~key:10 ~value:5 ~at:1;
  Rta.insert rta ~key:20 ~value:7 ~at:2;
  Rta.delete rta ~key:10 ~at:4;
  (* Tuples: (10,5)@[1,4), (20,7)@[2,inf). *)
  Alcotest.(check (pair int int)) "whole space" (12, 2)
    (Rta.sum_count rta ~klo:0 ~khi:100 ~tlo:0 ~thi:10);
  Alcotest.(check (pair int int)) "before everything" (0, 0)
    (Rta.sum_count rta ~klo:0 ~khi:100 ~tlo:0 ~thi:1);
  Alcotest.(check (pair int int)) "only key 10, while alive" (5, 1)
    (Rta.sum_count rta ~klo:10 ~khi:11 ~tlo:1 ~thi:4);
  Alcotest.(check (pair int int)) "key 10 after deletion" (0, 0)
    (Rta.sum_count rta ~klo:10 ~khi:11 ~tlo:4 ~thi:9);
  Alcotest.(check (pair int int)) "key 10 window straddling deletion" (5, 1)
    (Rta.sum_count rta ~klo:10 ~khi:11 ~tlo:3 ~thi:9);
  Alcotest.(check (option (float 1e-9))) "avg" (Some 6.0)
    (Rta.avg rta ~klo:0 ~khi:100 ~tlo:0 ~thi:10);
  Alcotest.(check (option (float 1e-9))) "avg empty" None
    (Rta.avg rta ~klo:50 ~khi:60 ~tlo:0 ~thi:10)

let test_1tnf_enforced () =
  let rta = Rta.create ~max_key:10 () in
  Rta.insert rta ~key:3 ~value:1 ~at:1;
  Alcotest.check_raises "duplicate alive key"
    (Invalid_argument "Rta.insert: key 3 is already alive (1TNF)") (fun () ->
      Rta.insert rta ~key:3 ~value:2 ~at:2);
  Alcotest.check_raises "delete dead key"
    (Invalid_argument "Rta.delete: key 5 is not alive") (fun () ->
      Rta.delete rta ~key:5 ~at:2);
  Rta.delete rta ~key:3 ~at:5;
  (* Reinsertion after deletion is fine. *)
  Rta.insert rta ~key:3 ~value:9 ~at:6;
  Alcotest.(check (option int)) "alive value" (Some 9) (Rta.alive_value rta ~key:3)

let test_same_instant_insert_delete () =
  let rta = Rta.create ~max_key:10 () in
  let oracle = Reference.Warehouse.create () in
  Rta.insert rta ~key:3 ~value:5 ~at:2;
  Reference.Warehouse.insert oracle ~key:3 ~value:5 ~at:2;
  Rta.delete rta ~key:3 ~at:2;
  Reference.Warehouse.delete oracle ~key:3 ~at:2;
  for thi = 1 to 5 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "empty version invisible thi=%d" thi)
      (Reference.Warehouse.rta_sum oracle ~klo:0 ~khi:10 ~tlo:0 ~thi,
       Reference.Warehouse.rta_count oracle ~klo:0 ~khi:10 ~tlo:0 ~thi)
      (Rta.sum_count rta ~klo:0 ~khi:10 ~tlo:0 ~thi)
  done

let test_degenerate_rectangles () =
  let rta = Rta.create ~max_key:10 () in
  Rta.insert rta ~key:5 ~value:3 ~at:1;
  Alcotest.(check (pair int int)) "empty key range" (0, 0)
    (Rta.sum_count rta ~klo:5 ~khi:5 ~tlo:0 ~thi:10);
  Alcotest.(check (pair int int)) "empty time range" (0, 0)
    (Rta.sum_count rta ~klo:0 ~khi:10 ~tlo:5 ~thi:5);
  Alcotest.(check (pair int int)) "inverted ranges" (0, 0)
    (Rta.sum_count rta ~klo:8 ~khi:2 ~tlo:9 ~thi:1);
  Alcotest.(check (pair int int)) "single cell hit" (3, 1)
    (Rta.sum_count rta ~klo:5 ~khi:6 ~tlo:1 ~thi:2);
  Alcotest.(check (pair int int)) "out-of-range clamped" (3, 1)
    (Rta.sum_count rta ~klo:(-5) ~khi:99 ~tlo:(-7) ~thi:1_000_000)

let oracle_cases =
  let mk ~b ~f ~variant ~n ~seed =
    let config = { (Mvsbt.default_config ~b) with f; variant } in
    Alcotest.test_case
      (Printf.sprintf "oracle b=%d f=%.2f %s n=%d" b f
         (match variant with Mvsbt.Plain -> "plain" | Mvsbt.Logical -> "logical")
         n)
      `Quick
      (test_against_oracle ~config ~max_key:50 ~n ~seed)
  in
  [
    mk ~b:6 ~f:0.67 ~variant:Mvsbt.Logical ~n:300 ~seed:1;
    mk ~b:16 ~f:0.9 ~variant:Mvsbt.Logical ~n:500 ~seed:2;
    mk ~b:64 ~f:0.9 ~variant:Mvsbt.Logical ~n:500 ~seed:3;
    mk ~b:6 ~f:0.67 ~variant:Mvsbt.Plain ~n:250 ~seed:4;
    mk ~b:16 ~f:0.9 ~variant:Mvsbt.Plain ~n:300 ~seed:5;
  ]

(* Every configuration the ablations build: either variant, merging and
   disposal on or off, root* in an array or a B+-tree. *)
let ablation_configs =
  let base = { (Mvsbt.default_config ~b:8) with Mvsbt.f = 0.75 } in
  let ( let* ) l f = List.concat_map f l in
  let* variant = [ Mvsbt.Logical; Mvsbt.Plain ] in
  let* merging = [ true; false ] in
  let* disposal = [ true; false ] in
  let* root_star_btree = [ false; true ] in
  [ { base with Mvsbt.variant; merging; disposal; root_star_btree } ]

let config_name (c : Mvsbt.config) =
  Printf.sprintf "%s, merging %b, disposal %b, root* %s"
    (match c.variant with Mvsbt.Logical -> "logical" | Mvsbt.Plain -> "plain")
    c.merging c.disposal
    (if c.root_star_btree then "B+-tree" else "array")

let persistence_roundtrip config =
  let rta = Rta.create ~config ~max_key:60 () in
  let oracle = Reference.Warehouse.create () in
  let horizon =
    drive ~n:400 ~max_key:60 ~seed:77 (function
      | `Insert (key, value, at) ->
          Rta.insert rta ~key ~value ~at;
          Reference.Warehouse.insert oracle ~key ~value ~at
      | `Delete (key, at) ->
          Rta.delete rta ~key ~at;
          Reference.Warehouse.delete oracle ~key ~at)
  in
  let path = Filename.temp_file "rta_snapshot" "" in
  Rta.save rta ~path;
  let loaded = Rta.load ~snapshot:path () in
  Rta.check_invariants loaded;
  Alcotest.(check int) "now preserved" (Rta.now rta) (Rta.now loaded);
  Alcotest.(check int) "updates preserved" (Rta.n_updates rta) (Rta.n_updates loaded);
  Alcotest.(check int) "alive preserved" (Rta.alive_count rta) (Rta.alive_count loaded);
  (* A snapshot holds every page the tree counts: without disposal, a
     root split at the instant it was made stays live, unreachable from
     root*, and is saved after the pages root* reaches. *)
  Alcotest.(check int) "pages preserved" (Rta.page_count rta) (Rta.page_count loaded);
  Alcotest.(check int) "records preserved" (Rta.record_count rta) (Rta.record_count loaded);
  (* Saved again, the loaded trees write the same bytes.  (The base
     table's order in [.meta] is its hash table's.) *)
  let again = Filename.temp_file "rta_snapshot" "" in
  Rta.save loaded ~path:again;
  List.iter
    (fun ext ->
      let read f = In_channel.with_open_bin f In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s saved again is the same" (config_name config) ext)
        true
        (read (path ^ ext) = read (again ^ ext)))
    [ ".lkst"; ".lklt" ];
  List.iter Sys.remove [ again ^ ".lkst"; again ^ ".lklt"; again ^ ".meta"; again ];
  let rand = make_rng 4242 in
  for _ = 1 to 200 do
    let k1 = rand 61 and k2 = rand 61 in
    let klo = min k1 k2 and khi = max k1 k2 in
    let t1 = rand (horizon + 3) and t2 = rand (horizon + 3) in
    let tlo = min t1 t2 and thi = max t1 t2 in
    let a = Rta.sum_count rta ~klo ~khi ~tlo ~thi in
    let b = Rta.sum_count loaded ~klo ~khi ~tlo ~thi in
    if a <> b then
      Alcotest.failf "%s: loaded index disagrees on [%d,%d)x[%d,%d)" (config_name config) klo
        khi tlo thi
  done;
  (* The loaded index keeps evolving identically to the original. *)
  List.iter
    (fun r ->
      Rta.insert r ~key:5 ~value:111 ~at:(horizon + 10);
      if Rta.is_alive r ~key:30 then Rta.delete r ~key:30 ~at:(horizon + 11))
    [ rta; loaded ];
  Reference.Warehouse.insert oracle ~key:5 ~value:111 ~at:(horizon + 10);
  (match Reference.Warehouse.snapshot oracle ~klo:30 ~khi:31 ~at:(horizon + 10) with
  | _ :: _ -> Reference.Warehouse.delete oracle ~key:30 ~at:(horizon + 11)
  | [] -> ());
  for _ = 1 to 100 do
    let k1 = rand 61 and k2 = rand 61 in
    let klo = min k1 k2 and khi = max k1 k2 in
    let tlo = 0 and thi = horizon + 20 in
    let a = Rta.sum_count rta ~klo ~khi ~tlo ~thi in
    let b = Rta.sum_count loaded ~klo ~khi ~tlo ~thi in
    let w =
      ( Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi,
        Reference.Warehouse.rta_count oracle ~klo ~khi ~tlo ~thi )
    in
    if a <> b || a <> w then Alcotest.failf "%s: post-load evolution diverged" (config_name config)
  done;
  List.iter Sys.remove [ path ^ ".lkst"; path ^ ".lklt"; path ^ ".meta"; path ]

let test_persistence_roundtrip () = List.iter persistence_roundtrip ablation_configs

let test_durable_matches_memory () =
  (* The file-resident engine must agree exactly with the RAM one, and
     its pages must really live in the files. *)
  let config = { (Mvsbt.default_config ~b:16) with Mvsbt.f = 0.9 } in
  let mem = Rta.create ~config ~max_key:60 () in
  let path = Filename.temp_file "rta_durable" "" in
  let stats = Storage.Io_stats.create () in
  let dur =
    Rta.create ~config ~pool_capacity:8 ~policy:Storage.Evict.Second_chance ~stats ~path
      ~max_key:60 ()
  in
  let horizon =
    drive ~n:500 ~max_key:60 ~seed:31 (function
      | `Insert (key, value, at) ->
          Rta.insert mem ~key ~value ~at;
          Rta.insert dur ~key ~value ~at
      | `Delete (key, at) ->
          Rta.delete mem ~key ~at;
          Rta.delete dur ~key ~at)
  in
  Rta.check_invariants dur;
  (* Physical file traffic happened (the pool is tiny). *)
  Alcotest.(check bool) "file writes happened" true (Storage.Io_stats.writes stats > 0);
  let lkst_file = path ^ ".lkst.pages" in
  Alcotest.(check bool) "page file exists and is non-empty" true
    (Sys.file_exists lkst_file && (Unix.stat lkst_file).Unix.st_size > 0);
  (* Cold-cache queries must re-read pages from the file and agree with
     the in-memory twin. *)
  Rta.drop_cache dur;
  let reads_before = Storage.Io_stats.reads stats in
  let rand = make_rng 32 in
  for _ = 1 to 150 do
    let k1 = rand 61 and k2 = rand 61 in
    let klo = min k1 k2 and khi = max k1 k2 in
    let t1 = rand (horizon + 3) and t2 = rand (horizon + 3) in
    let tlo = min t1 t2 and thi = max t1 t2 in
    let a = Rta.sum_count mem ~klo ~khi ~tlo ~thi in
    let b = Rta.sum_count dur ~klo ~khi ~tlo ~thi in
    if a <> b then Alcotest.failf "durable disagrees on [%d,%d)x[%d,%d)" klo khi tlo thi
  done;
  Alcotest.(check bool) "file reads happened" true
    (Storage.Io_stats.reads stats > reads_before);
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path ^ ".lkst.pages"; path ^ ".lklt.pages"; path ]

let test_persistence_bad_file () =
  let path = Filename.temp_file "rta_bad" "" in
  List.iter
    (fun ext ->
      let oc = open_out_bin (path ^ ext) in
      output_string oc "garbage-not-a-snapshot";
      close_out oc)
    [ ".lkst"; ".lklt"; ".meta" ];
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Rta.load ~snapshot:path ());
       false
     with Failure _ -> true);
  List.iter Sys.remove [ path ^ ".lkst"; path ^ ".lklt"; path ^ ".meta"; path ]

let () =
  Alcotest.run "rta"
    [
      ( "basics",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "1TNF" `Quick test_1tnf_enforced;
          Alcotest.test_case "same-instant insert+delete" `Quick
            test_same_instant_insert_delete;
          Alcotest.test_case "degenerate rectangles" `Quick test_degenerate_rectangles;
        ] );
      ("oracle", oracle_cases);
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "bad file rejected" `Quick test_persistence_bad_file;
          Alcotest.test_case "durable matches memory" `Quick test_durable_matches_memory;
        ] );
    ]
