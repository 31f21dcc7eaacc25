(* The sharded serving subsystem: router decomposition, mailbox channel
   semantics (including cross-domain), the sharded-warehouse equivalence
   property against the lib/reference oracle (random boundaries,
   boundary-straddling rectangles, version-skewed snapshots), a live
   cluster round trip, and a kill -9 of a multi-shard serve process with
   per-shard durability audits. *)

module Router = Shard.Router
module Mailbox = Shard.Mailbox
module Warehouse = Shard.Warehouse
module Plan = Shard.Plan
module Op = Shard.Op
module Cluster = Shard.Cluster
module Ref = Reference.Warehouse

let temp_dir () =
  let d = Filename.temp_file "rta_shard" ".test" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf d =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (Sys.readdir d);
  Unix.rmdir d

(* --- Router ------------------------------------------------------------------------ *)

let test_router_even_split () =
  List.iter
    (fun (shards, max_key) ->
      let r = Router.create ~shards ~max_key () in
      (* The ranges tile [0, max_key) in order. *)
      let lo0, _ = Router.range r 0 in
      Alcotest.(check int) "first range starts at 0" 0 lo0;
      for i = 0 to shards - 2 do
        let _, hi = Router.range r i in
        let lo, _ = Router.range r (i + 1) in
        Alcotest.(check int) "ranges are adjacent" hi lo
      done;
      let _, last_hi = Router.range r (shards - 1) in
      Alcotest.(check int) "last range ends at max_key" max_key last_hi;
      (* Every key routes into the range that contains it. *)
      for key = 0 to max_key - 1 do
        let s = Router.shard_of_key r key in
        let lo, hi = Router.range r s in
        if not (lo <= key && key < hi) then
          Alcotest.failf "key %d routed to shard %d = [%d,%d)" key s lo hi
      done;
      (* Near-equal split: sizes differ by at most one. *)
      let sizes =
        List.init shards (fun i ->
            let lo, hi = Router.range r i in
            hi - lo)
      in
      let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
      Alcotest.(check bool) "even split" true (mx - mn <= 1))
    [ (1, 10); (2, 10); (3, 10); (7, 7); (4, 1000) ]

let test_router_explicit_boundaries () =
  let r = Router.create ~boundaries:[ 3; 7 ] ~shards:3 ~max_key:10 () in
  Alcotest.(check (list int)) "boundaries echoed" [ 3; 7 ] (Router.boundaries r);
  Alcotest.(check (list (triple int int int)))
    "parts clip and split at boundaries"
    [ (0, 2, 3); (1, 3, 7); (2, 7, 9) ]
    (Router.parts r ~klo:2 ~khi:9);
  Alcotest.(check (list (triple int int int)))
    "point range hits one shard"
    [ (1, 5, 6) ]
    (Router.parts r ~klo:5 ~khi:6);
  Alcotest.(check (list (triple int int int)))
    "out-of-domain clips" [ (0, 0, 3); (1, 3, 7); (2, 7, 10) ]
    (Router.parts r ~klo:(-5) ~khi:50);
  Alcotest.(check (list (triple int int int))) "empty interval" [] (Router.parts r ~klo:4 ~khi:4);
  match Router.create ~boundaries:[ 0; 5 ] ~shards:3 ~max_key:10 () with
  | _ -> Alcotest.fail "boundary 0 should be rejected (not an interior point)"
  | exception Invalid_argument _ -> ()

let test_router_parts_union () =
  (* For random routers and intervals: parts are disjoint, ordered, and
     their union is the clipped interval. *)
  let rng = Workload.Rng.create ~seed:11 in
  for _ = 1 to 500 do
    let max_key = 2 + Workload.Rng.int rng 200 in
    let shards = 1 + Workload.Rng.int rng (min 8 max_key) in
    let r = Router.create ~shards ~max_key () in
    let a = Workload.Rng.int rng (max_key + 10) - 5 in
    let b = Workload.Rng.int rng (max_key + 10) - 5 in
    let klo = min a b and khi = max a b in
    let parts = Router.parts r ~klo ~khi in
    let covered = Array.make (max_key + 1) false in
    List.iter
      (fun (s, lo, hi) ->
        if not (lo < hi) then Alcotest.fail "empty part";
        let rlo, rhi = Router.range r s in
        if not (rlo <= lo && hi <= rhi) then Alcotest.fail "part outside its shard";
        for k = lo to hi - 1 do
          if covered.(k) then Alcotest.fail "overlapping parts";
          covered.(k) <- true
        done)
      parts;
    for k = 0 to max_key - 1 do
      let should = klo <= k && k < khi in
      if covered.(k) <> should then
        Alcotest.failf "key %d: covered=%b wanted=%b ([%d,%d) over %d/%d)" k covered.(k)
          should klo khi shards max_key
    done
  done

(* --- Mailbox ----------------------------------------------------------------------- *)

let test_mailbox_fifo_close () =
  let mb = Mailbox.create ~capacity:4 () in
  Alcotest.(check bool) "put into open" true (Mailbox.put mb 1);
  Alcotest.(check bool) "put into open" true (Mailbox.put mb 2);
  Alcotest.(check int) "length counts" 2 (Mailbox.length mb);
  Alcotest.(check (option int)) "fifo" (Some 1) (Mailbox.take mb);
  Mailbox.close mb;
  Alcotest.(check bool) "put after close refused" false (Mailbox.put mb 3);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Mailbox.take mb);
  Alcotest.(check (option int)) "then None" None (Mailbox.take mb);
  Alcotest.(check (option int)) "stays None" None (Mailbox.try_take mb);
  Mailbox.close mb (* idempotent *)

let test_mailbox_cross_domain () =
  (* A small capacity forces the producer to block on a full mailbox and
     the consumer on an empty one; the count and order must survive. *)
  let mb = Mailbox.create ~capacity:8 () in
  let n = 10_000 in
  let consumer =
    Domain.spawn (fun () ->
        let expected = ref 0 and sum = ref 0 in
        let rec go () =
          match Mailbox.take mb with
          | Some v ->
              if v <> !expected then Alcotest.failf "out of order: got %d want %d" v !expected;
              incr expected;
              sum := !sum + v;
              go ()
          | None -> (!expected, !sum)
        in
        go ())
  in
  for i = 0 to n - 1 do
    if not (Mailbox.put mb i) then Alcotest.fail "put refused while open"
  done;
  Mailbox.close mb;
  let got, sum = Domain.join consumer in
  Alcotest.(check int) "all messages arrived" n got;
  Alcotest.(check int) "checksum" (n * (n - 1) / 2) sum

(* --- Equivalence against the oracle ------------------------------------------------ *)

(* A generated scenario: a key domain, a router over it (random interior
   boundaries), and a 1TNF-valid op sequence with strictly increasing
   times. *)
type scenario = { max_key : int; boundaries : int list; ops : Op.t list }

let pp_scenario s =
  Format.asprintf "{max_key=%d; boundaries=[%s]; %d ops: %s}" s.max_key
    (String.concat ";" (List.map string_of_int s.boundaries))
    (List.length s.ops)
    (String.concat "; " (List.map (Format.asprintf "%a" Op.pp) s.ops))

let gen_scenario =
  let open QCheck.Gen in
  2 -- 64 >>= fun max_key ->
  0 -- min 3 (max_key - 1) >>= fun n_bounds ->
  (* Distinct sorted interior boundaries. *)
  let rec pick acc k st =
    if k = 0 then acc
    else
      let b = int_range 1 (max_key - 1) st in
      if List.mem b acc then pick acc k st else pick (b :: acc) (k - 1) st
  in
  (fun st -> List.sort compare (pick [] n_bounds st)) >>= fun boundaries ->
  0 -- 40 >>= fun n_ops ->
  (fun st ->
    let alive = Hashtbl.create 16 in
    let ops = ref [] in
    for step = 0 to n_ops - 1 do
      let at = step + 1 in
      let key = int_range 0 (max_key - 1) st in
      if Hashtbl.mem alive key then begin
        (* Flip a coin between deleting this key and inserting a fresh one. *)
        if bool st then begin
          Hashtbl.remove alive key;
          ops := Op.Delete { key; at } :: !ops
        end
        else
          match
            List.find_opt (fun k -> not (Hashtbl.mem alive k)) (List.init max_key Fun.id)
          with
          | Some k ->
              Hashtbl.replace alive k ();
              ops := Op.Insert { key = k; value = int_range 0 100 st; at } :: !ops
          | None ->
              Hashtbl.remove alive key;
              ops := Op.Delete { key; at } :: !ops
      end
      else begin
        Hashtbl.replace alive key ();
        ops := Op.Insert { key; value = int_range 0 100 st; at } :: !ops
      end
    done;
    List.rev !ops)
  >>= fun ops -> return { max_key; boundaries; ops }

(* Rectangles to probe: random ones, plus rectangles straddling every
   router boundary (the seams are where decomposition bugs live), plus
   the full domain. *)
let probe_rects st (s : scenario) =
  let horizon = List.length s.ops + 2 in
  let open QCheck.Gen in
  let random_rect st =
    let a = int_range 0 s.max_key st and b = int_range 0 s.max_key st in
    let tlo = int_range 0 horizon st and d = int_range 0 horizon st in
    (min a b, max a b, tlo, min horizon (tlo + d))
  in
  let seam_rects =
    List.concat_map
      (fun b ->
        [ (max 0 (b - 1), min s.max_key (b + 1), 0, horizon);
          (max 0 (b - 2), min s.max_key (b + 2), horizon / 2, horizon);
          (b, min s.max_key (b + 1), 0, horizon);
          (max 0 (b - 1), b, 0, horizon) ])
      s.boundaries
  in
  ((0, s.max_key, 0, horizon) :: seam_rects) @ List.init 8 (fun _ -> random_rect st)

let check_rects ~msg wh oracle rects =
  List.iter
    (fun (klo, khi, tlo, thi) ->
      let sum, count = Warehouse.sum_count wh ~klo ~khi ~tlo ~thi in
      let esum = Ref.rta_sum oracle ~klo ~khi ~tlo ~thi in
      let ecount = Ref.rta_count oracle ~klo ~khi ~tlo ~thi in
      if sum <> esum || count <> ecount then
        Alcotest.failf "%s: [%d,%d)x[%d,%d): got sum=%d count=%d, oracle sum=%d count=%d"
          msg klo khi tlo thi sum count esum ecount;
      let avg = Warehouse.avg wh ~klo ~khi ~tlo ~thi in
      let eavg = Ref.rta_avg oracle ~klo ~khi ~tlo ~thi in
      match (avg, eavg) with
      | None, None -> ()
      | Some a, Some b when abs_float (a -. b) <= 1e-9 *. (1. +. abs_float b) -> ()
      | _ ->
          Alcotest.failf "%s: [%d,%d)x[%d,%d): avg %s, oracle %s" msg klo khi tlo thi
            (match avg with None -> "none" | Some a -> string_of_float a)
            (match eavg with None -> "none" | Some a -> string_of_float a))
    rects

let prop_sharded_equals_oracle =
  QCheck.Test.make ~count:300
    ~name:"sharded warehouse = reference oracle (SUM/COUNT/AVG, any boundaries)"
    (QCheck.make ~print:pp_scenario gen_scenario)
    (fun s ->
      let shards = List.length s.boundaries + 1 in
      let router =
        if s.boundaries = [] then Router.create ~shards ~max_key:s.max_key ()
        else Router.create ~boundaries:s.boundaries ~shards ~max_key:s.max_key ()
      in
      let wh = Warehouse.create ~router () in
      let oracle = Ref.create () in
      List.iter
        (fun op ->
          Warehouse.apply wh op;
          match op with
          | Op.Insert { key; value; at } -> Ref.insert oracle ~key ~value ~at
          | Op.Delete { key; at } -> Ref.delete oracle ~key ~at)
        s.ops;
      (* Watermarks partition the op count across shards. *)
      let total = Array.fold_left ( + ) 0 (Warehouse.watermarks wh) in
      if total <> List.length s.ops then
        Alcotest.failf "watermarks sum to %d, applied %d" total (List.length s.ops);
      let st = Random.State.make [| 42; s.max_key; List.length s.ops |] in
      check_rects ~msg:"live" wh oracle (probe_rects st s);
      true)

(* A version-skewed snapshot: each shard has applied only a prefix of
   its own committed sequence.  Whatever the skew, the sharded answer
   must equal the oracle fed exactly those prefix ops — every replica is
   a consistent committed prefix, so the merged rectangle answer is the
   aggregate of a well-defined (if never globally materialised)
   database state. *)
let prop_version_skew =
  QCheck.Test.make ~count:300
    ~name:"version-skewed snapshots still answer exactly (per-shard prefixes)"
    (QCheck.make
       ~print:(fun (s, _) -> pp_scenario s)
       QCheck.Gen.(pair gen_scenario (int_bound 1000)))
    (fun (s, skew_seed) ->
      let shards = List.length s.boundaries + 1 in
      let router =
        if s.boundaries = [] then Router.create ~shards ~max_key:s.max_key ()
        else Router.create ~boundaries:s.boundaries ~shards ~max_key:s.max_key ()
      in
      let st = Random.State.make [| skew_seed; s.max_key |] in
      (* Per-shard committed sequences, in op order. *)
      let per_shard = Array.make shards [] in
      List.iter
        (fun op ->
          let sh = Router.shard_of_key router (Op.key op) in
          per_shard.(sh) <- op :: per_shard.(sh))
        s.ops;
      let per_shard = Array.map List.rev per_shard in
      (* Random prefix length per shard = the skewed watermarks. *)
      let prefixes =
        Array.map
          (fun ops ->
            let len = Random.State.int st (List.length ops + 1) in
            List.filteri (fun i _ -> i < len) ops)
          per_shard
      in
      let wh = Warehouse.create ~router () in
      Array.iteri
        (fun sh ops -> List.iter (fun op -> Warehouse.apply_to wh ~shard:sh op) ops)
        prefixes;
      (* The oracle sees the same op subset, merged back into global
         time order (times are globally unique and increasing). *)
      let oracle = Ref.create () in
      Array.to_list prefixes |> List.concat
      |> List.sort (fun a b -> compare (Op.at a) (Op.at b))
      |> List.iter (function
           | Op.Insert { key; value; at } -> Ref.insert oracle ~key ~value ~at
           | Op.Delete { key; at } -> Ref.delete oracle ~key ~at);
      check_rects ~msg:"skewed" wh oracle (probe_rects st s);
      true)

(* --- Live cluster round trip ------------------------------------------------------- *)

let open_engines ?pool_capacity ~shards ~max_key path =
  Array.init shards (fun i ->
      Durable.open_ ?pool_capacity ~sync_policy:Wal.Never ~max_key
        ~path:(Cluster.shard_path path ~shards i)
        ())

let close_cluster c engines =
  Cluster.shutdown c;
  Array.iter Durable.close engines

let test_cluster_round_trip () =
  let dir = temp_dir () in
  let max_key = 1_000 in
  let cfg = { Cluster.default_config with readers = 1; max_batch = 16 } in
  let engines = open_engines ~shards:2 ~max_key (Filename.concat dir "wh") in
  let c = Cluster.create ~config:cfg engines in
  let oracle = Ref.create () in
  let acked = ref 0 and rejected = ref 0 in
  for i = 0 to 499 do
    let key = (i * 7919) mod max_key and at = i + 1 in
    let op = Op.Insert { key; value = i; at } in
    Ref.insert oracle ~key ~value:i ~at;
    Cluster.submit_write c op (function
      | Cluster.Applied -> incr acked
      | Cluster.Rejected _ -> incr rejected
      | Cluster.Failed e ->
          Alcotest.failf "write failed: %s" (Storage.Storage_error.to_string e))
  done;
  Cluster.await c;
  Alcotest.(check int) "all writes acked" 500 !acked;
  Alcotest.(check int) "no rejections" 0 !rejected;
  (* Read-your-writes: these queries are submitted after every ack ran,
     so the reader replicas must already hold all 500 inserts. *)
  let checks = ref 0 in
  List.iter
    (fun (klo, khi, tlo, thi) ->
      let esum = Ref.rta_sum oracle ~klo ~khi ~tlo ~thi in
      let ecount = Ref.rta_count oracle ~klo ~khi ~tlo ~thi in
      Cluster.submit_query c ~klo ~khi ~tlo ~thi (function
        | Ok (sum, count) ->
            incr checks;
            if sum <> esum || count <> ecount then
              Alcotest.failf "[%d,%d)x[%d,%d): got (%d,%d) want (%d,%d)" klo khi tlo thi
                sum count esum ecount
        | Error _ -> Alcotest.fail "query errored"))
    [ (0, max_key, 0, 1000); (0, 500, 0, 1000); (499, 501, 0, 1000); (250, 750, 100, 400);
      (700, 700, 0, 1000) ];
  Cluster.await c;
  Alcotest.(check int) "all queries answered" 5 !checks;
  (* Watermarks across writer publications sum to the applied total. *)
  let infos = Cluster.shard_infos c in
  let total = List.fold_left (fun a (i : Cluster.shard_info) -> a + i.stat.watermark) 0 infos in
  Alcotest.(check int) "published watermarks cover all writes" 500 total;
  List.iter
    (fun (i : Cluster.shard_info) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d reader caught up" i.shard)
        i.stat.watermark i.reader_watermark)
    infos;
  (* Checkpoint every shard, then shut down and recover. *)
  let cp = ref None in
  Cluster.submit_checkpoint c (fun r -> cp := Some r);
  Cluster.await c;
  (match !cp with
  | Some (Ok ()) -> ()
  | Some (Error _) -> Alcotest.fail "checkpoint failed"
  | None -> Alcotest.fail "checkpoint never completed");
  close_cluster c engines;
  let engines = open_engines ~shards:2 ~max_key (Filename.concat dir "wh") in
  let c2 = Cluster.create ~config:cfg engines in
  let got = ref None in
  Cluster.submit_query c2 ~klo:0 ~khi:max_key ~tlo:0 ~thi:1000 (fun r -> got := Some r);
  Cluster.await c2;
  (match !got with
  | Some (Ok (sum, count)) ->
      Alcotest.(check int) "recovered sum" (Ref.rta_sum oracle ~klo:0 ~khi:max_key ~tlo:0 ~thi:1000) sum;
      Alcotest.(check int) "recovered count"
        (Ref.rta_count oracle ~klo:0 ~khi:max_key ~tlo:0 ~thi:1000)
        count
  | _ -> Alcotest.fail "recovered query did not answer");
  close_cluster c2 engines;
  rm_rf dir

let test_cluster_rejects_bad_ops () =
  let dir = temp_dir () in
  let engines = open_engines ~shards:3 ~max_key:100 (Filename.concat dir "wh") in
  let c = Cluster.create ~config:{ Cluster.default_config with readers = 1 } engines in
  let outcomes = ref [] in
  Cluster.submit_write c (Op.Insert { key = 5; value = 1; at = 1 }) (fun o ->
      outcomes := ("first", o) :: !outcomes);
  Cluster.submit_write c (Op.Insert { key = 5; value = 2; at = 2 }) (fun o ->
      outcomes := ("dup", o) :: !outcomes);
  Cluster.submit_write c (Op.Delete { key = 99; at = 3 }) (fun o ->
      outcomes := ("dead", o) :: !outcomes);
  Cluster.await c;
  List.iter
    (fun (label, o) ->
      match (label, o) with
      | "first", Cluster.Applied -> ()
      | "dup", Cluster.Rejected _ -> ()
      | "dead", Cluster.Rejected _ -> ()
      | _, _ -> Alcotest.failf "unexpected outcome for %s" label)
    !outcomes;
  Alcotest.(check int) "three outcomes" 3 (List.length !outcomes);
  (* A query over an empty rectangle and a bad one. *)
  let r = ref None in
  Cluster.submit_query c ~klo:50 ~khi:50 ~tlo:0 ~thi:10 (fun x -> r := Some x);
  Cluster.await c;
  (match !r with
  | Some (Ok (0, 0)) -> ()
  | _ -> Alcotest.fail "empty rectangle should answer (0,0)");
  close_cluster c engines;
  (* Submissions after shutdown get typed refusals, not hangs. *)
  let late = ref None in
  Cluster.submit_write c (Op.Insert { key = 1; value = 1; at = 9 }) (fun o -> late := Some o);
  Cluster.await c;
  (match !late with
  | Some (Cluster.Rejected _) -> ()
  | _ -> Alcotest.fail "write after shutdown should be rejected");
  rm_rf dir

(* Shard 0 vacuumed offline, as `rta_cli vacuum --wal W.s0` does: a query
   reaching below its horizon is answered [Below_horizon] by a writer
   domain and by a reader domain alike, within a deadline — an escaping
   exception would end the domain and strand the query. *)
let test_below_horizon_answers () =
  let dir = temp_dir () in
  let path = Filename.concat dir "wh" and max_key = 1_000 in
  let e0 = Durable.open_ ~max_key ~path:(path ^ ".s0") () in
  let ok = function Ok _ -> () | Error e -> Alcotest.fail (Storage.Storage_error.to_string e) in
  for i = 0 to 39 do
    ok (Durable.insert e0 ~key:i ~value:(i + 1) ~at:(i + 1))
  done;
  for i = 0 to 19 do
    ok (Durable.delete e0 ~key:i ~at:(50 + i))
  done;
  ok (Durable.vacuum e0 ~max_pages_per_step:8 ~horizon:60);
  Durable.close e0;
  List.iter
    (fun readers ->
      let engines = open_engines ~shards:2 ~max_key path in
      let c = Cluster.create ~config:{ Cluster.default_config with readers } engines in
      let ask ~tlo =
        let got = ref None in
        Cluster.submit_query c ~klo:0 ~khi:max_key ~tlo ~thi:100 (fun r -> got := Some r);
        let deadline = Unix.gettimeofday () +. 10. in
        while !got = None && Unix.gettimeofday () < deadline do
          ignore (Unix.select [ Cluster.wake_fd c ] [] [] 0.05);
          ignore (Cluster.drain c)
        done;
        match !got with
        | Some r -> r
        | None -> Alcotest.failf "readers=%d: query at tlo=%d never answered" readers tlo
      in
      (match ask ~tlo:10 with
      | Error (Cluster.Below_horizon { horizon = 60; _ }) -> ()
      | _ -> Alcotest.failf "readers=%d: below-horizon query not refused" readers);
      (match ask ~tlo:70 with
      | Ok (sum, count) ->
          (* Alive at some instant of [70,100): keys 20..39. *)
          Alcotest.(check int) "count above the horizon" 20 count;
          Alcotest.(check int) "sum above the horizon" (20 * (21 + 40) / 2) sum
      | Error _ -> Alcotest.failf "readers=%d: query above the horizon refused" readers);
      close_cluster c engines)
    [ 0; 1 ];
  rm_rf dir

(* --- Served clusters ---------------------------------------------------------------- *)

(* An in-process server over a cluster, its loop on its own domain so the
   client can block on replies. *)
let with_served ?pool_capacity ~shards ~readers ~max_key k =
  let dir = temp_dir () in
  let engines = open_engines ?pool_capacity ~shards ~max_key (Filename.concat dir "wh") in
  let cluster = Cluster.create ~config:{ Cluster.default_config with readers } engines in
  let sock = Filename.concat dir "s.sock" in
  let srv = Server.create ~cluster ~listen:(Server.listen_unix ~path:sock) () in
  let loop = Domain.spawn (fun () -> while Server.step srv ~timeout:0.05 do () done) in
  let cli = Client.connect_unix ~timeout:10.0 ~path:sock () in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Client.shutdown cli) with _ -> Server.request_shutdown srv);
      Client.close cli;
      Domain.join loop;
      close_cluster cluster engines;
      rm_rf dir)
    (fun () -> k cli)

(* Send [reqs] pipelined 64 deep; every one must be acknowledged. *)
let send_acked cli reqs =
  let rec go = function
    | [] -> ()
    | reqs ->
        let now = List.filteri (fun i _ -> i < 64) reqs in
        List.iter (Client.send cli) now;
        List.iter
          (fun _ ->
            match Client.recv cli with
            | Wire.Ack -> ()
            | r -> Alcotest.failf "write answered %a" Wire.pp_response r)
          now;
        go (List.filteri (fun i _ -> i >= 64) reqs)
  in
  go reqs

(* 450 distinct keys spread over the whole domain: 300 inserts at times
   1..300, the first 150 deleted at 301..450, 150 more inserted at
   451..600 — every shard's clock passes 400. *)
let vacuum_workload ~max_key oracle =
  let key i = i * 7919 mod max_key in
  List.init 300 (fun i -> `Ins (key i, i + 1, i + 1))
  @ List.init 150 (fun i -> `Del (key i, 301 + i))
  @ List.init 150 (fun i -> `Ins (key (300 + i), i + 7, 451 + i))
  |> List.map (function
       | `Ins (key, value, at) ->
           Ref.insert oracle ~key ~value ~at;
           Wire.Insert { key; value; at }
       | `Del (key, at) ->
           Ref.delete oracle ~key ~at;
           Wire.Delete { key; at })

let vacuum_probes ~max_key =
  List.concat_map
    (fun (klo, khi) ->
      List.map (fun (tlo, thi) -> (klo, khi, tlo, thi))
        [ (400, 450); (400, 1000); (420, 601); (500, 700); (0, 1000); (100, 500); (399, 400) ])
    [ (0, max_key); (0, 1000); (950, 2050); (1999, 2001); (2500, max_key) ]

let check_above_horizon ~what ~horizon oracle answer =
  List.iter
    (fun (klo, khi, tlo, thi) ->
      match answer ~klo ~khi ~tlo ~thi with
      | `Agg (sum, count) when tlo >= horizon ->
          let esum = Ref.rta_sum oracle ~klo ~khi ~tlo ~thi in
          let ecount = Ref.rta_count oracle ~klo ~khi ~tlo ~thi in
          if sum <> esum || count <> ecount then
            Alcotest.failf "%s [%d,%d)x[%d,%d): got (%d,%d) want (%d,%d)" what klo khi tlo
              thi sum count esum ecount
      | `Below when tlo < horizon -> ()
      | `Agg _ -> Alcotest.failf "%s [%d,%d)x[%d,%d): answered below the horizon" what klo khi tlo thi
      | `Below -> Alcotest.failf "%s [%d,%d)x[%d,%d): refused above the horizon" what klo khi tlo thi
      | `Other r -> Alcotest.failf "%s: query answered %a" what Wire.pp_response r)
    (vacuum_probes ~max_key:3_000)

let wire_answer cli ~klo ~khi ~tlo ~thi =
  match Client.query cli ~agg:Wire.Sum ~klo ~khi ~tlo ~thi with
  | Wire.Agg { sum; count } -> `Agg (sum, count)
  | Wire.Err { code = Wire.Below_horizon; _ } -> `Below
  | r -> `Other r

(* Vacuum on a live server: the horizon takes on every shard, answers
   above it match the oracle exactly, and queries reaching below it are
   refused — whether writer domains, the one-shard inline writer or
   reader domains serve them. *)
let test_live_vacuum () =
  let max_key = 3_000 in
  List.iter
    (fun (shards, readers) ->
      with_served ~shards ~readers ~max_key @@ fun cli ->
      let oracle = Ref.create () in
      send_acked cli (vacuum_workload ~max_key oracle);
      (match Client.vacuum ~max_pages_per_step:4 cli ~horizon:400 with
      | Wire.Vacuum_reply { v_horizon; v_steps; _ } ->
          Alcotest.(check int) "horizon took" 400 v_horizon;
          Alcotest.(check bool) "every shard stepped" true (v_steps >= shards)
      | r -> Alcotest.failf "vacuum answered %a" Wire.pp_response r);
      (match Client.stats cli with
      | Some s -> Alcotest.(check int) "stats horizon" 400 s.Wire.horizon
      | None -> Alcotest.fail "stats");
      check_above_horizon
        ~what:(Printf.sprintf "shards=%d readers=%d" shards readers)
        ~horizon:400 oracle (wire_answer cli);
      (* Writes go on above the horizon. *)
      send_acked cli [ Wire.Insert { key = 2999; value = 5; at = 700 } ])
    [ (3, 0); (3, 2); (1, 2) ]

(* Page reads under query-only traffic show up in the per-shard rows at
   once: the rows read each engine's live counters, not the stats a
   writer domain publishes after a batch. *)
let test_live_shard_io () =
  let max_key = 100_000 in
  with_served ~pool_capacity:2 ~shards:2 ~readers:0 ~max_key @@ fun cli ->
  send_acked cli
    (List.init 2000 (fun i -> Wire.Insert { key = i * 7919 mod max_key; value = 1; at = i + 1 }));
  let reads () =
    match Client.shard_stats cli with
    | Some rows -> List.fold_left (fun n r -> n + r.Wire.s_io_reads) 0 rows
    | None -> Alcotest.fail "shard stats"
  in
  let before = reads () in
  for i = 0 to 49 do
    match Client.query cli ~agg:Wire.Count ~klo:(i * 1000) ~khi:max_key ~tlo:(i * 10) ~thi:2001 with
    | Wire.Agg _ -> ()
    | r -> Alcotest.failf "query answered %a" Wire.pp_response r
  done;
  let after = reads () in
  if after <= before then
    Alcotest.failf "query-only traffic read no pages: %d before, %d after" before after



(* --- Kill -9 a multi-shard serve --------------------------------------------------- *)

let exe = "../bin/rta_cli.exe"

(* The zero-acked-but-lost contract, per shard: burst pipelined
   writes at `serve --shards 3`, SIGKILL mid-stream, recover each
   shard's independent WAL in-process, and require
       acked_s <= recovered_s <= issued_s
   for every shard — plus exact prefix semantics per shard (each WAL
   replays a prefix of the ops issued to that shard, in order). *)
let test_kill_sharded_server_recovers () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    (* A send after the kill must fail with EPIPE, not end the test. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let dir = temp_dir () in
    let sock = Filename.concat dir "s.sock" in
    let prefix = Filename.concat dir "wh" in
    let max_key = 100_000 and shards = 3 in
    let router = Router.create ~shards ~max_key () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "--wal"; prefix; "--socket"; sock; "--max-key";
           string_of_int max_key; "--shards"; string_of_int shards; "--readers"; "1";
           "--max-batch"; "8" |]
        Unix.stdin null null
    in
    Unix.close null;
    let rec connect n =
      match Client.connect_unix ~path:sock () with
      | cli -> cli
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 100 ->
          Unix.sleepf 0.05;
          connect (n + 1)
    in
    let cli = connect 0 in
    let n = 400 and window = 32 in
    (* Key i goes to shard_of_key i; spread keys over the whole domain
       so every shard sees traffic. *)
    let key_of i = i * 239 mod max_key in
    let issued = Array.make shards 0 and acked = Array.make shards 0 in
    let issued_keys = Array.make shards [] in
    let in_flight = Queue.create () in
    let total_issued = ref 0 and total_acked = ref 0 and killed = ref false in
    (try
       for i = 0 to n - 1 do
         while !total_issued - !total_acked >= window do
           let sh = Queue.pop in_flight in
           match Client.recv cli with
           | Wire.Ack ->
               acked.(sh) <- acked.(sh) + 1;
               incr total_acked
           | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
         done;
         let key = key_of i in
         let sh = Router.shard_of_key router key in
         Client.send cli (Wire.Insert { key; value = i + 1; at = i + 1 });
         Queue.add sh in_flight;
         issued.(sh) <- issued.(sh) + 1;
         issued_keys.(sh) <- key :: issued_keys.(sh);
         incr total_issued;
         if (not !killed) && !total_acked >= 50 then begin
           Unix.kill pid Sys.sigkill;
           killed := true
         end
       done;
       while !total_acked < !total_issued do
         let sh = Queue.pop in_flight in
         match Client.recv cli with
         | Wire.Ack ->
             acked.(sh) <- acked.(sh) + 1;
             incr total_acked
         | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
       done
     with
    | Client.Connection_closed | Client.Protocol_error _ -> ()
    | Unix.Unix_error _ -> ());
    if not !killed then Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Client.close cli;
    Alcotest.(check bool) "the kill landed mid-burst" true (!total_acked < n);
    (* Recover every shard's WAL independently and audit per shard. *)
    for sh = 0 to shards - 1 do
      let eng =
        Durable.open_ ~max_key ~path:(prefix ^ ".s" ^ string_of_int sh) ()
      in
      let rta = Durable.warehouse eng in
      Rta.check_invariants rta;
      let recovered = Rta.n_updates rta in
      if not (acked.(sh) <= recovered) then
        Alcotest.failf "shard %d LOST ACKED WRITES: acked %d > recovered %d" sh acked.(sh)
          recovered;
      if not (recovered <= issued.(sh)) then
        Alcotest.failf "shard %d recovered %d ops but only %d were issued" sh recovered
          issued.(sh);
      (* Prefix semantics per shard: its WAL must hold exactly the first
         [recovered] ops issued to it, so the full-domain COUNT is
         [recovered] and the keys are that issue-order prefix. *)
      let sum, count = Rta.sum_count rta ~klo:0 ~khi:max_key ~tlo:0 ~thi:(n + 1) in
      Alcotest.(check int) (Printf.sprintf "shard %d count is its prefix" sh) recovered count;
      let keys_in_order = List.rev issued_keys.(sh) in
      let expected_alive = List.filteri (fun i _ -> i < recovered) keys_in_order in
      List.iteri
        (fun i key ->
          if i < recovered && not (Rta.is_alive rta ~key) then
            Alcotest.failf "shard %d: prefix key %d missing after recovery" sh key)
        keys_in_order;
      ignore expected_alive;
      ignore sum;
      Durable.close eng
    done;
    rm_rf dir
  end


(* The vacuum ack is a durability claim too: kill -9 a 3-shard serve right
   after it, and recovering each shard's WAL in-process restores the
   horizon on every shard, with the oracle's answers above it. *)
let test_kill_after_vacuum () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let dir = temp_dir () in
    let sock = Filename.concat dir "s.sock" in
    let prefix = Filename.concat dir "wh" in
    let max_key = 3_000 and shards = 3 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "--wal"; prefix; "--socket"; sock; "--max-key";
           string_of_int max_key; "--shards"; string_of_int shards; "--readers"; "1" |]
        Unix.stdin null null
    in
    Unix.close null;
    let rec connect n =
      match Client.connect_unix ~timeout:10.0 ~path:sock () with
      | cli -> cli
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 100 ->
          Unix.sleepf 0.05;
          connect (n + 1)
    in
    let cli = connect 0 in
    let oracle = Ref.create () in
    send_acked cli (vacuum_workload ~max_key oracle);
    (match Client.vacuum ~max_pages_per_step:4 cli ~horizon:400 with
    | Wire.Vacuum_reply { v_horizon = 400; _ } -> ()
    | r -> Alcotest.failf "vacuum answered %a" Wire.pp_response r);
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Client.close cli;
    let engines =
      Array.init shards (fun i ->
          Durable.open_ ~max_key ~path:(Cluster.shard_path prefix ~shards i) ())
    in
    Array.iteri
      (fun i eng ->
        Alcotest.(check int) (Printf.sprintf "shard %d horizon recovered" i) 400
          (Durable.horizon eng))
      engines;
    let router = Router.create ~shards ~max_key () in
    check_above_horizon ~what:"recovered" ~horizon:400 oracle (fun ~klo ~khi ~tlo ~thi ->
        match
          Plan.query router
            (fun ~shard ~klo ~khi -> Durable.sum_count engines.(shard) ~klo ~khi ~tlo ~thi)
            ~klo ~khi
        with
        | sc -> `Agg sc
        | exception Mvsbt.Below_horizon _ -> `Below);
    Array.iter Durable.close engines;
    rm_rf dir
  end

(* --- Suite ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "even split" `Quick test_router_even_split;
          Alcotest.test_case "explicit boundaries" `Quick test_router_explicit_boundaries;
          Alcotest.test_case "parts tile the interval" `Quick test_router_parts_union;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo and close" `Quick test_mailbox_fifo_close;
          Alcotest.test_case "cross-domain" `Quick test_mailbox_cross_domain;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_sharded_equals_oracle;
          QCheck_alcotest.to_alcotest prop_version_skew;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "round trip + recovery" `Quick test_cluster_round_trip;
          Alcotest.test_case "typed rejections" `Quick test_cluster_rejects_bad_ops;
          Alcotest.test_case "below-horizon answers" `Quick test_below_horizon_answers;
          Alcotest.test_case "live vacuum at every shard and reader count" `Quick
            test_live_vacuum;
          Alcotest.test_case "live shard I/O counters" `Quick test_live_shard_io;
        ] );
      ( "crash",
        [
          Alcotest.test_case "kill -9 multi-shard serve" `Quick
            test_kill_sharded_server_recovers;
          Alcotest.test_case "kill -9 after a vacuum ack" `Quick test_kill_after_vacuum;
        ] );
    ]
