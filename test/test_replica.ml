(* WAL shipping, follower reads, and failover: the fencing epoch,
   backlog window, catch-up replay, the live leader/follower pair over
   real sockets (semi-sync deferred acks, read-only followers, explicit
   and automatic promotion), the simulated failover matrix, and a
   kill -9 no-lost-acks round trip against real serve processes. *)

module M = Storage.Vfs.Memory

let temp_dir () =
  let d = Filename.temp_file "rta_replica" ".test" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf d =
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) (Sys.readdir d);
  Unix.rmdir d

let ok = Storage.Storage_error.ok_exn

(* --- Epoch --------------------------------------------------------------------- *)

let test_epoch_roundtrip () =
  let dir = temp_dir () in
  let base = Filename.concat dir "node" in
  Alcotest.(check int) "absent file is epoch 0" 0 (Replica.Epoch.load base);
  Replica.Epoch.store base 3;
  Alcotest.(check int) "stored" 3 (Replica.Epoch.load base);
  Replica.Epoch.store base 7;
  Alcotest.(check int) "overwritten" 7 (Replica.Epoch.load base);
  (* Corruption fails loudly: fencing must never silently read epoch 0. *)
  let oc = open_out_bin (Replica.Epoch.path_of base) in
  output_string oc "garbage";
  close_out oc;
  (match Replica.Epoch.load base with
  | exception Failure _ -> ()
  | e -> Alcotest.failf "corrupt epoch read back as %d" e);
  rm_rf dir

let test_epoch_memory_vfs () =
  let fs = M.create () in
  let vfs = M.vfs fs in
  Alcotest.(check int) "absent" 0 (Replica.Epoch.load ~vfs "n");
  Replica.Epoch.store ~vfs "n" 42;
  Alcotest.(check int) "memory roundtrip" 42 (Replica.Epoch.load ~vfs "n")

(* --- Backlog ------------------------------------------------------------------- *)

let frame seq =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 (Int64.of_int (seq * 31));
  b

let test_backlog_window () =
  let bl = Replica.Backlog.create ~floor:0 () in
  Alcotest.(check int) "empty hi" 0 (Replica.Backlog.hi bl);
  (* An empty backlog re-anchors at the first frame's sequence: the log
     may start past zero (history truncated by a checkpoint). *)
  let bl2 = Replica.Backlog.create ~floor:0 () in
  Replica.Backlog.add bl2 (frame 5);
  Alcotest.(check int) "re-anchored floor" 4 (Replica.Backlog.floor bl2);
  Alcotest.(check int) "re-anchored hi" 5 (Replica.Backlog.hi bl2);
  List.iter (fun s -> Replica.Backlog.add bl (frame s)) [ 1; 2; 3; 4 ];
  (* Duplicates are dropped, a gap is a bug. *)
  Replica.Backlog.add bl (frame 3);
  Alcotest.(check int) "duplicate ignored" 4 (Replica.Backlog.hi bl);
  (match Replica.Backlog.add bl (frame 6) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gap accepted");
  (match Replica.Backlog.from bl ~after:2 ~max_frames:10 ~max_bytes:max_int with
  | Some [ a; b ] ->
      Alcotest.(check int) "serves 3 then 4" 3 (Replica.Backlog.seq_of a);
      Alcotest.(check int) "serves 4" 4 (Replica.Backlog.seq_of b)
  | _ -> Alcotest.fail "window from 2 should hold exactly frames 3 and 4");
  (match Replica.Backlog.from bl ~after:2 ~max_frames:1 ~max_bytes:max_int with
  | Some [ a ] -> Alcotest.(check int) "max_frames cuts" 3 (Replica.Backlog.seq_of a)
  | _ -> Alcotest.fail "max_frames 1 should serve one frame");
  (match Replica.Backlog.from bl ~after:4 ~max_frames:10 ~max_bytes:max_int with
  | Some [] -> ()
  | _ -> Alcotest.fail "caught-up subscriber gets an empty batch");
  (* Eviction advances the floor; a subscriber behind it is refused. *)
  let small = Replica.Backlog.create ~cap:2 ~floor:0 () in
  List.iter (fun s -> Replica.Backlog.add small (frame s)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "cap evicts" 2 (Replica.Backlog.floor small);
  Alcotest.(check int) "evicted count" 2 (Replica.Backlog.evicted small);
  (match Replica.Backlog.from small ~after:1 ~max_frames:10 ~max_bytes:max_int with
  | None -> ()
  | Some _ -> Alcotest.fail "subscriber behind the floor must be refused");
  (* The byte budget never starves the head: a frame bigger than
     max_bytes is served alone, so the subscriber always progresses. *)
  let wide = Replica.Backlog.create ~floor:10 () in
  let big = Bytes.make 64 '\xab' in
  Bytes.set_int64_le big 0 11L;
  Replica.Backlog.add wide big;
  Replica.Backlog.add wide (frame 12);
  (match Replica.Backlog.from wide ~after:10 ~max_frames:10 ~max_bytes:16 with
  | Some [ a ] -> Alcotest.(check int) "oversized head served alone" 11 (Replica.Backlog.seq_of a)
  | _ -> Alcotest.fail "an oversized head frame must be served alone");
  (match Replica.Backlog.from wide ~after:11 ~max_frames:10 ~max_bytes:16 with
  | Some [ a ] -> Alcotest.(check int) "next frame after the big one" 12 (Replica.Backlog.seq_of a)
  | _ -> Alcotest.fail "the frame after an oversized one must still be served")

(* --- Apply: tail-to-engine replay over Memory vfs ------------------------------- *)

(* Every kind of WAL record decodes to what was encoded; a record cut
   anywhere short of its end, or carrying an unknown opcode, is
   [Rejected] by a follower, its engine untouched. *)
let prop_record_codec =
  let gen_record =
    QCheck.Gen.(
      oneof
        [ map3 (fun key value at -> Durable.Insert { key; value; at }) int int int;
          map2 (fun key at -> Durable.Delete { key; at }) int int;
          map (fun horizon -> Durable.Vacuum_begin { horizon }) int;
          map2
            (fun horizon actions -> Durable.Vacuum_chunk { horizon; actions })
            int
            (list_size (int_bound 12)
               (map3
                  (fun lkst va_free va_pid ->
                    { Rta.va_side = (if lkst then Rta.Lkst else Rta.Lklt); va_free; va_pid })
                  bool bool int)) ])
  in
  let eng = Durable.open_ ~vfs:(M.vfs (M.create ())) ~max_key:100 ~path:"codec" () in
  let rejected payload =
    match Replica.Apply.replay eng payload with Replica.Apply.Rejected _ -> true | _ -> false
  in
  QCheck.Test.make ~name:"records round-trip; a cut or an unknown opcode is rejected"
    ~count:300
    (QCheck.make QCheck.Gen.(quad int gen_record (float_bound_exclusive 1.) (int_range 5 255)))
    (fun (seq, record, at, op) ->
      let buf, len = Durable.encode_record ~seq record in
      let unknown = Bytes.sub buf 0 len in
      Bytes.set_uint8 unknown 8 op;
      Durable.decode_record (Storage.Codec.Reader.create ~len buf) = (seq, record)
      && Durable.record_seq buf = seq
      && rejected (Bytes.sub buf 0 (int_of_float (at *. float_of_int len)))
      && rejected unknown
      && Rta.n_updates (Durable.warehouse eng) = 0)

let test_apply_replay () =
  let lfs = M.create () in
  let lvfs = M.vfs lfs in
  let leng = Durable.open_ ~sync_policy:Wal.Always ~vfs:lvfs ~max_key:100 ~path:"lead" () in
  ok (Durable.insert leng ~key:1 ~value:10 ~at:1);
  ok (Durable.insert leng ~key:2 ~value:20 ~at:2);
  ok (Durable.delete leng ~key:1 ~at:3);
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
  Alcotest.(check int) "one frame per update" 3 (List.length frames);
  let ffs = M.create () in
  let feng =
    Durable.open_ ~sync_policy:Wal.Never ~vfs:(M.vfs ffs) ~max_key:100 ~path:"fol" ()
  in
  List.iter
    (fun p ->
      match Replica.Apply.replay feng p with
      | Replica.Apply.Applied _ -> ()
      | o -> Alcotest.failf "replay: %a" Replica.Apply.pp_outcome o)
    frames;
  Alcotest.(check int) "watermark" 3 (Replica.Apply.watermark feng);
  (* A resent frame is idempotent; skipping ahead is a gap. *)
  (match Replica.Apply.replay feng (List.hd frames) with
  | Replica.Apply.Skipped -> ()
  | o -> Alcotest.failf "duplicate should skip, got %a" Replica.Apply.pp_outcome o);
  ok (Durable.insert leng ~key:5 ~value:50 ~at:5);
  ok (Durable.insert leng ~key:6 ~value:60 ~at:6);
  let f4 =
    match Wal.Tail.poll tail with Wal.Tail.Frame p -> p | _ -> Alcotest.fail "no frame 4"
  in
  let f5 =
    match Wal.Tail.poll tail with Wal.Tail.Frame p -> p | _ -> Alcotest.fail "no frame 5"
  in
  (match Replica.Apply.replay feng f5 with
  | Replica.Apply.Gap { expect = 4; got = 5 } -> ()
  | o -> Alcotest.failf "gap not detected: %a" Replica.Apply.pp_outcome o);
  (match Replica.Apply.replay feng f4 with
  | Replica.Apply.Applied 4 -> ()
  | o -> Alcotest.failf "frame 4: %a" Replica.Apply.pp_outcome o);
  (* The follower's own queries match the leader's at the watermark. *)
  ignore (Replica.Apply.replay feng f5);
  Alcotest.(check (pair int int)) "query parity"
    (Durable.sum_count leng ~klo:0 ~khi:100 ~tlo:0 ~thi:100)
    (Durable.sum_count feng ~klo:0 ~khi:100 ~tlo:0 ~thi:100);
  Wal.Tail.close tail;
  Durable.close leng;
  Durable.close feng

(* --- Live pair over real sockets ------------------------------------------------ *)

(* A node: the engine behind a one-shard cluster behind a server. *)
let serve eng ~sock =
  Server.create ~cluster:(Shard.Cluster.create [| eng |]) ~listen:(Server.listen_unix ~path:sock) ()

(* Each server runs its select loop on its own domain; the test talks to
   both only through client sockets, exactly like external processes. *)
let spawn_loop srv = Domain.spawn (fun () -> while Server.step srv ~timeout:0.02 do () done)

let readable ?(timeout = 0.0) fd =
  match Unix.select [ fd ] [] [] timeout with r, _, _ -> r <> []

let rec await ?(tries = 400) ~what p =
  if tries <= 0 then Alcotest.failf "timed out waiting for %s" what
  else if not (p ()) then begin
    Unix.sleepf 0.02;
    await ~tries:(tries - 1) ~what p
  end

let expect_ack name = function
  | Wire.Ack -> ()
  | r -> Alcotest.failf "%s: expected ack, got %a" name Wire.pp_response r

let test_live_pair () =
  let dir = temp_dir () in
  let lsock = Filename.concat dir "l.sock" in
  let fsock = Filename.concat dir "f.sock" in
  let lead = Filename.concat dir "lead" in
  let fol = Filename.concat dir "fol" in
  let leng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:lead () in
  let lsrv = serve leng ~sock:lsock in
  let hub =
    Replica.Hub.create ~metrics:(Server.metrics lsrv) ~sync_replicas:1 ~heartbeat_s:0.01
      ~path:lead leng
  in
  Replica.Hub.attach hub lsrv;
  let ldom = spawn_loop lsrv in
  let lcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  (* Semi-sync with no follower yet: strict semantics, the ack stalls. *)
  Client.send lcli (Wire.Insert { key = 1; value = 10; at = 1 });
  Unix.sleepf 0.15;
  Alcotest.(check bool) "ack deferred until a follower acks" false
    (readable (Client.fd lcli));
  (* Attach a follower: its server loop runs on another domain. *)
  let feng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:fol () in
  let fsrv = serve feng ~sock:fsock in
  let fcfg =
    { (Replica.Follower.default_config (Replica.Follower.Unix_sock lsock)) with
      Replica.Follower.heartbeat_s = 0.01;
      failover_s = 60.0 (* the leader lives; never fail over in this test *) }
  in
  let _fol = Replica.Follower.create ~config:fcfg ~path:fol ~server:fsrv feng in
  let fdom = spawn_loop fsrv in
  (* The stalled write completes once the follower replays and acks it. *)
  expect_ack "first semi-sync write" (Client.recv lcli);
  for i = 2 to 20 do
    expect_ack "semi-sync write" (Client.insert lcli ~key:i ~value:(10 * i) ~at:i)
  done;
  let fcli = Client.connect_unix ~timeout:10.0 ~path:fsock () in
  (* Follower reads serve at the replayed watermark. *)
  await ~what:"follower catch-up" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_durable = 20
      | None -> false);
  (* Replay goes straight into the follower's engine, and its stats move
     with it. *)
  (match Client.stats fcli with
  | Some s -> Alcotest.(check int) "follower stats updates" 20 s.Wire.updates
  | None -> Alcotest.fail "follower stats");
  (match Client.query fcli ~agg:Wire.Sum ~klo:0 ~khi:1000 ~tlo:0 ~thi:1000 with
  | Wire.Agg { sum; count } ->
      Alcotest.(check int) "follower count" 20 count;
      Alcotest.(check int) "follower sum" (10 * (20 * 21 / 2)) sum
  | r -> Alcotest.failf "follower query answered %a" Wire.pp_response r);
  (* The follower's write path is closed with the Read_only taxonomy. *)
  (match Client.insert fcli ~key:999 ~value:1 ~at:99 with
  | Wire.Err { code = Wire.Read_only; _ } -> ()
  | r -> Alcotest.failf "follower write answered %a" Wire.pp_response r);
  (* Retention is the leader's: it reaches followers through the WAL. *)
  (match Client.vacuum fcli ~horizon:5 with
  | Wire.Err { code = Wire.Invalid_request; _ } -> ()
  | r -> Alcotest.failf "follower vacuum answered %a" Wire.pp_response r);
  (* Stats from both sides of the link. *)
  (match Client.replica_stats lcli with
  | Some s ->
      Alcotest.(check bool) "leader role" true (s.Wire.r_role = Wire.R_leader);
      Alcotest.(check int) "leader durable" 20 s.Wire.r_durable;
      Alcotest.(check int) "leader commit" 20 s.Wire.r_commit;
      Alcotest.(check int) "one follower" 1 (List.length s.Wire.r_followers);
      Alcotest.(check bool) "frames shipped" true (s.Wire.r_frames_shipped >= 20)
  | None -> Alcotest.fail "leader replica stats");
  (match Client.replica_stats fcli with
  | Some s ->
      Alcotest.(check bool) "follower role" true (s.Wire.r_role = Wire.R_follower);
      Alcotest.(check bool) "frames replayed" true (s.Wire.r_frames_replayed >= 20);
      Alcotest.(check int) "no promotions yet" 0 s.Wire.r_promotions
  | None -> Alcotest.fail "follower replica stats");
  (* A subscriber claiming history ahead of the leader's durable
     watermark holds a divergent suffix: refused for re-bootstrap, never
     attached (it must not vouch for records it does not have). *)
  let dcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  (match Client.call dcli (Wire.Wal_subscribe { epoch = 0; from_seq = 999 }) with
  | Wire.Err { code = Wire.Rebootstrap; _ } -> ()
  | r -> Alcotest.failf "divergent subscriber answered %a" Wire.pp_response r);
  Client.close dcli;
  (* A fenced subscription: a subscriber claiming a newer term exposes
     this leader as deposed. *)
  let xcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  (match Client.call xcli (Wire.Wal_subscribe { epoch = 5; from_seq = 0 }) with
  | Wire.Err { code = Wire.Fenced; _ } -> ()
  | r -> Alcotest.failf "stale leader not fenced: %a" Wire.pp_response r);
  Client.close xcli;
  (* The deposed leader steps down on that evidence: writes bounce with
     the read-only taxonomy while queries keep serving. *)
  (match Client.insert lcli ~key:998 ~value:1 ~at:98 with
  | Wire.Err { code = Wire.Read_only; _ } -> ()
  | r -> Alcotest.failf "deposed leader write answered %a" Wire.pp_response r);
  (match Client.query lcli ~agg:Wire.Count ~klo:0 ~khi:1000 ~tlo:0 ~thi:1000 with
  | Wire.Agg { count; _ } -> Alcotest.(check int) "deposed leader still serves reads" 20 count
  | r -> Alcotest.failf "deposed leader query answered %a" Wire.pp_response r);
  (* Explicit promotion opens the follower's write path under a new
     durably-stored epoch. *)
  expect_ack "promote" (Client.promote fcli);
  await ~what:"promotion" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_role = Wire.R_leader
      | None -> false);
  expect_ack "write after promotion" (Client.insert fcli ~key:500 ~value:1 ~at:50);
  (match Client.replica_stats fcli with
  | Some s ->
      Alcotest.(check int) "epoch bumped" 1 s.Wire.r_epoch;
      Alcotest.(check int) "promotion counted" 1 s.Wire.r_promotions
  | None -> Alcotest.fail "promoted replica stats");
  Alcotest.(check int) "epoch persisted" 1 (Replica.Epoch.load fol);
  (* Drain both loops. *)
  ignore (Client.shutdown fcli);
  ignore (Client.shutdown lcli);
  Client.close fcli;
  Client.close lcli;
  Domain.join ldom;
  Domain.join fdom;
  Shard.Cluster.shutdown (Server.cluster lsrv);
  Shard.Cluster.shutdown (Server.cluster fsrv);
  Durable.close leng;
  Durable.close feng;
  rm_rf dir

let test_auto_promotion () =
  let dir = temp_dir () in
  let lsock = Filename.concat dir "l.sock" in
  let fsock = Filename.concat dir "f.sock" in
  let lead = Filename.concat dir "lead" in
  let fol = Filename.concat dir "fol" in
  let leng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:lead () in
  let lsrv = serve leng ~sock:lsock in
  let hub =
    Replica.Hub.create ~metrics:(Server.metrics lsrv) ~sync_replicas:0 ~heartbeat_s:0.01
      ~path:lead leng
  in
  Replica.Hub.attach hub lsrv;
  let ldom = spawn_loop lsrv in
  let lcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  for i = 1 to 8 do
    expect_ack "leader write" (Client.insert lcli ~key:i ~value:i ~at:i)
  done;
  let feng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:fol () in
  let fsrv = serve feng ~sock:fsock in
  let fcfg =
    { (Replica.Follower.default_config (Replica.Follower.Unix_sock lsock)) with
      Replica.Follower.heartbeat_s = 0.01;
      failover_s = 0.1;
      retry =
        { Storage.Retry.default with max_attempts = 2; base_delay_s = 0.02;
          max_delay_s = 0.05 } }
  in
  let _f = Replica.Follower.create ~config:fcfg ~path:fol ~server:fsrv feng in
  let fdom = spawn_loop fsrv in
  let fcli = Client.connect_unix ~timeout:10.0 ~path:fsock () in
  await ~what:"follower catch-up" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_durable = 8
      | None -> false);
  (* Kill the leader (drain its loop, sockets close) and wait for the
     failure detector + retry budget to promote the follower. *)
  ignore (Client.shutdown lcli);
  Client.close lcli;
  Domain.join ldom;
  await ~what:"auto-promotion" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_role = Wire.R_leader
      | None -> false);
  (* Everything the old leader durably served survives, and the write
     path is open under the bumped epoch. *)
  (match Client.query fcli ~agg:Wire.Count ~klo:0 ~khi:1000 ~tlo:0 ~thi:1000 with
  | Wire.Agg { count; _ } -> Alcotest.(check int) "no replayed write lost" 8 count
  | r -> Alcotest.failf "promoted query answered %a" Wire.pp_response r);
  expect_ack "write after auto-promotion" (Client.insert fcli ~key:900 ~value:9 ~at:90);
  Alcotest.(check int) "epoch persisted" 1 (Replica.Epoch.load fol);
  ignore (Client.shutdown fcli);
  Client.close fcli;
  Domain.join fdom;
  Shard.Cluster.shutdown (Server.cluster lsrv);
  Shard.Cluster.shutdown (Server.cluster fsrv);
  Durable.close leng;
  Durable.close feng;
  rm_rf dir

(* A live, refusing upstream must never be mistaken for a dead one: a
   refusal resets the retry budget, and a Fenced refusal parks the
   follower instead of letting it self-promote next to a live leader
   (split brain).  Only an operator promotes it out of the park. *)
let test_park_on_refusal () =
  let dir = temp_dir () in
  let lsock = Filename.concat dir "l.sock" in
  let fsock = Filename.concat dir "f.sock" in
  let lead = Filename.concat dir "lead" in
  let fol = Filename.concat dir "fol" in
  let leng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:lead () in
  let lsrv = serve leng ~sock:lsock in
  let hub =
    Replica.Hub.create ~metrics:(Server.metrics lsrv) ~sync_replicas:0 ~heartbeat_s:0.01
      ~path:lead leng
  in
  Replica.Hub.attach hub lsrv;
  let ldom = spawn_loop lsrv in
  let lcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  expect_ack "leader write" (Client.insert lcli ~key:1 ~value:1 ~at:1);
  (* A follower with a hair-trigger failure detector and a tiny retry
     budget: were refusals still counted as unreachability, it would
     self-promote almost immediately. *)
  let feng = Durable.open_ ~sync_policy:Wal.Never ~max_key:1000 ~path:fol () in
  let fsrv = serve feng ~sock:fsock in
  let fcfg =
    { (Replica.Follower.default_config (Replica.Follower.Unix_sock lsock)) with
      Replica.Follower.heartbeat_s = 0.01;
      failover_s = 0.05;
      retry =
        { Storage.Retry.default with max_attempts = 2; base_delay_s = 0.01;
          max_delay_s = 0.02 } }
  in
  let f = Replica.Follower.create ~config:fcfg ~path:fol ~server:fsrv feng in
  let fdom = spawn_loop fsrv in
  let fcli = Client.connect_unix ~timeout:10.0 ~path:fsock () in
  await ~what:"follower sync" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_durable = 1
      | None -> false);
  (* Depose the leader: it steps down and cuts the follower loose. *)
  let xcli = Client.connect_unix ~timeout:10.0 ~path:lsock () in
  (match Client.call xcli (Wire.Wal_subscribe { epoch = 9; from_seq = 1 }) with
  | Wire.Err { code = Wire.Fenced; _ } -> ()
  | r -> Alcotest.failf "fencing subscribe answered %a" Wire.pp_response r);
  Client.close xcli;
  (* The follower's failure detector fires, it resubscribes, and the
     live (deposed) leader refuses it: parked. *)
  await ~what:"the refusal to park the follower" (fun () ->
      Replica.Follower.parked f <> None);
  (* Many failover thresholds and retry budgets later: still a follower. *)
  Unix.sleepf 0.5;
  (match Client.replica_stats fcli with
  | Some s ->
      Alcotest.(check bool) "refused follower stays a follower" true
        (s.Wire.r_role = Wire.R_follower);
      Alcotest.(check int) "no self-promotion against a live upstream" 0
        s.Wire.r_promotions
  | None -> Alcotest.fail "follower stats");
  (* The operator overrides the park. *)
  expect_ack "operator promote" (Client.promote fcli);
  await ~what:"operator promotion" (fun () ->
      match Client.replica_stats fcli with
      | Some s -> s.Wire.r_role = Wire.R_leader
      | None -> false);
  expect_ack "write after operator promote" (Client.insert fcli ~key:2 ~value:2 ~at:2);
  ignore (Client.shutdown fcli);
  ignore (Client.shutdown lcli);
  Client.close fcli;
  Client.close lcli;
  Domain.join ldom;
  Domain.join fdom;
  Alcotest.(check bool) "promotion cleared the park" true
    (Replica.Follower.parked f = None);
  Shard.Cluster.shutdown (Server.cluster lsrv);
  Shard.Cluster.shutdown (Server.cluster fsrv);
  Durable.close leng;
  Durable.close feng;
  rm_rf dir

(* --- The failover matrix --------------------------------------------------------- *)

let test_failover_matrix () =
  let spec =
    { Faultsim.Failover.default_spec with Faultsim.Failover.updates = 48; batch = 4 }
  in
  let r = Faultsim.Failover.run spec in
  let count = Faultsim.Scenario.count r in
  Alcotest.(check int) "violations"
    0 (List.length r.Faultsim.Scenario.violations);
  Alcotest.(check int) "all kill points checked" 72 (count "kill states");
  Alcotest.(check bool) "deposed images audited" true (count "deposed-leader images" > 0);
  Alcotest.(check bool) "stale frames fenced" true (count "fenced" > 0);
  Alcotest.(check bool) "acks were in flight" true (count "max acked" > 0)

(* Any op sequence x any kill point: the promoted follower equals the
   oracle restricted to the acked-or-better prefix, and no acked write is
   lost.  Randomizes the script seed, batching, and quorum. *)
let prop_failover_no_lost_acks =
  QCheck.Test.make ~name:"failover matrix: random script x every kill point" ~count:8
    QCheck.(triple small_nat (int_range 1 6) (int_range 1 2))
    (fun (seed, batch, sync_replicas) ->
      let spec =
        { Faultsim.Failover.default_spec with
          Faultsim.Failover.seed = seed + 100;
          updates = 30;
          batch;
          sync_replicas }
      in
      let r = Faultsim.Failover.run spec in
      r.Faultsim.Scenario.violations = [])

(* --- Kill -9 the leader process: no acked write may be lost ---------------------- *)

let exe = "../bin/rta_cli.exe"

let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null in
  Unix.close null;
  pid

let rec connect_retry ?(n = 0) sock =
  match Client.connect_unix ~timeout:10.0 ~path:sock () with
  | cli -> cli
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 200 ->
      Unix.sleepf 0.05;
      connect_retry ~n:(n + 1) sock

let test_kill9_failover () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir () in
    let lsock = Filename.concat dir "l.sock" in
    let fsock = Filename.concat dir "f.sock" in
    let lpid =
      spawn
        [ "serve"; "--wal"; Filename.concat dir "lead"; "--socket"; lsock; "--max-key";
          "100000"; "--max-batch"; "8"; "--sync-replicas"; "1"; "--heartbeat-ms"; "20" ]
    in
    let fpid =
      spawn
        [ "serve"; "--wal"; Filename.concat dir "fol"; "--socket"; fsock; "--max-key";
          "100000"; "--follower-of"; lsock; "--heartbeat-ms"; "20"; "--failover-ms";
          "150" ]
    in
    let lcli = connect_retry lsock in
    let fcli = connect_retry fsock in
    (* Wait for the subscription: with sync_replicas 1 nothing acks
       before the follower is on the wire. *)
    await ~what:"subscription" (fun () ->
        match Client.replica_stats lcli with
        | Some s -> s.Wire.r_followers <> []
        | None -> false);
    (* Pipeline a burst; SIGKILL the leader mid-stream.  Every ack now
       certifies leader fsync AND follower replay+fsync. *)
    let n = 400 and window = 32 in
    let issued = ref 0 and acked = ref 0 and killed = ref false in
    (try
       for i = 1 to n do
         while !issued - !acked >= window do
           match Client.recv lcli with
           | Wire.Ack -> incr acked
           | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
         done;
         Client.send lcli (Wire.Insert { key = i; value = i; at = i });
         incr issued;
         if (not !killed) && !acked >= 50 then begin
           Unix.kill lpid Sys.sigkill;
           killed := true
         end
       done;
       while !acked < !issued do
         match Client.recv lcli with
         | Wire.Ack -> incr acked
         | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
       done
     with
    | Client.Connection_closed | Client.Protocol_error _ | Client.Timeout _ -> ()
    | Unix.Unix_error _ -> ());
    if not !killed then Unix.kill lpid Sys.sigkill;
    ignore (Unix.waitpid [] lpid);
    Client.close lcli;
    Alcotest.(check bool) "the kill landed mid-burst" true (!acked < n);
    Alcotest.(check bool) "some writes were acked" true (!acked > 0);
    (* The follower loses its leader, burns its retry budget, and
       promotes itself. *)
    await ~tries:1000 ~what:"auto-promotion" (fun () ->
        match Client.replica_stats fcli with
        | Some s -> s.Wire.r_role = Wire.R_leader
        | None -> false);
    (* The audit: op i inserted key i with value i at time i, so the
       promoted node must hold an exact prefix of at least every acked
       write — count r in [acked, issued], sum r(r+1)/2. *)
    let sum, count =
      match Client.query fcli ~agg:Wire.Sum ~klo:0 ~khi:100000 ~tlo:0 ~thi:1000000 with
      | Wire.Agg { sum; count } -> (sum, count)
      | r -> Alcotest.failf "promoted query answered %a" Wire.pp_response r
    in
    if count < !acked then
      Alcotest.failf "LOST ACKED WRITES: acked %d, promoted follower holds %d" !acked count;
    if count > !issued then
      Alcotest.failf "follower holds %d writes but only %d were issued" count !issued;
    Alcotest.(check int) "exact prefix" (count * (count + 1) / 2) sum;
    (* The promoted node serves writes. *)
    expect_ack "write on the promoted node"
      (Client.insert fcli ~key:99999 ~value:1 ~at:1000001);
    ignore (Client.shutdown fcli);
    Client.close fcli;
    ignore (Unix.waitpid [] fpid);
    rm_rf dir
  end

(* --- Suite ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "replica"
    [
      ( "epoch",
        [
          Alcotest.test_case "roundtrip and corruption" `Quick test_epoch_roundtrip;
          Alcotest.test_case "memory vfs" `Quick test_epoch_memory_vfs;
        ] );
      ("backlog", [ Alcotest.test_case "window discipline" `Quick test_backlog_window ]);
      ( "apply",
        [ Alcotest.test_case "tail-to-engine replay" `Quick test_apply_replay;
          QCheck_alcotest.to_alcotest prop_record_codec ] );
      ( "live",
        [
          Alcotest.test_case "leader/follower pair over sockets" `Quick test_live_pair;
          Alcotest.test_case "auto-promotion on leader death" `Quick test_auto_promotion;
          Alcotest.test_case "refusal by a live upstream parks, never promotes" `Quick
            test_park_on_refusal;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "every boundary, zero violations" `Quick test_failover_matrix;
          QCheck_alcotest.to_alcotest prop_failover_no_lost_acks;
        ] );
      ( "process",
        [ Alcotest.test_case "kill -9 leader, promoted follower keeps every acked write"
            `Quick test_kill9_failover ] );
    ]
