(* The network query service: wire-codec round trips, adversarial frame
   decoding, group-commit batching, response ordering, admission control,
   read-only routing, graceful drain, and a kill -9 crash-recovery round
   trip against a real serve process. *)

module E = Storage.Storage_error

let temp_dir () =
  let d = Filename.temp_file "rta_server" ".test" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf d =
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) (Sys.readdir d);
  Unix.rmdir d

(* --- Wire codec: encode . decode = id ------------------------------------------ *)

let gen_agg = QCheck.Gen.oneofl [ Wire.Sum; Wire.Count; Wire.Avg ]
let gen_health = QCheck.Gen.oneofl [ Durable.Healthy; Durable.Degraded; Durable.Read_only ]

let gen_i =
  (* Mix small values with the full 63-bit range: the codec must carry both. *)
  QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ 0; 1; -1; max_int; min_int ] ])

let gen_code =
  QCheck.Gen.oneofl
    [ Wire.Bad_request; Wire.Invalid_request; Wire.Overloaded; Wire.Read_only;
      Wire.Write_failed; Wire.Shutting_down; Wire.Fenced; Wire.Rebootstrap;
      Wire.Below_horizon ]

(* The encoder truncates details beyond 512 bytes, so stay within it to
   keep the round trip exact. *)
let gen_detail = QCheck.Gen.(string_size ~gen:char (int_bound 512))

let gen_request =
  let open QCheck.Gen in
  oneof
    [ (gen_agg >>= fun agg ->
       gen_i >>= fun klo ->
       gen_i >>= fun khi ->
       gen_i >>= fun tlo ->
       gen_i >>= fun thi -> return (Wire.Query { agg; klo; khi; tlo; thi }));
      (gen_i >>= fun key ->
       gen_i >>= fun value ->
       gen_i >>= fun at -> return (Wire.Insert { key; value; at }));
      (gen_i >>= fun key -> gen_i >>= fun at -> return (Wire.Delete { key; at }));
      (gen_i >>= fun epoch ->
       gen_i >>= fun from_seq -> return (Wire.Wal_subscribe { epoch; from_seq }));
      (gen_i >>= fun epoch -> gen_i >>= fun seq -> return (Wire.Wal_ack { epoch; seq }));
      (gen_i >>= fun horizon ->
       gen_i >>= fun max_pages_per_step ->
       return (Wire.Vacuum { horizon; max_pages_per_step }));
      oneofl
        [ Wire.Checkpoint; Wire.Stats; Wire.Health; Wire.Ping; Wire.Shutdown;
          Wire.Shard_stats; Wire.Replica_stats; Wire.Promote; Wire.Observe ] ]

let gen_stats =
  let open QCheck.Gen in
  gen_i >>= fun updates ->
  gen_i >>= fun alive ->
  gen_i >>= fun pages ->
  gen_i >>= fun now ->
  gen_health >>= fun health ->
  gen_i >>= fun queue_depth ->
  gen_i >>= fun in_flight ->
  gen_i >>= fun conns ->
  gen_i >>= fun requests ->
  gen_i >>= fun shed ->
  gen_i >>= fun batches ->
  gen_i >>= fun batched_writes ->
  gen_i >>= fun wal_syncs ->
  gen_i >>= fun horizon ->
  gen_i >>= fun pages_reclaimed ->
  gen_i >>= fun vacuum_steps ->
  return
    { Wire.updates; alive; pages; now; health; queue_depth; in_flight; conns; requests;
      shed; batches; batched_writes; wal_syncs; horizon; pages_reclaimed; vacuum_steps }

let gen_shard_stat =
  let open QCheck.Gen in
  int_bound 1000 >>= fun shard ->
  gen_i >>= fun s_klo ->
  gen_i >>= fun s_khi ->
  gen_i >>= fun watermark ->
  gen_i >>= fun reader_watermark ->
  gen_i >>= fun s_now ->
  gen_i >>= fun s_alive ->
  gen_i >>= fun s_queue ->
  gen_i >>= fun s_batches ->
  gen_i >>= fun s_acked ->
  gen_i >>= fun s_wal_syncs ->
  gen_health >>= fun s_health ->
  gen_i >>= fun s_io_reads ->
  gen_i >>= fun s_io_writes ->
  gen_i >>= fun s_io_syncs ->
  return
    { Wire.shard; s_klo; s_khi; watermark; reader_watermark; s_now; s_alive; s_queue;
      s_batches; s_acked; s_wal_syncs; s_health; s_io_reads; s_io_writes; s_io_syncs }

let gen_role = QCheck.Gen.oneofl [ Wire.R_single; Wire.R_leader; Wire.R_follower ]

let gen_replica_stats =
  let open QCheck.Gen in
  gen_role >>= fun r_role ->
  gen_i >>= fun r_epoch ->
  gen_i >>= fun r_durable ->
  gen_i >>= fun r_commit ->
  gen_i >>= fun r_leader_durable ->
  gen_i >>= fun r_lag ->
  gen_i >>= fun r_frames_shipped ->
  gen_i >>= fun r_frames_replayed ->
  gen_i >>= fun r_promotions ->
  list_size (int_bound 6) (pair gen_i gen_i) >>= fun r_followers ->
  return
    { Wire.r_role; r_epoch; r_durable; r_commit; r_leader_durable; r_lag;
      r_frames_shipped; r_frames_replayed; r_promotions; r_followers }

(* Shipped frames are opaque byte strings to the codec — including bytes
   that look like CRC framing, but never empty: a real WAL record always
   carries its header, and the decoder rejects zero-length records. *)
let gen_frame =
  QCheck.Gen.(
    string_size ~gen:char (int_range 1 80) >>= fun s -> return (Bytes.of_string s))

let gen_response =
  let open QCheck.Gen in
  oneof
    [ (gen_i >>= fun sum -> gen_i >>= fun count -> return (Wire.Agg { sum; count }));
      return Wire.Ack;
      (gen_code >>= fun code ->
       gen_detail >>= fun detail -> return (Wire.Err { code; detail }));
      (gen_stats >>= fun s -> return (Wire.Stats_reply s));
      (gen_health >>= fun h -> return (Wire.Health_reply h));
      return Wire.Pong;
      (list_size (int_bound 8) gen_shard_stat >>= fun l ->
       return (Wire.Shard_stats_reply l));
      (gen_i >>= fun epoch ->
       gen_i >>= fun floor ->
       gen_i >>= fun durable -> return (Wire.Sub_ok { epoch; floor; durable }));
      (gen_i >>= fun epoch ->
       gen_i >>= fun durable ->
       gen_i >>= fun commit ->
       list_size (int_bound 8) gen_frame >>= fun frames ->
       return (Wire.Wal_frames { epoch; durable; commit; frames }));
      (gen_replica_stats >>= fun r -> return (Wire.Replica_stats_reply r));
      (gen_detail >>= fun doc -> return (Wire.Observe_reply doc));
      (gen_i >>= fun v_horizon ->
       gen_i >>= fun v_steps ->
       gen_i >>= fun v_pages_freed ->
       gen_i >>= fun v_pages_pruned ->
       gen_i >>= fun v_records_dropped ->
       return
         (Wire.Vacuum_reply
            { v_horizon; v_steps; v_pages_freed; v_pages_pruned; v_records_dropped })) ]

let arbitrary_request = QCheck.make ~print:(Format.asprintf "%a" Wire.pp_request) gen_request
let arbitrary_response =
  QCheck.make ~print:(Format.asprintf "%a" Wire.pp_response) gen_response

(* Round trip plus framing discipline: every strict prefix is Incomplete
   (never an error, never a short parse), and trailing bytes of a next
   frame are left untouched. *)
let roundtrip encode decode eq msg =
  let b = encode msg in
  let n = Bytes.length b in
  (match decode ~buf:b ~pos:0 ~avail:n with
  | Wire.Complete (got, used) -> eq got msg && used = n
  | _ -> false)
  && (let padded = Bytes.cat b (Bytes.make 7 '\xAA') in
      match decode ~buf:padded ~pos:0 ~avail:(n + 7) with
      | Wire.Complete (got, used) -> eq got msg && used = n
      | _ -> false)
  &&
  let rec prefixes_ok avail =
    avail >= n
    || (match decode ~buf:b ~pos:0 ~avail with Wire.Incomplete -> true | _ -> false)
       && prefixes_ok (avail + 1)
  in
  prefixes_ok 0

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode . decode = id (all prefixes Incomplete)"
    ~count:500 arbitrary_request
    (roundtrip Wire.encode_request Wire.decode_request ( = ))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode . decode = id (all prefixes Incomplete)"
    ~count:500 arbitrary_response
    (roundtrip Wire.encode_response Wire.decode_response ( = ))

(* v2 traced frames: the id survives the round trip, an untraced (v1)
   frame reads back as [None], and a trace-blind decoder still accepts a
   v2 frame — the version negotiation that keeps old peers working. *)
let prop_traced_request_roundtrip =
  QCheck.Test.make ~name:"traced request round-trips id; v1 decoders skip it" ~count:300
    QCheck.(pair arbitrary_request (QCheck.make gen_i))
    (fun (req, id) ->
      let trace = Int64.of_int id in
      let b = Wire.encode_request ~trace req in
      let n = Bytes.length b in
      (match Wire.decode_request_traced ~buf:b ~pos:0 ~avail:n with
      | Wire.Complete ((got, Some t), used) -> got = req && t = trace && used = n
      | _ -> false)
      && (match Wire.decode_request ~buf:b ~pos:0 ~avail:n with
         | Wire.Complete (got, used) -> got = req && used = n
         | _ -> false)
      &&
      let b1 = Wire.encode_request req in
      match Wire.decode_request_traced ~buf:b1 ~pos:0 ~avail:(Bytes.length b1) with
      | Wire.Complete ((got, None), used) -> got = req && used = Bytes.length b1
      | _ -> false)

let prop_traced_response_roundtrip =
  QCheck.Test.make ~name:"traced response round-trips id; v1 decoders skip it" ~count:300
    QCheck.(pair arbitrary_response (QCheck.make gen_i))
    (fun (resp, id) ->
      let trace = Int64.of_int id in
      let b = Wire.encode_response ~trace resp in
      let n = Bytes.length b in
      (match Wire.decode_response_traced ~buf:b ~pos:0 ~avail:n with
      | Wire.Complete ((got, Some t), used) -> got = resp && t = trace && used = n
      | _ -> false)
      &&
      match Wire.decode_response ~buf:b ~pos:0 ~avail:n with
      | Wire.Complete (got, used) -> got = resp && used = n
      | _ -> false)

(* The decoder is total: arbitrary junk at arbitrary offsets never raises
   and never reads outside the declared window. *)
let prop_decoder_total =
  QCheck.Test.make ~name:"decoder never raises on junk" ~count:500
    QCheck.(pair (string_gen_of_size Gen.(int_bound 200) Gen.char) small_nat)
    (fun (junk, pos) ->
      let buf = Bytes.of_string junk in
      let pos = if Bytes.length buf = 0 then 0 else pos mod Bytes.length buf in
      (match Wire.decode_request ~buf ~pos ~avail:(Bytes.length buf - pos) with
      | Wire.Complete _ | Wire.Incomplete | Wire.Fail _ -> true)
      &&
      match Wire.decode_response ~buf ~pos ~avail:(Bytes.length buf - pos) with
      | Wire.Complete _ | Wire.Incomplete | Wire.Fail _ -> true)

(* --- Wire codec: adversarial frames -------------------------------------------- *)

let decode_fails name got expect =
  match got with
  | Wire.Fail e when expect e -> ()
  | Wire.Fail e -> Alcotest.failf "%s: wrong error %a" name Wire.pp_error e
  | Wire.Complete _ -> Alcotest.failf "%s: decoded" name
  | Wire.Incomplete -> Alcotest.failf "%s: Incomplete" name

let test_adversarial_frames () =
  let b = Wire.encode_request (Wire.Insert { key = 7; value = 11; at = 13 }) in
  let n = Bytes.length b in
  (* Flip one payload byte: CRC catches it before interpretation. *)
  let corrupt = Bytes.copy b in
  Bytes.set corrupt (n - 1) (Char.chr (Char.code (Bytes.get corrupt (n - 1)) lxor 0x40));
  decode_fails "payload bit flip" (Wire.decode_request ~buf:corrupt ~pos:0 ~avail:n)
    (( = ) Wire.Bad_crc);
  (* Flip a CRC byte. *)
  let corrupt = Bytes.copy b in
  Bytes.set corrupt 5 (Char.chr (Char.code (Bytes.get corrupt 5) lxor 0x01));
  decode_fails "crc bit flip" (Wire.decode_request ~buf:corrupt ~pos:0 ~avail:n)
    (( = ) Wire.Bad_crc);
  (* A frame whose checksum is valid but whose version is from the future. *)
  let payload = Bytes.of_string "\x63\x07" in
  let framed = Wire.frame payload in
  decode_fails "unknown version"
    (Wire.decode_request ~buf:framed ~pos:0 ~avail:(Bytes.length framed))
    (( = ) (Wire.Unknown_version 0x63));
  (* Valid version, nonsense tag. *)
  let framed = Wire.frame (Bytes.of_string "\x01\xC8") in
  decode_fails "unknown tag"
    (Wire.decode_request ~buf:framed ~pos:0 ~avail:(Bytes.length framed))
    (( = ) (Wire.Unknown_tag 0xC8));
  (* A hostile length prefix: rejected before any allocation or read. *)
  let big = Bytes.create 8 in
  Bytes.set_int32_le big 0 (Int32.of_int (Wire.max_payload_bytes + 1));
  Bytes.set_int32_le big 4 0l;
  decode_fails "oversized length" (Wire.decode_request ~buf:big ~pos:0 ~avail:8) (function
    | Wire.Oversized _ -> true
    | _ -> false);
  let tiny = Bytes.create 8 in
  Bytes.set_int32_le tiny 0 0l;
  decode_fails "zero length" (Wire.decode_request ~buf:tiny ~pos:0 ~avail:8) (function
    | Wire.Bad_length 0 -> true
    | _ -> false);
  (* Body shorter than its message: the bounded reader overflows into a
     typed failure, never past the payload. *)
  let short_insert =
    Wire.frame (Bytes.of_string "\x01\x02\x01\x02\x03\x04\x05\x06\x07\x08")
  in
  decode_fails "truncated body"
    (Wire.decode_request ~buf:short_insert ~pos:0 ~avail:(Bytes.length short_insert))
    (function Wire.Bad_payload _ -> true | _ -> false);
  (* Trailing bytes after a complete message inside one frame. *)
  let padded_ping = Wire.frame (Bytes.of_string "\x01\x07\x00") in
  decode_fails "trailing payload bytes"
    (Wire.decode_request ~buf:padded_ping ~pos:0 ~avail:(Bytes.length padded_ping))
    (function Wire.Bad_payload _ -> true | _ -> false)

(* --- Group commit on the one-shard writer ---------------------------------------- *)

let test_group_commit () =
  let dir = temp_dir () in
  let wal_stats = Wal.Stats.create () in
  let eng =
    Durable.open_ ~sync_policy:Wal.Never ~wal_stats ~max_key:1000
      ~path:(Filename.concat dir "wh") ()
  in
  let c = Shard.Cluster.create ~config:{ Shard.Cluster.default_config with max_batch = 4 } [| eng |] in
  let outcomes = Array.make 10 None in
  for i = 0 to 9 do
    Shard.Cluster.submit_write c
      (Shard.Op.Insert { key = i; value = i + 1; at = i + 1 })
      (fun o -> outcomes.(i) <- Some o)
  done;
  Alcotest.(check int) "queued" 10 (Shard.Cluster.pending_writes c);
  Alcotest.(check int) "no fsync before drain" 0 (Wal.Stats.fsyncs wal_stats);
  ignore (Shard.Cluster.drain c);
  Array.iteri
    (fun i o ->
      match o with
      | Some Shard.Cluster.Applied -> ()
      | _ -> Alcotest.failf "op %d not applied" i)
    outcomes;
  (* 10 writes under max_batch 4 = 3 batches = 3 fsyncs, not 10. *)
  Alcotest.(check int) "one fsync per batch" 3 (Wal.Stats.fsyncs wal_stats);
  let s = Shard.Cluster.totals c in
  Alcotest.(check int) "batches" 3 s.Shard.Snapshot.batches;
  Alcotest.(check int) "acked" 10 s.Shard.Snapshot.acked;
  (* A precondition violation is rejected without poisoning its batch. *)
  let r1 = ref None and r2 = ref None in
  Shard.Cluster.submit_write c (Shard.Op.Insert { key = 0; value = 5; at = 20 }) (fun o ->
      r1 := Some o);
  Shard.Cluster.submit_write c (Shard.Op.Insert { key = 100; value = 5; at = 21 }) (fun o ->
      r2 := Some o);
  ignore (Shard.Cluster.drain c);
  (match !r1 with
  | Some (Shard.Cluster.Rejected _) -> ()
  | _ -> Alcotest.fail "duplicate key not rejected");
  (match !r2 with
  | Some Shard.Cluster.Applied -> ()
  | _ -> Alcotest.fail "valid op after rejected one not applied");
  Alcotest.(check int) "one more fsync" 4 (Wal.Stats.fsyncs wal_stats);
  Shard.Cluster.shutdown c;
  Durable.close eng;
  rm_rf dir

(* --- In-process server over a real Unix socket ---------------------------------- *)

let step_n srv n =
  for _ = 1 to n do
    ignore (Server.step srv ~timeout:0.05)
  done

(* An in-process server over a one-shard cluster: the writer runs inline
   on the test's domain, so single-stepping the loop is deterministic. *)
let with_server_sock ?config ?(wal_wrap = fun f -> f) k =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let eng =
    Durable.open_ ~sync_policy:Wal.Never ~wal_wrap ~max_key:1000
      ~path:(Filename.concat dir "wh") ()
  in
  let cluster = Shard.Cluster.create [| eng |] in
  let listen = Server.listen_unix ~path:sock in
  let srv = Server.create ?config ~cluster ~listen () in
  let cli = Client.connect_unix ~path:sock () in
  Fun.protect
    ~finally:(fun () ->
      Client.close cli;
      Server.request_shutdown srv;
      let i = ref 0 in
      while Server.step srv ~timeout:0.01 && !i < 200 do
        incr i
      done;
      Shard.Cluster.shutdown cluster;
      Durable.close eng;
      rm_rf dir)
    (fun () -> k sock srv cli eng)

let with_server ?config ?wal_wrap k =
  with_server_sock ?config ?wal_wrap (fun _ srv cli eng -> k srv cli eng)

let expect_ack name = function
  | Wire.Ack -> ()
  | r -> Alcotest.failf "%s: expected ack, got %a" name Wire.pp_response r

let test_server_basic () =
  with_server @@ fun srv cli eng ->
  Client.send cli Wire.Ping;
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Pong -> ()
  | r -> Alcotest.failf "ping answered %a" Wire.pp_response r);
  Client.send cli (Wire.Insert { key = 1; value = 10; at = 1 });
  Client.send cli (Wire.Insert { key = 2; value = 20; at = 2 });
  step_n srv 3;
  expect_ack "insert 1" (Client.recv cli);
  expect_ack "insert 2" (Client.recv cli);
  Client.send cli (Wire.Query { agg = Wire.Sum; klo = 0; khi = 1000; tlo = 0; thi = 100 });
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Agg { sum = 30; count = 2 } -> ()
  | r -> Alcotest.failf "query answered %a" Wire.pp_response r);
  Client.send cli Wire.Health;
  Client.send cli Wire.Stats;
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Health_reply Durable.Healthy -> ()
  | r -> Alcotest.failf "health answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | Wire.Stats_reply s ->
      Alcotest.(check int) "stats updates" 2 s.Wire.updates;
      Alcotest.(check int) "stats queue drained" 0 s.Wire.queue_depth
  | r -> Alcotest.failf "stats answered %a" Wire.pp_response r);
  (* The engine never fsyncs outside the group commit: it owns the sync. *)
  Alcotest.(check bool) "writes acked after a batch sync" true
    (Wal.Stats.fsyncs (Durable.wal_stats eng) >= 1);
  Client.send cli Wire.Checkpoint;
  step_n srv 3;
  expect_ack "checkpoint" (Client.recv cli)

(* Retention over the wire: vacuum reclaims, queries above the horizon
   keep answering, queries dipping below it get the typed refusal, and
   the horizon shows up in stats. *)
let test_vacuum_over_wire () =
  with_server @@ fun srv cli eng ->
  for i = 0 to 29 do
    Client.send cli (Wire.Insert { key = i; value = i; at = i })
  done;
  for i = 0 to 19 do
    Client.send cli (Wire.Delete { key = i; at = 40 + i })
  done;
  step_n srv 5;
  for i = 1 to 50 do
    expect_ack (Printf.sprintf "update %d" i) (Client.recv cli)
  done;
  Client.send cli (Wire.Vacuum { horizon = 50; max_pages_per_step = 4 });
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Vacuum_reply { v_horizon; v_steps; v_pages_freed; v_records_dropped; _ } ->
      Alcotest.(check int) "horizon took" 50 v_horizon;
      Alcotest.(check bool) "vacuum dropped dead versions" true
        (v_records_dropped > 0 || v_pages_freed > 0);
      Alcotest.(check bool) "chunked" true (v_steps >= 1)
  | r -> Alcotest.failf "vacuum answered %a" Wire.pp_response r);
  Alcotest.(check int) "engine horizon" 50 (Durable.horizon eng);
  Client.send cli (Wire.Query { agg = Wire.Sum; klo = 0; khi = 1000; tlo = 55; thi = 100 });
  Client.send cli (Wire.Query { agg = Wire.Sum; klo = 0; khi = 1000; tlo = 0; thi = 100 });
  Client.send cli Wire.Stats;
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Agg { sum; count } ->
      (* Tuples whose lifetime meets [55,100): keys 16..19 (deleted at
         56..59) and the never-deleted 20..29. *)
      Alcotest.(check int) "count above horizon" 14 count;
      Alcotest.(check int) "sum above horizon" (16 + 17 + 18 + 19 + 245) sum
  | r -> Alcotest.failf "query above horizon answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | Wire.Err { code = Wire.Below_horizon; _ } -> ()
  | r -> Alcotest.failf "query below horizon answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | Wire.Stats_reply s ->
      Alcotest.(check int) "stats horizon" 50 s.Wire.horizon;
      Alcotest.(check bool) "stats vacuum counters" true
        (s.Wire.vacuum_steps >= 1 && s.Wire.pages_reclaimed >= 0)
  | r -> Alcotest.failf "stats answered %a" Wire.pp_response r);
  (* A vacuum that moves the horizon backwards is a typed precondition
     error, not a crash or a silent no-op. *)
  Client.send cli (Wire.Vacuum { horizon = 10; max_pages_per_step = 0 });
  step_n srv 3;
  match Client.recv cli with
  | Wire.Err { code = Wire.Invalid_request; _ } -> ()
  | r -> Alcotest.failf "backwards vacuum answered %a" Wire.pp_response r

(* Responses leave in request order even though queries complete
   immediately and writes only complete at the batch sync. *)

let test_server_response_order () =
  with_server @@ fun srv cli _eng ->
  for i = 0 to 4 do
    Client.send cli (Wire.Insert { key = i; value = 100; at = i + 1 });
    Client.send cli
      (Wire.Query { agg = Wire.Sum; klo = 0; khi = 1000; tlo = 0; thi = 1000 })
  done;
  step_n srv 4;
  (* Queries complete at decode time, writes only at the end-of-step
     batch sync — yet the ten responses come back strictly in request
     order.  A query can only observe writes flushed in earlier loop
     iterations, so the counts are nondecreasing and never run ahead of
     the writes decoded before it. *)
  let last = ref 0 in
  for i = 0 to 4 do
    expect_ack (Printf.sprintf "write %d" i) (Client.recv cli);
    (match Client.recv cli with
    | Wire.Agg { count; _ } ->
        if count < !last || count > i + 1 then
          Alcotest.failf "query %d saw count %d (previous %d)" i count !last;
        last := count
    | r -> Alcotest.failf "query %d answered %a" i Wire.pp_response r)
  done;
  Client.send cli
    (Wire.Query { agg = Wire.Count; klo = 0; khi = 1000; tlo = 0; thi = 1000 });
  step_n srv 3;
  match Client.recv cli with
  | Wire.Agg { count = 5; _ } -> ()
  | r -> Alcotest.failf "final query answered %a" Wire.pp_response r

(* Queries decoded in the same loop iteration as writes are answered from
   committed state at once and do not split the writes' group commit:
   four connections interleaving writes and queries cost one fsync. *)
let test_queries_share_group_commit () =
  with_server_sock @@ fun sock srv cli eng ->
  let clients = cli :: List.init 3 (fun _ -> Client.connect_unix ~path:sock ()) in
  step_n srv 1;
  Alcotest.(check int) "all connected" 4 (Server.connections srv);
  let fsyncs () = Wal.Stats.fsyncs (Durable.wal_stats eng) in
  let before = fsyncs () in
  List.iteri
    (fun c cl ->
      for j = 0 to 2 do
        Client.send cl (Wire.Insert { key = (10 * c) + j; value = 1; at = 1 });
        Client.send cl (Wire.Query { agg = Wire.Count; klo = 0; khi = 1000; tlo = 0; thi = 10 })
      done)
    clients;
  ignore (Server.step srv ~timeout:1.0);
  Alcotest.(check int) "one fsync for the iteration" (before + 1) (fsyncs ());
  List.iter
    (fun cl ->
      for _ = 0 to 2 do
        expect_ack "interleaved write" (Client.recv cl);
        match Client.recv cl with
        | Wire.Agg { count = 0; _ } -> ()
        | r -> Alcotest.failf "query saw an unsynced write: %a" Wire.pp_response r
      done)
    clients;
  Client.send cli (Wire.Query { agg = Wire.Count; klo = 0; khi = 1000; tlo = 0; thi = 10 });
  step_n srv 2;
  (match Client.recv cli with
  | Wire.Agg { count = 12; _ } -> ()
  | r -> Alcotest.failf "query after the commit answered %a" Wire.pp_response r);
  List.iter Client.close (List.tl clients)

(* [select] cannot watch a descriptor at or past FD_SETSIZE (1024): such
   a connection is refused with a typed [Overloaded] and closed, and the
   loop keeps serving everyone else. *)
let test_fd_setsize () =
  with_server_sock @@ fun sock srv cli _eng ->
  let conns = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Client.close !conns) @@ fun () ->
  for i = 1 to 1100 do
    (match Client.connect_unix ~path:sock () with
    | c -> conns := c :: !conns
    | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
        (* A descriptor limit under 2,200 keeps every fd below
           FD_SETSIZE here: nothing to check. *)
        Alcotest.skip ());
    (* Accept as we go: the listen backlog is 128. *)
    if i mod 32 = 0 then ignore (Server.step srv ~timeout:0.0)
  done;
  step_n srv 2;
  Alcotest.(check bool) "connections past the limit were not kept" true
    (Server.connections srv < 1024);
  (match Client.recv (List.hd !conns) with
  | Wire.Err { code = Wire.Overloaded; _ } -> ()
  | r -> Alcotest.failf "refused connection answered %a" Wire.pp_response r);
  Client.send cli Wire.Ping;
  step_n srv 2;
  match Client.recv cli with
  | Wire.Pong -> ()
  | r -> Alcotest.failf "early connection answered %a" Wire.pp_response r

let test_server_bad_frame_closes () =
  with_server @@ fun srv cli _eng ->
  (* A valid frame, then garbage: the valid one is answered, the garbage
     gets one Bad_request, the connection is closed after the flush. *)
  Client.send cli Wire.Ping;
  let junk = Bytes.make 16 '\xFF' in
  (match Unix.write (Client.fd cli) junk 0 16 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  step_n srv 4;
  (match Client.recv cli with
  | Wire.Pong -> ()
  | r -> Alcotest.failf "ping answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | Wire.Err { code = Wire.Bad_request; _ } -> ()
  | r -> Alcotest.failf "junk answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | exception Client.Connection_closed -> ()
  | r -> Alcotest.failf "connection stayed open, got %a" Wire.pp_response r);
  Alcotest.(check int) "server dropped the connection" 0 (Server.connections srv)

(* --- Admission control ----------------------------------------------------------- *)

let test_admission_unit () =
  let adm = Admission.create ~config:{ Admission.max_in_flight = 2; max_queue_depth = 8 } () in
  Alcotest.(check bool) "admit 1" true (Admission.admit adm ~queue_depth:0 ~write:false = Admission.Admit);
  Alcotest.(check bool) "admit 2" true (Admission.admit adm ~queue_depth:0 ~write:false = Admission.Admit);
  Alcotest.(check bool) "shed at in-flight cap" true
    (Admission.admit adm ~queue_depth:0 ~write:false = Admission.Shed);
  Admission.release adm;
  Alcotest.(check bool) "admit after release" true
    (Admission.admit adm ~queue_depth:0 ~write:false = Admission.Admit);
  Admission.set_standby adm true;
  Alcotest.(check bool) "write rejected on standby" true
    (Admission.admit adm ~queue_depth:0 ~write:true = Admission.Reject_read_only);
  Alcotest.(check bool) "read still admitted on standby" true
    (Admission.admit adm ~queue_depth:0 ~write:false = Admission.Shed);
  (* in-flight is back at the cap, so the read sheds — but as load, not
     as a read-only rejection. *)
  Alcotest.(check int) "read-only rejections counted separately" 1
    (Admission.rejected_read_only adm);
  Alcotest.(check int) "shed counted" 2 (Admission.shed adm)

(* A slow-drain server: many pipelined writes arrive in one loop iteration
   with a tiny queue cap — the first [cap] are admitted, the rest get a
   typed Overloaded, and the server keeps serving afterwards. *)
let test_admission_queue_cap () =
  let config = { Server.default_config with Server.max_queue_depth = 4 } in
  with_server ~config @@ fun srv cli _eng ->
  for i = 0 to 9 do
    Client.send cli (Wire.Insert { key = i; value = 1; at = i + 1 })
  done;
  step_n srv 4;
  let acks = ref 0 and overloaded = ref 0 in
  for _ = 0 to 9 do
    match Client.recv cli with
    | Wire.Ack -> incr acks
    | Wire.Err { code = Wire.Overloaded; _ } -> incr overloaded
    | r -> Alcotest.failf "unexpected %a" Wire.pp_response r
  done;
  Alcotest.(check int) "queue cap admitted" 4 !acks;
  Alcotest.(check int) "excess shed with Overloaded" 6 !overloaded;
  Alcotest.(check int) "shed counter" 6 (Admission.shed (Server.admission srv));
  (* Shedding is per-request, not a mode: the next write sails through. *)
  Client.send cli (Wire.Insert { key = 100; value = 1; at = 50 });
  step_n srv 3;
  expect_ack "write after shed" (Client.recv cli)

(* --- Read-only degradation over the wire ----------------------------------------- *)

(* Fail every WAL append after the first [ok_appends] with a permanent
   ENOSPC: the engine flips read-only mid-batch; writes are answered with
   the engine's typed errors while queries on the same connection keep
   serving. *)
let failing_appends ~ok_appends file =
  let appends = ref 0 in
  { file with
    Storage.Vfs.f_append =
      (fun buf pos len ->
        incr appends;
        if !appends > ok_appends then
          raise
            (E.Io (E.v ~op:E.Append ~path:"injected" ~detail:"disk full (injected)" E.Enospc))
        else file.Storage.Vfs.f_append buf pos len);
  }

let test_read_only_over_wire () =
  (* The WAL header is append #1; allow two record appends after it.
     The first two inserts go in their own batch so they are synced and
     acked before the injection trips — a failed append poisons its
     whole batch (earlier un-synced ops in it can never be acked). *)
  with_server ~wal_wrap:(failing_appends ~ok_appends:3) @@ fun srv cli _eng ->
  Client.send cli (Wire.Insert { key = 1; value = 10; at = 1 });
  Client.send cli (Wire.Insert { key = 2; value = 20; at = 2 });
  step_n srv 3;
  expect_ack "insert 1" (Client.recv cli);
  expect_ack "insert 2" (Client.recv cli);
  Client.send cli (Wire.Insert { key = 3; value = 30; at = 3 });
  Client.send cli (Wire.Insert { key = 4; value = 40; at = 4 });
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Err { code = Wire.Write_failed; _ } -> ()
  | r -> Alcotest.failf "failed append answered %a" Wire.pp_response r);
  (* Insert 4 was already past admission when the batch ran; the engine
     itself refuses it. *)
  (match Client.recv cli with
  | Wire.Err { code = Wire.Read_only; _ } -> ()
  | r -> Alcotest.failf "post-failure write answered %a" Wire.pp_response r);
  (* A fresh write bounces off the read-only engine, *)
  Client.send cli (Wire.Insert { key = 5; value = 50; at = 5 });
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Err { code = Wire.Read_only; _ } -> ()
  | r -> Alcotest.failf "gated write answered %a" Wire.pp_response r);
  (* ...while queries and health keep serving the acknowledged state. *)
  Client.send cli (Wire.Query { agg = Wire.Sum; klo = 0; khi = 1000; tlo = 0; thi = 100 });
  Client.send cli Wire.Health;
  step_n srv 3;
  (match Client.recv cli with
  | Wire.Agg { sum = 30; count = 2 } -> ()
  | r -> Alcotest.failf "read-only query answered %a" Wire.pp_response r);
  match Client.recv cli with
  | Wire.Health_reply Durable.Read_only -> ()
  | r -> Alcotest.failf "read-only health answered %a" Wire.pp_response r

(* A failed batch sync must fail every op the batch applied: the records
   are in the log but their durability is unknown, so nothing is acked.
   Every fsync after the one that makes the log, its header's, fails. *)
let failing_sync file =
  let made = ref false in
  { file with
    Storage.Vfs.f_sync =
      (fun () ->
        if !made then
          raise (E.Io (E.v ~op:E.Fsync ~path:"injected" ~detail:"fsync refused" E.Eio));
        made := true;
        file.Storage.Vfs.f_sync ());
  }

let test_sync_failure_acks_nothing () =
  with_server ~wal_wrap:failing_sync @@ fun srv cli eng ->
  Client.send cli (Wire.Insert { key = 1; value = 10; at = 1 });
  Client.send cli (Wire.Insert { key = 2; value = 20; at = 2 });
  step_n srv 4;
  for i = 1 to 2 do
    match Client.recv cli with
    | Wire.Err { code = Wire.Write_failed; _ } -> ()
    | r -> Alcotest.failf "unsynced insert %d answered %a" i Wire.pp_response r
  done;
  Alcotest.(check int) "nothing acked" 0
    (Shard.Cluster.totals (Server.cluster srv)).Shard.Snapshot.acked;
  Alcotest.(check bool) "engine read-only" true (Durable.health eng = Durable.Read_only)

(* --- Graceful drain ---------------------------------------------------------------- *)

let test_graceful_drain () =
  with_server @@ fun srv cli eng ->
  for i = 0 to 4 do
    Client.send cli (Wire.Insert { key = i; value = 1; at = i + 1 })
  done;
  Client.send cli Wire.Shutdown;
  Client.send cli Wire.Ping;
  (* Drive to completion: step must eventually return false. *)
  let steps = ref 0 in
  while Server.step srv ~timeout:0.05 && !steps < 200 do
    incr steps
  done;
  Alcotest.(check bool) "loop ended" true (!steps < 200);
  for i = 0 to 4 do
    expect_ack (Printf.sprintf "drained write %d" i) (Client.recv cli)
  done;
  expect_ack "shutdown" (Client.recv cli);
  (* The ping was pipelined behind the shutdown: the server is draining
     and answers with the typed refusal, then closes. *)
  (match Client.recv cli with
  | Wire.Err { code = Wire.Shutting_down; _ } -> ()
  | r -> Alcotest.failf "post-shutdown request answered %a" Wire.pp_response r);
  (match Client.recv cli with
  | exception Client.Connection_closed -> ()
  | r -> Alcotest.failf "connection survived drain with %a" Wire.pp_response r);
  Alcotest.(check int) "all writes applied before exit" 5
    (Rta.n_updates (Durable.warehouse eng))

(* --- Rot in the committed checkpoint, found by a query ----------------------------- *)

let contains hay needle =
  let n = String.length needle in
  let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* Under the mmap store a pool miss reads the committed checkpoint, so rot
   that reaches the file after the open is found by the queries that
   reach a rotten page.  Each gets a typed error naming the page, and the
   server keeps serving; once scrub has repaired the file in place from a
   twin, the mapping shows the repair and the same query answers like the
   oracle, with no restart. *)
let test_rotten_checkpoint_page () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let max_key = 1000 in
  let oracle = Reference.Warehouse.create () in
  let open_ ?pool_capacity path =
    Durable.open_ ~sync_policy:Wal.Never ~store:Storage.Store_kind.Mmap
      ?pool_capacity ~max_key ~path ()
  in
  let build ~oracle path =
    let eng = open_ path in
    for i = 0 to 1999 do
      let key = i * 37 mod max_key in
      if Rta.is_alive (Durable.warehouse eng) ~key then begin
        E.ok_exn (Durable.delete eng ~key ~at:i);
        Option.iter (fun o -> Reference.Warehouse.delete o ~key ~at:i) oracle
      end
      else begin
        E.ok_exn (Durable.insert eng ~key ~value:(i + 1) ~at:i);
        Option.iter (fun o -> Reference.Warehouse.insert o ~key ~value:(i + 1) ~at:i) oracle
      end
    done;
    E.ok_exn (Durable.checkpoint eng);
    Durable.close eng
  in
  let prefix = Filename.concat dir "wh" and twin = Filename.concat dir "twin" in
  build ~oracle:(Some oracle) prefix;
  build ~oracle:None twin;
  let eng = open_ ~pool_capacity:2 prefix in
  let cluster = Shard.Cluster.create [| eng |] in
  let sock = Filename.concat dir "s.sock" in
  let srv = Server.create ~cluster ~listen:(Server.listen_unix ~path:sock) () in
  let cli = Client.connect_unix ~path:sock () in
  Fun.protect
    ~finally:(fun () ->
      Client.close cli;
      Server.request_shutdown srv;
      let i = ref 0 in
      while Server.step srv ~timeout:0.01 && !i < 200 do
        incr i
      done;
      Shard.Cluster.shutdown cluster;
      Durable.close eng)
  @@ fun () ->
  let ask req =
    Client.send cli req;
    step_n srv 3;
    Client.recv cli
  in
  let klo, khi, tlo, thi = (0, max_key, 0, 3000) in
  let query = Wire.Query { agg = Wire.Sum; klo; khi; tlo; thi } in
  let want = Reference.Warehouse.rta_sum oracle ~klo ~khi ~tlo ~thi in
  (* Flip one payload byte of every page chunk of the LKST checkpoint, in
     place, behind the engine's back: its mapping must see the change. *)
  let file = prefix ^ ".ckpt-1.lkst" in
  let payloads =
    Storage.Frame.Reader.with_file Storage.Vfs.os ~path:file ~magic:Mvsbt.snapshot_magic
    @@ fun rd ->
    let rec go acc =
      match Storage.Frame.Reader.next rd with
      | Whole f when f.index < 2 -> go acc
      | Whole f -> go ((f.offset + Storage.Frame.header_bytes + (f.len / 2)) :: acc)
      | _ -> acc
    in
    go []
  in
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  List.iter
    (fun off ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0x10);
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))
    payloads;
  Unix.close fd;
  (match ask query with
  | Wire.Err { code = Wire.Write_failed; detail }
    when contains detail "checksum" && contains detail "page" && contains detail file ->
      ()
  | r -> Alcotest.failf "a query over a rotten page answered %a" Wire.pp_response r);
  (match ask Wire.Ping with
  | Wire.Pong -> ()
  | r -> Alcotest.failf "ping after the rot answered %a" Wire.pp_response r);
  let report = Durable.scrub ~repair_from:twin ~path:prefix () in
  Alcotest.(check int) "every rotten chunk repaired" (List.length payloads)
    (List.length report.Durable.repaired);
  Alcotest.(check int) "nothing irreparable" 0 (List.length report.Durable.irreparable);
  match ask query with
  | Wire.Agg { sum; _ } -> Alcotest.(check int) "answers like the oracle after the repair" want sum
  | r -> Alcotest.failf "the query after the repair answered %a" Wire.pp_response r

(* --- Kill -9 the serve process mid-burst ------------------------------------------- *)

let exe = "../bin/rta_cli.exe"

(* The zero-acked-but-lost contract, against a real process: pipeline a
   write burst at a forked `rta_cli serve`, SIGKILL it mid-stream, then
   recover the engine in-process and require
       acked <= recovered <= issued
   plus exact prefix semantics (the WAL replays a prefix of the issued
   ops, so the recovered warehouse must equal that prefix's aggregates). *)
let test_kill_server_recovers () =
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    let dir = temp_dir () in
    let sock = Filename.concat dir "s.sock" in
    let prefix = Filename.concat dir "wh" in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "--wal"; prefix; "--socket"; sock; "--max-key"; "100000";
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
    let issued = ref 0 and acked = ref 0 and killed = ref false in
    (try
       for i = 0 to n - 1 do
         while !issued - !acked >= window do
           match Client.recv cli with
           | Wire.Ack -> incr acked
           | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
         done;
         Client.send cli (Wire.Insert { key = i; value = i + 1; at = i + 1 });
         incr issued;
         if (not !killed) && !acked >= 50 then begin
           Unix.kill pid Sys.sigkill;
           killed := true
         end
       done;
       while !acked < !issued do
         match Client.recv cli with
         | Wire.Ack -> incr acked
         | r -> Alcotest.failf "burst write answered %a" Wire.pp_response r
       done
     with
    | Client.Connection_closed | Client.Protocol_error _ -> ()
    | Unix.Unix_error _ -> ());
    if not !killed then Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Client.close cli;
    Alcotest.(check bool) "the kill landed mid-burst" true (!acked < n);
    (* Recover in-process and check the bounds. *)
    let eng = Durable.open_ ~max_key:100000 ~path:prefix () in
    let rta = Durable.warehouse eng in
    Rta.check_invariants rta;
    let recovered = Rta.n_updates rta in
    if not (!acked <= recovered) then
      Alcotest.failf "LOST ACKED WRITES: acked %d > recovered %d" !acked recovered;
    if not (recovered <= !issued) then
      Alcotest.failf "recovered %d ops but only %d were issued" recovered !issued;
    (* Prefix semantics: op i inserted key i with value i+1 at time i+1,
       so a recovery of r ops must hold exactly keys 0..r-1. *)
    let sum, count = Rta.sum_count rta ~klo:0 ~khi:100000 ~tlo:0 ~thi:1000000 in
    Alcotest.(check int) "recovered count is the prefix" recovered count;
    Alcotest.(check int) "recovered sum is the prefix sum"
      (recovered * (recovered + 1) / 2)
      sum;
    Durable.close eng;
    rm_rf dir
  end

(* --- Suite ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_traced_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_traced_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_decoder_total;
          Alcotest.test_case "adversarial frames" `Quick test_adversarial_frames;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "one-shard writer" `Quick test_group_commit;
          Alcotest.test_case "queries ride one fsync" `Quick test_queries_share_group_commit;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic requests" `Quick test_server_basic;
          Alcotest.test_case "response order" `Quick test_server_response_order;
          Alcotest.test_case "bad frame closes" `Quick test_server_bad_frame_closes;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "vacuum over the wire" `Quick test_vacuum_over_wire;
          Alcotest.test_case "past FD_SETSIZE" `Quick test_fd_setsize;
        ] );
      ( "admission",
        [
          Alcotest.test_case "gate unit" `Quick test_admission_unit;
          Alcotest.test_case "queue cap sheds" `Quick test_admission_queue_cap;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "read-only over the wire" `Quick test_read_only_over_wire;
          Alcotest.test_case "sync failure acks nothing" `Quick test_sync_failure_acks_nothing;
        ] );
      ( "crash",
        [ Alcotest.test_case "kill -9 and recover" `Quick test_kill_server_recovers;
          Alcotest.test_case "rot in the checkpoint, found and repaired live" `Quick
            test_rotten_checkpoint_page ] );
    ]
