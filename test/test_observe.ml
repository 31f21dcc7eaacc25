(* The distributed observability plane: JSON escaping under arbitrary
   bytes, span JSONL round trips, Chrome pid/tid rows with thread-name
   metadata, request phase accounting checked against wall time, and
   live cross-domain / cross-process trace propagation through a sharded
   server and a leader/follower pair. *)

module Json = Telemetry.Json
module Tracer = Telemetry.Tracer
module Phases = Telemetry.Phases

let temp_dir () =
  let d = Filename.temp_file "rta_observe" ".test" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf d =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (Sys.readdir d);
  Unix.rmdir d

let rec await ?(tries = 400) ~what p =
  if tries <= 0 then Alcotest.failf "timed out waiting for %s" what
  else if not (p ()) then begin
    Unix.sleepf 0.02;
    await ~tries:(tries - 1) ~what p
  end

(* --- Json escaping: arbitrary bytes survive the round trip ---------------------- *)

let gen_bytes = QCheck.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 64))

let prop_string_escaping =
  QCheck.Test.make ~name:"arbitrary byte strings round-trip through the parser"
    ~count:1000 (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

let prop_key_escaping =
  QCheck.Test.make ~name:"arbitrary bytes as object keys round-trip" ~count:500
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      match Json.of_string (Json.to_string (Json.Obj [ (s, Json.Int 7) ])) with
      | Ok (Json.Obj [ (s', Json.Int 7) ]) -> String.equal s s'
      | _ -> false)

let test_control_chars () =
  (* Bytes below 0x20 must come out as \u00XX (raw they are invalid
     JSON); DEL and high bytes pass through byte-exact. *)
  let s = "k\x00\x01\n\t\x1f\x7f\xc3\xa9" in
  let enc = Json.to_string (Json.Str s) in
  String.iter
    (fun c -> if Char.code c < 0x20 then Alcotest.failf "raw control byte in %S" enc)
    enc;
  match Json.of_string enc with
  | Ok (Json.Str s') -> Alcotest.(check string) "byte-exact" s s'
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "unparseable: %s" e

(* --- Span / event JSONL round trip ---------------------------------------------- *)

let test_span_json_roundtrip () =
  let mem = Tracer.Memory.create () in
  let tel = Tracer.create (Tracer.Memory.sink mem) in
  Tracer.with_trace ~trace:(Some 77L) (fun () ->
      Tracer.with_span tel "outer"
        ~attrs:(fun () -> [ ("k", Tracer.Int 3); ("s", Tracer.Str "v") ])
        (fun () -> Tracer.with_span tel "inner" (fun () -> ()));
      Tracer.event tel "mark" ~attrs:[ ("b", Tracer.Bool true) ]);
  let spans = Tracer.Memory.spans mem in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  List.iter
    (fun s ->
      match Tracer.span_of_json (Tracer.span_to_json s) with
      | Some s' -> if s' <> s then Alcotest.failf "span %s did not round-trip" s.Tracer.name
      | None -> Alcotest.failf "span %s json not recognised" s.Tracer.name)
    spans;
  List.iter
    (fun e ->
      match Tracer.event_of_json (Tracer.event_to_json e) with
      | Some e' ->
          if e' <> e then Alcotest.failf "event %s did not round-trip" e.Tracer.ev_name
      | None -> Alcotest.failf "event %s json not recognised" e.Tracer.ev_name)
    (Tracer.Memory.events mem);
  (* Trace ids were ambient at open, so both spans carry 77. *)
  List.iter
    (fun (s : Tracer.span) ->
      Alcotest.(check (option int64)) "trace id" (Some 77L) s.Tracer.trace_id)
    spans

(* --- Chrome rows: pid/tid per span plus thread-name metadata -------------------- *)

let test_chrome_rows () =
  let mem = Tracer.Memory.create () in
  let tel = Tracer.create (Tracer.Memory.sink mem) in
  Tracer.set_thread_name "main-loop";
  Tracer.with_span tel "on-main" (fun () -> ());
  let d =
    Domain.spawn (fun () ->
        Tracer.set_thread_name "worker-7";
        Tracer.with_span tel "on-worker" (fun () -> ()))
  in
  Domain.join d;
  let doc =
    Tracer.chrome_trace ~events:(Tracer.Memory.events mem)
      ~threads:(Tracer.thread_names ()) (Tracer.Memory.spans mem)
  in
  (* The artifact re-parses, and rows are keyed by real pid/tid. *)
  let doc =
    match Json.of_string (Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let names = ref [] and tids = ref [] in
  List.iter
    (fun ev ->
      (match (Json.member "ph" ev, Json.member "args" ev) with
      | Some (Json.Str "M"), Some args -> (
          match Json.member "name" args with
          | Some (Json.Str n) -> names := n :: !names
          | _ -> ())
      | _ -> ());
      match (Json.member "ph" ev, Json.member "pid" ev, Json.member "tid" ev) with
      | Some (Json.Str "X"), Some (Json.Int pid), Some (Json.Int tid) ->
          Alcotest.(check int) "pid is this process" (Unix.getpid ()) pid;
          tids := tid :: !tids
      | _ -> ())
    events;
  let mem_of n = List.mem n !names in
  Alcotest.(check bool) "main row labelled" true (mem_of "main-loop");
  Alcotest.(check bool) "worker row labelled" true (mem_of "worker-7");
  Alcotest.(check bool) "spans landed on two rows" true
    (List.length (List.sort_uniq compare !tids) >= 2)

(* --- Phase cells: the vector sums to the request's charges ---------------------- *)

let test_phase_cell_accounting () =
  let reg = Telemetry.Metrics.create () in
  let slow = ref [] in
  let r = Phases.create ~slow_ms:0.000001 ~on_slow:(fun j -> slow := j :: !slow) reg in
  let c = Phases.cell ~kind:"insert" ~trace:(Some 5L) ~start_ns:(Phases.now_ns ()) in
  Phases.add c Phases.Decode ~ns:1_000L;
  Phases.add c Phases.Fsync ~ns:2_000_000L;
  Phases.add c Phases.Apply ~ns:5_000L;
  Phases.finish r c;
  (match !slow with
  | [ j ] -> (
      (match Json.of_string (Json.to_string j) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "slow record unparseable: %s" e);
      match Json.member "phases_ms" j with
      | Some (Json.Obj kvs) ->
          Alcotest.(check bool) "fsync present" true (List.mem_assoc "fsync" kvs);
          Alcotest.(check bool) "idle phases omitted" false
            (List.mem_assoc "queue_wait" kvs)
      | _ -> Alcotest.fail "no phases_ms")
  | l -> Alcotest.failf "expected one slow record, got %d" (List.length l));
  match Phases.summary_json r with
  | Json.Obj kvs ->
      Alcotest.(check bool) "summary has every phase + total" true
        (List.length kvs = Phases.n_phases + 1);
      List.iter
        (fun (_, v) ->
          match Json.member "p50_ms" v with
          | Some _ -> ()
          | None -> Alcotest.fail "phase summary lacks quantiles")
        kvs
  | _ -> Alcotest.fail "summary not an object"

(* Each charge closes the window the previous one opened, so a pause
   between two stages lands in the next phase, and a duration added
   inside a window is counted once.  The phases therefore sum to the
   clock at the last charge, and the total only adds what passed between
   that charge and [finish]. *)
let test_phase_windows_tile () =
  let reg = Telemetry.Metrics.create () in
  let slow = ref [] in
  let r = Phases.create ~slow_ms:0.000001 ~on_slow:(fun j -> slow := j :: !slow) reg in
  let t0 = Phases.now_ns () in
  let c = Phases.cell ~kind:"insert" ~trace:None ~start_ns:t0 in
  Unix.sleepf 0.002;
  Phases.charge c Phases.Decode;
  Unix.sleepf 0.004;
  Phases.charge c Phases.Queue_wait;
  Unix.sleepf 0.001;
  Phases.add c Phases.Apply ~ns:3_000_000L;
  Unix.sleepf 0.003;
  Phases.charge c Phases.Batch_build;
  let before = Phases.now_ns () in
  Phases.charge c Phases.Reply_flush;
  Phases.finish r c;
  let after = Phases.now_ns () in
  let ms t = Int64.to_float (Int64.sub t t0) /. 1e6 in
  let j =
    match !slow with [ j ] -> j | l -> Alcotest.failf "%d slow records" (List.length l)
  in
  let phases =
    match Json.member "phases_ms" j with
    | Some (Json.Obj kvs) ->
        List.map
          (function k, Json.Float v -> (k, v) | k, _ -> Alcotest.failf "%s not a float" k)
          kvs
    | _ -> Alcotest.fail "no phases_ms"
  in
  let total =
    match Json.member "total_ms" j with
    | Some (Json.Float t) -> t
    | _ -> Alcotest.fail "no total_ms"
  in
  let phase k = Option.value ~default:0. (List.assoc_opt k phases) in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. phases in
  let eps = 1e-6 in
  Alcotest.(check bool) "decode spans its sleep" true (phase "decode" >= 2.);
  Alcotest.(check bool) "the pause lands in queue wait" true (phase "queue_wait" >= 4.);
  Alcotest.(check (float eps)) "apply is the added duration" 3. (phase "apply");
  Alcotest.(check bool) "batch build leaves the added duration out" true
    (phase "batch_build" >= 1. && phase "batch_build" < ms before -. 9. +. eps);
  Alcotest.(check bool) "phases end at the last charge" true
    (sum >= ms before -. eps && sum <= ms after +. eps);
  Alcotest.(check bool) "total covers the phases" true
    (total >= sum -. eps && total <= ms after +. eps)

(* --- Live servers ----------------------------------------------------------------- *)

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

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

let stop_and_wait pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* Every line of a JSONL artifact must parse; return the spans found. *)
let read_spans path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let spans = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 then begin
         match Json.of_string line with
         | Error e -> Alcotest.failf "%s: invalid JSONL line (%s): %s" path e line
         | Ok j -> (
             match Tracer.span_of_json j with Some s -> spans := s :: !spans | None -> ())
       end
     done
   with End_of_file -> ());
  List.rev !spans

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Buffer.contents buf

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A sharded server with readers: a tagged write and a tagged scatter
   query must leave spans on shard/reader domains carrying the tag; the
   slow log's phase vectors must account for the requests' wall time;
   SIGUSR1 must produce a parseable flight dump; the metrics port must
   answer Prometheus text and the observe document. *)
let test_sharded_plane () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir () in
    let sock = Filename.concat dir "s.sock" in
    let wal = Filename.concat dir "w" in
    let trace_file = Filename.concat dir "spans.jsonl" in
    let mport = free_port () in
    let pid =
      spawn
        [ "serve"; "--wal"; wal; "--socket"; sock; "--max-key"; "100000"; "--shards";
          "2"; "--readers"; "1"; "--trace-out"; trace_file; "--slow-ms"; "0.00001";
          "--metrics-port"; string_of_int mport ]
    in
    let cli = connect_retry sock in
    let t_write = 0x0BEEF01L and t_query = 0x0BEEF02L in
    (match Client.call ~trace:t_write cli (Wire.Insert { key = 7; value = 3; at = 1 }) with
    | Wire.Ack -> ()
    | r -> Alcotest.failf "insert answered %a" Wire.pp_response r);
    (match Client.call ~trace:t_write cli (Wire.Insert { key = 70_000; value = 4; at = 2 })
     with
    | Wire.Ack -> ()
    | r -> Alcotest.failf "insert answered %a" Wire.pp_response r);
    (* Spans both shards: the scatter path runs on the writer domains. *)
    (match
       Client.call ~trace:t_query cli
         (Wire.Query { agg = Wire.Sum; klo = 0; khi = 100_000; tlo = 0; thi = 10 })
     with
    | Wire.Agg { sum = 7; count = 2 } -> ()
    | Wire.Agg { sum; count } -> Alcotest.failf "query got sum %d count %d" sum count
    | r -> Alcotest.failf "query answered %a" Wire.pp_response r);
    (* The HTTP plane, from the same event loop. *)
    let metrics = http_get ~port:mport "/metrics" in
    Alcotest.(check bool) "prometheus export served" true
      (contains ~affix:"request_phase_fsync_ns" metrics);
    let observe = http_get ~port:mport "/observe" in
    let body =
      match String.index_opt observe '{' with
      | Some i -> String.sub observe i (String.length observe - i)
      | None -> Alcotest.failf "no JSON body in %s" observe
    in
    (match Json.of_string body with
    | Ok doc -> (
        match Json.member "shards" doc with
        | Some (Json.List l) -> Alcotest.(check int) "two shard rows" 2 (List.length l)
        | _ -> Alcotest.fail "observe lacks shards")
    | Error e -> Alcotest.failf "observe body unparseable: %s" e);
    (* Flight recorder: SIGUSR1 dumps the ring. *)
    Unix.kill pid Sys.sigusr1;
    let dump = wal ^ ".flight-0.jsonl" in
    await ~what:"flight dump" (fun () -> Sys.file_exists dump);
    Client.close cli;
    stop_and_wait pid;
    ignore (read_spans dump);
    (* Cross-domain propagation: tagged spans on non-main domains. *)
    let spans = read_spans trace_file in
    let tagged t = List.filter (fun (s : Tracer.span) -> s.Tracer.trace_id = Some t) spans in
    let off_main l = List.exists (fun (s : Tracer.span) -> s.Tracer.tid > 0) l in
    Alcotest.(check bool) "write spans exist" true (tagged t_write <> []);
    Alcotest.(check bool) "write reached a shard domain" true (off_main (tagged t_write));
    Alcotest.(check bool) "query spans exist" true (tagged t_query <> []);
    Alcotest.(check bool) "query reached a shard domain" true (off_main (tagged t_query));
    (* Phase accounting: per slow record the vector explains the wall
       time; aggregate within 10%. *)
    let slow_path = wal ^ ".slow.jsonl" in
    let total = ref 0. and explained = ref 0. and records = ref 0 in
    let ic = open_in slow_path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    (try
       while true do
         let line = input_line ic in
         if String.length line > 0 then begin
           match Json.of_string line with
           | Error e -> Alcotest.failf "slow log line unparseable (%s): %s" e line
           | Ok j ->
               incr records;
               (match Json.member "total_ms" j with
               | Some (Json.Float t) -> total := !total +. t
               | _ -> Alcotest.fail "slow record lacks total_ms");
               (match Json.member "phases_ms" j with
               | Some (Json.Obj kvs) ->
                   List.iter
                     (fun (_, v) ->
                       match v with
                       | Json.Float ms -> explained := !explained +. ms
                       | _ -> ())
                     kvs
               | _ -> Alcotest.fail "slow record lacks phases_ms")
         end
       done
     with End_of_file -> ());
    Alcotest.(check bool) "slow log captured the requests" true (!records >= 3);
    let ratio = !explained /. !total in
    if ratio < 0.9 || ratio > 1.1 then
      Alcotest.failf "phase vectors explain %.1f%% of wall time (records %d)"
        (100. *. ratio) !records;
    (* The merged artifact is a valid Chrome trace. *)
    (match Json.of_string (Json.to_string (Tracer.chrome_trace spans)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "merged chrome trace unparseable: %s" e);
    rm_rf dir
  end

(* Leader + follower: one tagged write leaves spans carrying the same
   trace id in two different processes, and the follower's observe
   document reports zero lag at quiescence. *)
let test_cross_process_propagation () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir () in
    let lsock = Filename.concat dir "l.sock" in
    let fsock = Filename.concat dir "f.sock" in
    let ltrace = Filename.concat dir "leader.jsonl" in
    let ftrace = Filename.concat dir "follower.jsonl" in
    let lpid =
      spawn
        [ "serve"; "--wal"; Filename.concat dir "lead"; "--socket"; lsock; "--max-key";
          "100000"; "--sync-replicas"; "1"; "--heartbeat-ms"; "20"; "--trace-out";
          ltrace ]
    in
    let fpid =
      spawn
        [ "serve"; "--wal"; Filename.concat dir "fol"; "--socket"; fsock; "--max-key";
          "100000"; "--follower-of"; lsock; "--heartbeat-ms"; "20"; "--no-auto-promote";
          "--trace-out"; ftrace ]
    in
    let lcli = connect_retry lsock in
    let fcli = connect_retry fsock in
    await ~what:"subscription" (fun () ->
        match Client.replica_stats lcli with
        | Some s -> s.Wire.r_followers <> []
        | None -> false);
    let t = 0xFACE07L in
    (match Client.call ~trace:t lcli (Wire.Insert { key = 9; value = 2; at = 3 }) with
    | Wire.Ack -> ()
    | r -> Alcotest.failf "insert answered %a" Wire.pp_response r);
    await ~what:"follower replay" (fun () ->
        match Client.replica_stats fcli with
        | Some s -> s.Wire.r_durable >= 1
        | None -> false);
    (* Observe on the follower: replication present, lag drained. *)
    (match Client.observe fcli with
    | None -> Alcotest.fail "follower did not answer Observe"
    | Some doc -> (
        match Json.of_string doc with
        | Error e -> Alcotest.failf "observe unparseable: %s" e
        | Ok j -> (
            match Json.member "replication" j with
            | Some repl -> (
                match Json.member "lag" repl with
                | Some (Json.Int lag) -> Alcotest.(check int) "lag drained" 0 lag
                | _ -> Alcotest.fail "replication lacks lag")
            | None -> Alcotest.fail "observe lacks replication")));
    Client.close lcli;
    Client.close fcli;
    stop_and_wait lpid;
    stop_and_wait fpid;
    let spans = read_spans ltrace @ read_spans ftrace in
    let tagged = List.filter (fun (s : Tracer.span) -> s.Tracer.trace_id = Some t) spans in
    let pids = List.sort_uniq compare (List.map (fun (s : Tracer.span) -> s.Tracer.pid) tagged) in
    if List.length pids < 2 then
      Alcotest.failf "tagged spans in %d process(es), want 2 (spans %d)"
        (List.length pids) (List.length tagged);
    (match Json.of_string (Json.to_string (Tracer.chrome_trace spans)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "merged chrome trace unparseable: %s" e);
    rm_rf dir
  end

let () =
  Alcotest.run "observe"
    [
      ( "json escaping",
        [
          QCheck_alcotest.to_alcotest prop_string_escaping;
          QCheck_alcotest.to_alcotest prop_key_escaping;
          Alcotest.test_case "control and high bytes" `Quick test_control_chars;
        ] );
      ( "span jsonl",
        [ Alcotest.test_case "span/event json round trip" `Quick test_span_json_roundtrip ] );
      ( "chrome",
        [ Alcotest.test_case "pid/tid rows + thread names" `Quick test_chrome_rows ] );
      ( "phases",
        [ Alcotest.test_case "cell accounting and summaries" `Quick
            test_phase_cell_accounting;
          Alcotest.test_case "windows tile the wall time" `Quick test_phase_windows_tile ] );
      ( "live",
        [
          Alcotest.test_case "sharded plane end to end" `Slow test_sharded_plane;
          Alcotest.test_case "cross-process trace propagation" `Slow
            test_cross_process_propagation;
        ] );
    ]
