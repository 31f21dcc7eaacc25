(* The socket passes: the plain pass that gives the end-to-end metrics,
   and the socket half of the traced pass. *)

open Load

let now = Proc.now

type outcome = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;  (** [Err] responses plus wrong answers. *)
  wrong : (Inputs.rect * (int * int) * (int * int)) list;  (** Rectangle, answer, oracle. *)
}

type env = {
  cli : string;  (** The built [rta_cli] executable. *)
  inputs : Inputs.t;
  p_dir : string;  (** The prepared store P, copied afresh for every server. *)
  run_dir : string;
  oracle_p : Inputs.Oracle.t;
}

(* A control request; an error answer stops the run. *)
let call (srv : Proc.server) conn req =
  match Conn.call conn req with
  | Wire.Err _ as r ->
      Proc.fail_with_log srv "%s answered %s" (Format.asprintf "%a" Wire.pp_request req)
        (Format.asprintf "%a" Wire.pp_response r)
  | r -> r

let server_stats srv conn =
  match call srv conn Wire.Stats with Wire.Stats_reply st -> st | _ -> failwith "stats: bad reply"

(* Page reads and writes the engine has charged, from the shard table a
   single-engine server reports as one row. *)
let page_io srv conn =
  match call srv conn Wire.Shard_stats with
  | Wire.Shard_stats_reply rows ->
      List.fold_left (fun n r -> n + r.Wire.s_io_reads + r.Wire.s_io_writes) 0 rows
  | _ -> failwith "shard stats: bad reply"

(* Copy P, start [serve] on it, and time spawn to first [Pong]. *)
let start env args =
  Proc.copy_dir env.p_dir env.run_dir;
  let t0 = now () in
  let srv = Proc.spawn ~cli:env.cli ~dir:env.run_dir args in
  let conn = Conn.of_client (Proc.await_socket srv) in
  ignore (call srv conn Wire.Ping);
  (srv, conn, now () -. t0)

let stop srv conn =
  ignore (call srv conn Wire.Shutdown);
  Conn.close conn;
  Proc.await_exit srv

type measured = {
  s : session;
  cpu_s : float;  (** Server CPU over the timed phase. *)
  io : int;  (** Server page I/Os over the timed phase. *)
}

(* The workload's traffic, then the final checks; the server's update
   counter must have grown by exactly the writes the client saw
   acknowledged. *)
let traffic env srv conn w ~seconds =
  let updates () = (server_stats srv conn).Wire.updates in
  let updates0 = updates () and io0 = page_io srv conn and cpu0 = Proc.cpu_s srv in
  let s = drive ~inputs:env.inputs ~w ~sock:srv.Proc.sock conn ~seconds in
  let cpu_s = Proc.cpu_s srv -. cpu0 and io = page_io srv conn - io0 in
  final_checks s ~inputs:env.inputs conn ~n:n_final_checks;
  let applied = updates () - updates0 in
  let acked = Bytes.fold_left (fun n c -> if c = '\001' then n + 1 else n) 0 s.acked in
  if applied <> acked then
    Proc.fail_with_log srv "server applied %d updates, client saw %d acknowledged" applied acked;
  { s; cpu_s; io }

let outcome env s metrics =
  let wrong = wrong_answers s ~inputs:env.inputs ~oracle_p:env.oracle_p in
  { metrics; attempted = s.attempted; failed = s.errors + List.length wrong; wrong }

let setups = 9

(* Plain pass, tracing off.  [serve] is started [setups] times on fresh
   copies of P and [setup_s] is the median.  The starts are split between
   both ends of the timed phase, so that one slow spell of the host does
   not cover all of them.  The middle server takes the load, then
   checkpoints, so the bytes left on disk are the store's steady form
   rather than a log of however many writes the run got through.

   Latency and throughput are not reported here: from one run to the
   next they move with the host's speed by more than any bound could
   hold (see README.md), so they are per-layer metrics of the traced
   pass. *)
let plain env w ~seconds =
  let args = serve_args ~max_key:env.inputs.max_key w @ [ "--no-flight" ] in
  let boot () =
    let srv, conn, dt = start env args in
    stop srv conn;
    dt
  in
  let before = List.init (setups / 2) (fun _ -> boot ()) in
  let srv, conn, dt = start env args in
  let t = traffic env srv conn w ~seconds in
  let rss_mb = Proc.peak_rss_mb srv in
  ignore (call srv conn Wire.Checkpoint);
  stop srv conn;
  let disk_bytes = Proc.dir_bytes env.run_dir in
  let after = List.init (setups - 1 - (setups / 2)) (fun _ -> boot ()) in
  let user_bytes = 16. *. float_of_int (env.inputs.p_versions + t.s.acked_inserts) in
  outcome env t.s
    [
      ("setup_s", Stats.median (Array.of_list ((dt :: before) @ after)));
      ("io_per_op", float_of_int t.io /. float_of_int t.s.done_total);
      ("mem_amp", rss_mb *. 1048576. /. user_bytes);
      ("space_amp", float_of_int disk_bytes /. user_bytes);
    ]

(* --- Traced pass, socket half ---------------------------------------------------- *)

let probe_writes = 2000

(* Phase sums (ms) and counts from the server's Observe document. *)
let phases srv conn =
  let doc = match call srv conn Wire.Observe with Wire.Observe_reply d -> d | _ -> failwith "observe: bad reply" in
  let module J = Telemetry.Json in
  let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0. in
  match Result.map (J.member "phases") (J.of_string doc) with
  | Ok (Some (J.Obj ps)) ->
      List.map (fun (name, h) -> (name, (num (J.member "sum_ms" h), num (J.member "count" h)))) ps
  | _ -> Proc.fail_with_log srv "observe document has no phase summary"

let phase_mean_us ps name =
  match List.assoc_opt name ps with Some (sum, n) when n > 0. -> Some (sum *. 1000. /. n) | _ -> None

let diff_phases later earlier =
  List.map
    (fun (name, (sum, n)) ->
      let s0, n0 = Option.value ~default:(0., 0.) (List.assoc_opt name earlier) in
      (name, (sum -. s0, n -. n0)))
    later

let phase_names =
  [ "decode"; "admission_wait"; "queue_wait"; "batch_build"; "wal_append"; "fsync"; "apply"; "reply_flush"; "total" ]

(* The same traffic cut to a quarter of the time, once with tracing off
   and once with [serve]'s default phase recorder on.  Phase means are
   over the workload's own traffic.  A workload that sends no writes ends
   the traced run with a short write probe, measured apart, and the
   phases its traffic never reaches (the group-commit ones) come from
   the probe, so every phase is defined for every workload. *)
let traced_socket env w ~seconds =
  let args = serve_args ~max_key:env.inputs.max_key w in
  let seconds = seconds /. 4. in
  let srv, conn, _ = start env (args @ [ "--no-flight" ]) in
  let plain = traffic env srv conn w ~seconds in
  let s_plain = plain.s in
  stop srv conn;
  let srv, conn, _ = start env args in
  let s = (traffic env srv conn w ~seconds).s in
  let traffic_phases = phases srv conn in
  let st = server_stats srv conn in
  let probe_phases, st_w =
    if s.sent_b > 0 then (traffic_phases, st)
    else begin
      (* Untimed: it stops at [probe_writes], not at a deadline. *)
      let probe = session ~inputs:env.inputs ~seconds:infinity in
      pipelined_writes probe conn (Lazy.force env.inputs.b) ~limit:probe_writes;
      if probe.errors > 0 then Proc.fail_with_log srv "write probe: %d errors" probe.errors;
      let st' = server_stats srv conn in
      ( diff_phases (phases srv conn) traffic_phases,
        { st' with Wire.batches = st'.Wire.batches - st.Wire.batches;
          batched_writes = st'.Wire.batched_writes - st.Wire.batched_writes;
          wal_syncs = st'.Wire.wal_syncs - st.Wire.wal_syncs } )
    end
  in
  stop srv conn;
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let o_plain = outcome env s_plain [] and o = outcome env s [] in
  let phase name =
    let mean =
      match phase_mean_us traffic_phases name with
      | Some m -> m
      | None -> Option.value ~default:0. (phase_mean_us probe_phases name)
    in
    ("server." ^ name ^ "_us", mean)
  in
  {
    attempted = o.attempted + o_plain.attempted;
    failed = o.failed + o_plain.failed;
    wrong = o.wrong @ o_plain.wrong;
    metrics =
      [
        ("client.op_p50_ms", op_p50_ms w s_plain);
        ("client.op_p99_ms", Stats.Series.quantile (primary w s_plain) 0.99);
        ("client.ops_per_s", ops_per_s s_plain);
        ("server.cpu_us_per_op", plain.cpu_s *. 1e6 /. float_of_int s_plain.done_total);
      ]
      @ List.map phase phase_names
      @ [
          ("server.writes_per_batch", ratio st_w.Wire.batched_writes st_w.Wire.batches);
          ("server.wal_syncs_per_write", ratio st_w.Wire.wal_syncs st_w.Wire.batched_writes);
          ("server.shed_frac", ratio st.Wire.shed st.Wire.requests);
          ("loadgen.late_p99_ms", Stats.Series.quantile s_plain.late 0.99);
          ("trace.overhead_frac", (op_p50_ms w s /. op_p50_ms w s_plain) -. 1.);
        ];
  }
