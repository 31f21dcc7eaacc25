(* The in-process half of the traced pass: the workload's store kind and
   pool opened with [Durable.open_] in this process, and timers around
   each public call into a layer. *)

open Inputs

let now = Proc.now
let us dt n = dt *. 1e6 /. float_of_int (max 1 n)

(* Mean nanoseconds per element of [f] over [xs]: median of five passes,
   since one call is too short to time alone. *)
let per_call_ns f xs =
  let pass () =
    let t0 = now () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    (now () -. t0) *. 1e9 /. float_of_int (Array.length xs)
  in
  Stats.median (Array.init 5 (fun _ -> pass ()))

(* Encode and decode the workload's own request and response mix. *)
let wire (w : Load.workload) ~rects ~answers ~writes =
  let queries = Array.map query_request rects in
  let updates = Array.map request_of_event writes in
  let reqs, resps =
    match w.traffic with
    | Load.Queries -> (queries, Array.map (fun (s, c) -> Wire.Agg { sum = s; count = c }) answers)
    | Load.Ingest -> (updates, Array.map (fun _ -> Wire.Ack) updates)
    | Load.Mixed ->
        ( Array.append queries updates,
          Array.append (Array.map (fun (s, c) -> Wire.Agg { sum = s; count = c }) answers)
            (Array.map (fun _ -> Wire.Ack) updates) )
  in
  let req_frames = Array.map (fun r -> Wire.encode_request r) reqs in
  let resp_frames = Array.map (fun r -> Wire.encode_response r) resps in
  let decode dec buf =
    match dec ~buf ~pos:0 ~avail:(Bytes.length buf) with
    | Wire.Complete _ -> ()
    | _ -> failwith "wire: frame did not decode"
  in
  [
    ("wire.encode_request_ns", per_call_ns (fun r -> Wire.encode_request r) reqs);
    ("wire.decode_request_ns", per_call_ns (decode Wire.decode_request) req_frames);
    ("wire.encode_response_ns", per_call_ns (fun r -> Wire.encode_response r) resps);
    ("wire.decode_response_ns", per_call_ns (decode Wire.decode_response) resp_frames);
    ( "wire.request_bytes",
      float_of_int (Array.fold_left (fun n b -> n + Bytes.length b) 0 req_frames)
      /. float_of_int (Array.length req_frames) );
  ]

let apply_durable eng = function
  | Workload.Generator.Insert { key; value; at } -> Durable.insert eng ~key ~value ~at
  | Workload.Generator.Delete { key; at } -> Durable.delete eng ~key ~at

let apply_rta rta = function
  | Workload.Generator.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
  | Workload.Generator.Delete { key; at } -> Rta.delete rta ~key ~at

let ok what = function
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "%s: %a" what Storage.Storage_error.pp e)

(* [n_queries] of the workload's rectangles, then [n_updates] of B through
   the WAL (synced every [Load.write_window], as group commit does), one
   checkpoint, and [n_updates] more of B straight into the trees. *)
let run ~(inputs : Inputs.t) ~p_dir ~dir (w : Load.workload) ~n_queries ~n_updates =
  Proc.copy_dir p_dir dir;
  let t0 = now () in
  let eng =
    Durable.open_ ~pool_capacity:w.buffer ~sync_policy:Wal.Never ~store:w.store
      ~max_key:inputs.max_key ~path:(Filename.concat dir "wh") ()
  in
  let open_s = now () -. t0 in
  let disk_bytes = Proc.dir_bytes dir in
  let rta = Durable.warehouse eng in
  let io = Rta.stats rta in
  let height = Rta.height rta and pages = Rta.page_count rta and records = Rta.record_count rta in
  let next = rects inputs ~stream:Load.stream_history in
  let rects = Array.init n_queries (fun _ -> next ~max_time:inputs.p_end) in
  let sum_count (r : rect) = Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
  (* Warm: a first pass over the same rectangles fills the pool. *)
  let answers = Array.map sum_count rects in
  let io0 = Storage.Io_stats.snapshot io and touches0 = Rta.page_touches rta in
  let t0 = now () in
  Array.iter (fun r -> ignore (sum_count r)) rects;
  let warm = now () -. t0 in
  let warm_io = Storage.Io_stats.(diff (snapshot io) io0) in
  let touches = Rta.page_touches rta - touches0 in
  let time_points f =
    let t0 = now () in
    Array.iter (fun (r : rect) -> ignore (f rta ~key:r.klo ~at:r.tlo); ignore (f rta ~key:r.khi ~at:r.thi)) rects;
    us (now () -. t0) (2 * n_queries)
  in
  let lkst = time_points Rta.lkst and lklt = time_points Rta.lklt in
  (* Cold: the pool emptied before each query, which then runs again hot;
     the difference over the faults it saved is what one fault costs. *)
  let reads () = Storage.Io_stats.reads io in
  let cold = ref 0. and hot = ref 0. and cold_faults = ref 0 and hot_faults = ref 0 in
  Array.iter
    (fun r ->
      Rta.drop_cache rta;
      let r0 = reads () and t0 = now () in
      ignore (sum_count r);
      let r1 = reads () and t1 = now () in
      ignore (sum_count r);
      let t2 = now () in
      cold := !cold +. (t1 -. t0);
      hot := !hot +. (t2 -. t1);
      cold_faults := !cold_faults + (r1 - r0);
      hot_faults := !hot_faults + (reads () - r1))
    rects;
  let per_q n = float_of_int n /. float_of_int n_queries in
  let fault_us = us (!cold -. !hot) (!cold_faults - !hot_faults) in
  (* Updates through the WAL. *)
  let b = Lazy.force inputs.b in
  let writes = Array.sub b 0 n_updates in
  let wal = Durable.wal_stats eng in
  let wal_bytes0 = Wal.Stats.bytes wal and touches0 = Rta.page_touches rta in
  let io0 = Storage.Io_stats.snapshot io in
  let upd = ref 0. and sync = ref 0. and syncs = ref 0 in
  Array.iteri
    (fun i ev ->
      let t0 = now () in
      ok "durable update" (apply_durable eng ev);
      upd := !upd +. (now () -. t0);
      if (i + 1) mod Load.write_window = 0 then begin
        let t0 = now () in
        ok "sync_wal" (Durable.sync_wal eng);
        sync := !sync +. (now () -. t0);
        incr syncs
      end)
    writes;
  let upd_io = Storage.Io_stats.(diff (snapshot io) io0) in
  let upd_touches = Rta.page_touches rta - touches0 in
  let wal_bytes = Wal.Stats.bytes wal - wal_bytes0 in
  let msyncs0 = Storage.Io_stats.msyncs io in
  let t0 = now () in
  ok "checkpoint" (Durable.checkpoint eng);
  let checkpoint_ms = (now () -. t0) *. 1e3 in
  let msyncs = Storage.Io_stats.msyncs io - msyncs0 in
  (* Updates straight into the trees, no WAL: the copy is thrown away. *)
  let t0 = now () in
  Array.iter (apply_rta rta) (Array.sub b n_updates n_updates);
  let rta_upd = now () -. t0 in
  Durable.close eng;
  Proc.rm_rf dir;
  wire w ~rects ~answers ~writes
  @ [
      ("durable.open_s", open_s);
      ("durable.update_us", us !upd n_updates);
      ("durable.sync_wal_us", us !sync !syncs);
      ("durable.checkpoint_ms", checkpoint_ms);
      ("wal.bytes_per_write", float_of_int wal_bytes /. float_of_int n_updates);
      ("rta.sum_count_us", us warm n_queries);
      ("rta.lkst_us", lkst);
      ("rta.lklt_us", lklt);
      ("rta.update_us", us rta_upd n_updates);
      ("rta.cold_sum_count_us", us !cold n_queries);
      ("mvsbt.touches_per_query", per_q touches);
      ("mvsbt.touches_per_update", float_of_int upd_touches /. float_of_int n_updates);
      ("mvsbt.height", float_of_int height);
      ("mvsbt.pages", float_of_int pages);
      ("mvsbt.records_per_page", float_of_int records /. float_of_int pages);
      ("pool.hit_ratio", if touches = 0 then 0. else 1. -. (float_of_int warm_io.reads /. float_of_int touches));
      ("pool.faults_per_query", per_q warm_io.reads);
      ("pool.writebacks_per_update", float_of_int upd_io.writes /. float_of_int n_updates);
      ("store.fault_us", fault_us);
      ("store.mapped_reads_per_query", per_q warm_io.mapped_reads);
      ("store.readaheads_per_query", per_q warm_io.readaheads);
      ("store.msync_ranges_per_checkpoint", float_of_int msyncs);
      ("store.disk_bytes", float_of_int disk_bytes);
    ]
