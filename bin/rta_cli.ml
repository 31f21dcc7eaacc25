(* Command-line driver for the range-temporal aggregation system.

   Subcommands:
     generate   — emit a workload as a text event stream
     build      — replay a workload into the 2-MVSBT index and report stats
                  (with --wal, through the durable write-ahead-logged engine)
     query      — build, then answer ad-hoc or random RTA queries
     compare    — build both 2-MVSBT and MVBT, run a query batch on each
     checkpoint — recover a durable warehouse, snapshot it, truncate its log
     recover    — recover a durable warehouse and report what was replayed
     scrub      — verify checkpoint and log checksums, repair from a twin warehouse
     fault-matrix — run a scripted workload under every crash cut, injected errno or
                  leader kill of one kind and check each recovery against an oracle
     serve      — serve the wire protocol over a durable warehouse (event loop,
                  group commit, admission control)
     netbench   — closed-loop load generator against a running serve instance *)

let setup_logs verbosity =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match verbosity with 0 -> Some Logs.Warning | 1 -> Some Logs.Info | _ -> Some Logs.Debug)

(* --- Shared argument bundles ------------------------------------------------ *)

open Cmdliner

let verbosity =
  let doc = "Verbosity (-v info, -vv debug)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  |> Term.map List.length

let spec_term =
  let records =
    let doc = "Number of tuple versions to generate." in
    Arg.(value & opt int 20_000 & info [ "n"; "records" ] ~doc)
  in
  let keys =
    let doc = "Number of unique keys (about records/100 by default)." in
    Arg.(value & opt (some int) None & info [ "keys" ] ~doc)
  in
  let max_key =
    let doc = "Key space upper bound (exclusive)." in
    Arg.(value & opt int 1_000_000_000 & info [ "max-key" ] ~doc)
  in
  let max_time =
    let doc = "Time space upper bound (exclusive)." in
    Arg.(value & opt int 100_000_000 & info [ "max-time" ] ~doc)
  in
  let normal =
    let doc = "Draw keys from a normal distribution instead of uniform." in
    Arg.(value & flag & info [ "normal-keys" ] ~doc)
  in
  let short =
    let doc = "Generate mainly short-lived intervals instead of long-lived." in
    Arg.(value & flag & info [ "short-intervals" ] ~doc)
  in
  let skew =
    let doc = "Zipf exponent for versions-per-key (0 = even, the paper's shape)." in
    Arg.(value & opt float 0. & info [ "skew" ] ~doc)
  in
  let seed =
    let doc = "Random seed." in
    Arg.(value & opt int 2001 & info [ "seed" ] ~doc)
  in
  let mk records keys max_key max_time normal short skew seed : Workload.Generator.spec =
    {
      n_records = records;
      n_keys = (match keys with Some k -> k | None -> max 1 (records / 100));
      max_key;
      max_time;
      key_distribution =
        (if normal then Workload.Generator.Normal { mean_frac = 0.5; stddev_frac = 0.1 }
         else Workload.Generator.Uniform);
      interval_style =
        (if short then Workload.Generator.Short_lived else Workload.Generator.Long_lived);
      value_bound = 1000;
      version_skew = skew;
      seed;
    }
  in
  Term.(const mk $ records $ keys $ max_key $ max_time $ normal $ short $ skew $ seed)

let mvsbt_config_term =
  let b =
    let doc = "Page capacity in records (default models 4KB pages)." in
    Arg.(value & opt int 170 & info [ "b" ] ~doc)
  in
  let f =
    let doc = "Strong factor in (0,1]." in
    Arg.(value & opt float 0.9 & info [ "f" ] ~doc)
  in
  let plain =
    let doc = "Use the unoptimised section-4.1 insertion algorithm." in
    Arg.(value & flag & info [ "plain" ] ~doc)
  in
  let no_merging =
    let doc = "Disable record merging (section 4.2.2)." in
    Arg.(value & flag & info [ "no-merging" ] ~doc)
  in
  let no_disposal =
    let doc = "Disable page disposal (section 4.2.3)." in
    Arg.(value & flag & info [ "no-disposal" ] ~doc)
  in
  let buffer =
    let doc = "LRU buffer pool capacity in pages." in
    Arg.(value & opt int 64 & info [ "buffer" ] ~doc)
  in
  let mk b f plain no_merging no_disposal buffer =
    ( { (Mvsbt.default_config ~b) with
        Mvsbt.f;
        variant = (if plain then Mvsbt.Plain else Mvsbt.Logical);
        merging = not no_merging;
        disposal = not no_disposal;
      },
      buffer )
  in
  Term.(const mk $ b $ f $ plain $ no_merging $ no_disposal $ buffer)

(* --- WAL / durability arguments ----------------------------------------------- *)

let sync_policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "never" -> Ok Wal.Never
    | "always" -> Ok Wal.Always
    | s ->
        let n =
          match String.index_opt s ':' with
          | Some i when String.sub s 0 i = "every" ->
              int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          | _ -> int_of_string_opt s
        in
        (match n with
        | Some n when n > 0 -> Ok (Wal.Every_n n)
        | _ -> Error (`Msg (Printf.sprintf "bad sync policy %S (never|always|every:N)" s)))
  in
  Arg.conv (parse, Wal.pp_sync_policy)

let sync_policy_term =
  let doc =
    "WAL fsync policy: $(b,never), $(b,always), or $(b,every:N) (group commit, one fsync \
     per N appends)."
  in
  Arg.(value & opt sync_policy_conv (Wal.Every_n 32) & info [ "sync" ] ~doc)

let checkpoint_every_term =
  let doc = "Checkpoint automatically every N logged updates (0 = manual only)." in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~doc)

let store_conv =
  let parse s =
    match Storage.Store_kind.of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "bad store kind %S (memory|mmap|file)" s))
  in
  Arg.conv (parse, Storage.Store_kind.pp)

let store_term =
  let doc =
    "Where the durable engine keeps its CRC-framed pages, which queries scan in place \
     under either: $(b,memory) (the default: the committed checkpoint's frames copied \
     into RAM at open, and the pages written since in RAM; no file but the WAL and \
     the checkpoints) or $(b,mmap) (the committed checkpoint mapped read-only, and the \
     pages written since in a memory-mapped overlay; falls back to RAM images where \
     mapping is unavailable, or when RTA_FORCE_NO_MMAP=1).  The overlays are a cache \
     that every open and checkpoint empties.  $(b,file) is another name for \
     $(b,mmap)."
  in
  Arg.(value & opt store_conv Storage.Store_kind.Memory & info [ "store" ] ~doc)

let wal_doc =
  "Durable-engine path prefix: the log lives at PREFIX.wal, the committed checkpoint \
   pointer at PREFIX.ckpt, and snapshot files at PREFIX.ckpt-<gen>.{lkst,lklt,meta}."

let wal_opt_term =
  Arg.(value & opt (some string) None & info [ "wal" ] ~doc:wal_doc ~docv:"PREFIX")

let wal_req_term =
  Arg.(required & opt (some string) None & info [ "wal" ] ~doc:wal_doc ~docv:"PREFIX")

let report_durable eng =
  let rta = Durable.warehouse eng in
  Printf.printf "  warehouse: %d updates, %d pages, now=%d, horizon=%d\n"
    (Rta.n_updates rta) (Rta.page_count rta) (Rta.now rta) (Durable.horizon eng);
  Format.printf "  wal: %a@." Wal.Stats.pp (Durable.wal_stats eng);
  Format.printf "  sync policy: %a; checkpoints this run: %d (since last: %d updates)@."
    Wal.pp_sync_policy (Durable.sync_policy eng) (Durable.checkpoints eng)
    (Durable.updates_since_checkpoint eng);
  Format.printf "  health: %a%a@." Durable.pp_health (Durable.health eng)
    (fun ppf () ->
      match Durable.last_error eng with
      | Some e -> Format.fprintf ppf " (last error: %a)" Storage.Storage_error.pp e
      | None -> ())
    ();
  Format.printf "  io: %a@." Storage.Io_stats.pp (Durable.io_stats eng)

(* --- Helpers ------------------------------------------------------------------ *)

let input_term =
  let doc = "Replay events from a trace file (as written by generate) instead of generating." in
  Arg.(value & opt (some file) None & info [ "input" ] ~doc)

let events_of ~spec ~input =
  match input with
  | Some path -> Workload.Trace.load ~path
  | None -> Workload.Generator.events spec

let build_rta ~spec ~config ~buffer ~input =
  let stats = Storage.Io_stats.create () in
  let rta =
    Rta.create ~config ~pool_capacity:buffer ~stats
      ~max_key:spec.Workload.Generator.max_key ()
  in
  let events = events_of ~spec ~input in
  let (), m =
    Storage.Cost_model.measure ~stats (fun () ->
        Workload.Trace.replay events
          ~insert:(fun ~key ~value ~at -> Rta.insert rta ~key ~value ~at)
          ~delete:(fun ~key ~at -> Rta.delete rta ~key ~at))
  in
  Logs.info (fun l -> l "replayed %d events" (List.length events));
  (rta, stats, m)

let report_build ~label (m : Storage.Cost_model.measurement) ~pages ~updates =
  Printf.printf "%s: built from %d updates\n" label updates;
  Printf.printf "  pages: %d (%.2f MB at 4KB)\n" pages (float_of_int pages *. 4096. /. 1e6);
  Printf.printf "  build: %d reads, %d writes, %.3f s CPU, %.3f s estimated\n" m.reads
    m.writes m.cpu_s m.estimated_s;
  Printf.printf "  per update: %.3f I/Os, %.4f ms estimated\n"
    (float_of_int (m.reads + m.writes) /. float_of_int updates)
    (m.estimated_s *. 1000. /. float_of_int updates)

(* --- Machine-parseable reports (--stats-json) --------------------------------- *)

let io_json (s : Telemetry.Io_stats.snapshot) =
  Telemetry.Json.Obj
    [ ("reads", Telemetry.Json.Int s.reads);
      ("writes", Telemetry.Json.Int s.writes);
      ("allocs", Telemetry.Json.Int s.allocs);
      ("frees", Telemetry.Json.Int s.frees);
      ("syncs", Telemetry.Json.Int s.syncs);
      ("crc_failures", Telemetry.Json.Int s.crc_failures);
      ("scrubbed", Telemetry.Json.Int s.scrubbed);
      ("repaired", Telemetry.Json.Int s.repaired);
      ("errors_injected", Telemetry.Json.Int s.errors_injected);
      ("retries", Telemetry.Json.Int s.retries);
      ("read_only_transitions", Telemetry.Json.Int s.read_only_transitions);
      ("pages_reclaimed", Telemetry.Json.Int s.pages_reclaimed);
      ("vacuum_steps", Telemetry.Json.Int s.vacuum_steps);
      ("total_io", Telemetry.Json.Int (Telemetry.Io_stats.snapshot_total_io s)) ]

let measurement_json (m : Storage.Cost_model.measurement) =
  Telemetry.Json.Obj
    [ ("reads", Telemetry.Json.Int m.reads);
      ("writes", Telemetry.Json.Int m.writes);
      ("cpu_s", Telemetry.Json.Float m.cpu_s);
      ("estimated_s", Telemetry.Json.Float m.estimated_s) ]

let health_string h = Format.asprintf "%a" Durable.pp_health h

let print_json j = print_endline (Telemetry.Json.to_string j)

let stats_json_term =
  let doc =
    "Emit the report as a single machine-parseable JSON object on stdout instead of the \
     human-readable text (for CI and scripting)."
  in
  Arg.(value & flag & info [ "stats-json" ] ~doc)

(* --- generate ------------------------------------------------------------------ *)

let generate verbosity spec out =
  setup_logs verbosity;
  let events = Workload.Generator.events spec in
  (match out with
  | Some path -> Workload.Trace.save events ~path
  | None -> Workload.Trace.save_channel events stdout);
  Logs.app (fun l -> l "wrote %d events" (List.length events))

let generate_cmd =
  let out =
    let doc = "Output file (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a transaction-time workload (TimeIT substitute)")
    Term.(const generate $ verbosity $ spec_term $ out)

(* --- build ----------------------------------------------------------------------- *)

let build_durable ~spec ~config ~buffer ~input ~path ~sync_policy ~checkpoint_every
    ~store ~stats_json =
  let stats = Storage.Io_stats.create () in
  let eng =
    Durable.open_ ~config ~pool_capacity:buffer ~stats ~sync_policy ~checkpoint_every
      ~store ~max_key:spec.Workload.Generator.max_key ~path ()
  in
  if (not stats_json) && Durable.replayed_on_open eng > 0 then
    Printf.printf "recovered %d logged updates before building\n"
      (Durable.replayed_on_open eng);
  let events = events_of ~spec ~input in
  let ok = Storage.Storage_error.ok_exn in
  let (), m =
    Storage.Cost_model.measure ~stats (fun () ->
        Workload.Trace.replay events
          ~insert:(fun ~key ~value ~at -> ok (Durable.insert eng ~key ~value ~at))
          ~delete:(fun ~key ~at -> ok (Durable.delete eng ~key ~at)))
  in
  let rta = Durable.warehouse eng in
  Rta.check_invariants rta;
  if stats_json then begin
    let wal_st = Durable.wal_stats eng in
    print_json
      (Telemetry.Json.Obj
         [ ("mode", Telemetry.Json.Str "build-durable");
           ("updates", Telemetry.Json.Int (Rta.n_updates rta));
           ("pages", Telemetry.Json.Int (Rta.page_count rta));
           ("replayed_on_open", Telemetry.Json.Int (Durable.replayed_on_open eng));
           ("checkpoints", Telemetry.Json.Int (Durable.checkpoints eng));
           ("health", Telemetry.Json.Str (health_string (Durable.health eng)));
           ("build", measurement_json m);
           ( "wal",
             Telemetry.Json.Obj
               [ ("appends", Telemetry.Json.Int (Wal.Stats.appends wal_st));
                 ("bytes", Telemetry.Json.Int (Wal.Stats.bytes wal_st));
                 ("fsyncs", Telemetry.Json.Int (Wal.Stats.fsyncs wal_st)) ] );
           ("io", io_json (Storage.Io_stats.snapshot stats));
           ("invariants", Telemetry.Json.Str "ok") ])
  end
  else begin
    report_build ~label:"2-MVSBT (durable)" m ~pages:(Rta.page_count rta)
      ~updates:(Rta.n_updates rta);
    Printf.printf "  invariants: ok\n";
    report_durable eng
  end;
  Durable.close eng

let build verbosity spec (config, buffer) input snapshot wal sync_policy checkpoint_every
    store stats_json =
  setup_logs verbosity;
  match wal with
  | Some path ->
      if snapshot <> None && not stats_json then
        Printf.printf "note: --save is ignored with --wal (use the checkpoint subcommand)\n";
      build_durable ~spec ~config ~buffer ~input ~path ~sync_policy ~checkpoint_every
        ~store ~stats_json
  | None -> (
      let rta, stats, m = build_rta ~spec ~config ~buffer ~input in
      Rta.check_invariants rta;
      if stats_json then
        print_json
          (Telemetry.Json.Obj
             [ ("mode", Telemetry.Json.Str "build");
               ("updates", Telemetry.Json.Int (Rta.n_updates rta));
               ("pages", Telemetry.Json.Int (Rta.page_count rta));
               ("health", Telemetry.Json.Str (health_string Durable.Healthy));
               ("build", measurement_json m);
               ("io", io_json (Storage.Io_stats.snapshot stats));
               ("invariants", Telemetry.Json.Str "ok") ])
      else begin
        report_build ~label:"2-MVSBT" m ~pages:(Rta.page_count rta)
          ~updates:(Rta.n_updates rta);
        Printf.printf "  invariants: ok\n"
      end;
      match snapshot with
      | Some path ->
          Rta.save rta ~path;
          if not stats_json then
            Printf.printf "  snapshot saved to %s.{lkst,lklt,meta}\n" path
      | None -> ())

let snapshot_out_term =
  let doc = "Save the built index as a snapshot (three files under this prefix)." in
  Arg.(value & opt (some string) None & info [ "save" ] ~doc)

let build_cmd =
  Cmd.v
    (Cmd.info "build" ~doc:"Build the two-MVSBT index from a generated or replayed workload")
    Term.(const build $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ snapshot_out_term $ wal_opt_term $ sync_policy_term $ checkpoint_every_term
          $ store_term $ stats_json_term)

(* --- query ----------------------------------------------------------------------- *)

let query verbosity spec (config, buffer) input snapshot rect_opt n_random qrs =
  setup_logs verbosity;
  let rta, stats =
    match snapshot with
    | Some path ->
        let stats = Storage.Io_stats.create () in
        (Rta.load ~pool_capacity:buffer ~stats ~snapshot:path (), stats)
    | None ->
        let rta, stats, _ = build_rta ~spec ~config ~buffer ~input in
        (rta, stats)
  in
  let run (klo, khi, tlo, thi) =
    let (sum, count), m =
      Storage.Cost_model.measure ~stats (fun () -> Rta.sum_count rta ~klo ~khi ~tlo ~thi)
    in
    Printf.printf "[%d, %d) x [%d, %d): SUM=%d COUNT=%d AVG=%s  (%d I/Os, %.2f ms est)\n"
      klo khi tlo thi sum count
      (if count = 0 then "-" else Printf.sprintf "%.3f" (float_of_int sum /. float_of_int count))
      (m.reads + m.writes) (m.estimated_s *. 1000.)
  in
  (match rect_opt with
  | Some r -> run r
  | None ->
      let rng = Workload.Rng.create ~seed:(spec.Workload.Generator.seed + 1) in
      let rects =
        Workload.Query_gen.batch rng ~n:n_random ~max_key:spec.max_key
          ~max_time:spec.max_time ~qrs ~r_over_i:1.0
      in
      List.iter (fun (r : Workload.Query_gen.rect) -> run (r.klo, r.khi, r.tlo, r.thi)) rects)

let query_cmd =
  let rect =
    let doc = "Explicit query rectangle KLO,KHI,TLO,THI." in
    Arg.(value & opt (some (t4 int int int int)) None & info [ "rect" ] ~doc)
  in
  let n_random =
    let doc = "Number of random queries when no --rect is given." in
    Arg.(value & opt int 5 & info [ "queries" ] ~doc)
  in
  let qrs =
    let doc = "Query rectangle size as an area fraction for random queries." in
    Arg.(value & opt float 0.01 & info [ "qrs" ] ~doc)
  in
  let snapshot_in =
    let doc = "Load the index from a snapshot prefix instead of building." in
    Arg.(value & opt (some string) None & info [ "load" ] ~doc)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer RTA queries over a built or loaded index")
    Term.(const query $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ snapshot_in $ rect $ n_random $ qrs)

(* --- compare ----------------------------------------------------------------------- *)

let compare_cmd_impl verbosity spec (config, buffer) input qrs n =
  setup_logs verbosity;
  let rta, rta_stats, m2 = build_rta ~spec ~config ~buffer ~input in
  let mvbt_stats = Storage.Io_stats.create () in
  let mvbt =
    Mvbt.create
      ~config:(Mvbt.default_config ~b:256)
      ~pool_capacity:buffer ~stats:mvbt_stats ~max_key:spec.max_key ()
  in
  let (), m1 =
    Storage.Cost_model.measure ~stats:mvbt_stats (fun () ->
        Workload.Trace.replay (events_of ~spec ~input)
          ~insert:(fun ~key ~value ~at -> Mvbt.insert mvbt ~key ~value ~at)
          ~delete:(fun ~key ~at -> Mvbt.delete mvbt ~key ~at))
  in
  report_build ~label:"MVBT (baseline)" m1 ~pages:(Mvbt.page_count mvbt)
    ~updates:(Mvbt.n_updates mvbt);
  report_build ~label:"2-MVSBT" m2 ~pages:(Rta.page_count rta) ~updates:(Rta.n_updates rta);
  let rng = Workload.Rng.create ~seed:(spec.seed + 7) in
  let rects =
    Workload.Query_gen.batch rng ~n ~max_key:spec.max_key ~max_time:spec.max_time ~qrs
      ~r_over_i:1.0
  in
  Mvbt.drop_cache mvbt;
  Rta.drop_cache rta;
  let naive, mn =
    Storage.Cost_model.measure ~stats:mvbt_stats (fun () ->
        List.map
          (fun (r : Workload.Query_gen.rect) ->
            let { Naive_rta.sum; count } =
              Naive_rta.sum_count mvbt ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi
            in
            (sum, count))
          rects)
  in
  let ours, mo =
    Storage.Cost_model.measure ~stats:rta_stats (fun () ->
        List.map
          (fun (r : Workload.Query_gen.rect) ->
            Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi)
          rects)
  in
  let agree = naive = ours in
  Printf.printf "query batch (%d queries at QRS=%.4f): results agree: %b\n" n qrs agree;
  Printf.printf "  MVBT naive : %d I/Os, %.4f s estimated\n" (mn.reads + mn.writes)
    mn.estimated_s;
  Printf.printf "  2-MVSBT    : %d I/Os, %.4f s estimated\n" (mo.reads + mo.writes)
    mo.estimated_s;
  Printf.printf "  speedup    : %.1fx\n" (mn.estimated_s /. mo.estimated_s);
  if not agree then exit 1

let compare_cmd =
  let qrs =
    let doc = "Query rectangle size as an area fraction." in
    Arg.(value & opt float 0.01 & info [ "qrs" ] ~doc)
  in
  let n =
    let doc = "Number of queries in the batch." in
    Arg.(value & opt int 100 & info [ "queries" ] ~doc)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Build both the 2-MVSBT and the MVBT baseline and race a query batch")
    Term.(const compare_cmd_impl $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ qrs $ n)

(* --- checkpoint / recover -------------------------------------------------------- *)

let engine_max_key_term =
  let doc = "Key space upper bound the engine was created with." in
  Arg.(value & opt int 1_000_000_000 & info [ "max-key" ] ~doc)

let engine_buffer_term =
  let doc = "LRU buffer pool capacity in pages." in
  Arg.(value & opt int 64 & info [ "buffer" ] ~doc)

let checkpoint_impl verbosity max_key buffer wal sync_policy store =
  setup_logs verbosity;
  let eng =
    Durable.open_ ~pool_capacity:buffer ~sync_policy ~store ~max_key ~path:wal ()
  in
  Printf.printf "recovered: %d WAL records replayed on open\n" (Durable.replayed_on_open eng);
  (match Durable.checkpoint eng with
  | Ok () ->
      Printf.printf
        "checkpoint committed under %s.ckpt-<gen>.{lkst,lklt,meta}; log truncated\n" wal
  | Error e ->
      Format.printf "checkpoint failed: %a (previous checkpoint and WAL intact)@."
        Storage.Storage_error.pp e;
      report_durable eng;
      Durable.close eng;
      exit 1);
  report_durable eng;
  Durable.close eng

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Recover a durable warehouse, snapshot it, and truncate its log")
    Term.(const checkpoint_impl $ verbosity $ engine_max_key_term $ engine_buffer_term
          $ wal_req_term $ sync_policy_term $ store_term)

let recover_impl verbosity max_key buffer wal sync_policy store rect_opt stats_json =
  setup_logs verbosity;
  let eng =
    Durable.open_ ~pool_capacity:buffer ~sync_policy ~store ~max_key ~path:wal ()
  in
  let rta = Durable.warehouse eng in
  Rta.check_invariants rta;
  if stats_json then begin
    let r = Durable.recovery_report eng in
    print_json
      (Telemetry.Json.Obj
         [ ("mode", Telemetry.Json.Str "recover");
           ("replayed", Telemetry.Json.Int r.Durable.replayed);
           ("dropped_bytes", Telemetry.Json.Int r.Durable.dropped_bytes);
           ( "checkpoint_gen",
             match r.Durable.checkpoint_gen with
             | Some g -> Telemetry.Json.Int g
             | None -> Telemetry.Json.Null );
           ("updates", Telemetry.Json.Int (Rta.n_updates rta));
           ("pages", Telemetry.Json.Int (Rta.page_count rta));
           ("health", Telemetry.Json.Str (health_string (Durable.health eng)));
           ("io", io_json (Storage.Io_stats.snapshot (Durable.io_stats eng)));
           ("invariants", Telemetry.Json.Str "ok") ])
  end
  else begin
    Format.printf "recovered %s: %a@." wal Durable.pp_recovery_report
      (Durable.recovery_report eng);
    Printf.printf "  invariants: ok\n";
    report_durable eng
  end;
  (match rect_opt with
  | Some (klo, khi, tlo, thi) ->
      let sum, count = Durable.sum_count eng ~klo ~khi ~tlo ~thi in
      if not stats_json then
        Printf.printf "[%d, %d) x [%d, %d): SUM=%d COUNT=%d AVG=%s\n" klo khi tlo thi sum
          count
          (if count = 0 then "-"
           else Printf.sprintf "%.3f" (float_of_int sum /. float_of_int count))
  | None -> ());
  Durable.close eng

let recover_cmd =
  let rect =
    let doc = "Sanity query rectangle KLO,KHI,TLO,THI to run after recovery." in
    Arg.(value & opt (some (t4 int int int int)) None & info [ "rect" ] ~doc)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a durable warehouse from its checkpoint and log and report its state")
    Term.(const recover_impl $ verbosity $ engine_max_key_term $ engine_buffer_term
          $ wal_req_term $ sync_policy_term $ store_term $ rect $ stats_json_term)

(* --- vacuum ----------------------------------------------------------------------- *)

let vacuum_impl verbosity max_key buffer wal sync_policy store horizon
    max_pages_per_step crash_after_steps stats_json =
  setup_logs verbosity;
  let eng =
    Durable.open_ ~pool_capacity:buffer ~sync_policy ~store ~max_key ~path:wal ()
  in
  let rta = Durable.warehouse eng in
  let horizon =
    match horizon with Some h -> h | None -> max (Durable.horizon eng) (Rta.now rta / 2)
  in
  (match crash_after_steps with
  | None -> ()
  | Some n -> (
      (* Test hook for the CI kill drill: log the horizon and the first
         [n] chunks, then die without closing or truncating anything —
         the moral equivalent of kill -9 mid-vacuum.  A later [recover]
         or [vacuum] must converge from whatever the WAL holds. *)
      match Durable.vacuum_begin eng ~horizon with
      | Error e ->
          Format.eprintf "vacuum-begin failed: %a@." Storage.Storage_error.pp e;
          exit 1
      | Ok () ->
          let chunks = Rta.vacuum_plan ~max_pages:max_pages_per_step rta in
          let applied = ref 0 in
          (try
             List.iter
               (fun chunk ->
                 if !applied >= n then raise Exit;
                 match Durable.vacuum_chunk eng chunk with
                 | Ok _ -> incr applied
                 | Error e ->
                     Format.eprintf "vacuum chunk failed: %a@." Storage.Storage_error.pp e;
                     raise Exit)
               chunks
           with Exit -> ());
          Printf.eprintf "crash-after-steps: dying after %d of %d chunks\n%!" !applied
            (List.length chunks);
          Unix._exit 137));
  (match Durable.vacuum ~max_pages_per_step eng ~horizon with
  | Error e ->
      Format.eprintf "vacuum failed: %a@." Storage.Storage_error.pp e;
      Durable.close eng;
      exit 1
  | Ok r ->
      let p = r.Rta.v_progress in
      if stats_json then
        print_json
          (Telemetry.Json.Obj
             [ ("mode", Telemetry.Json.Str "vacuum");
               ("horizon", Telemetry.Json.Int r.Rta.v_horizon);
               ("steps", Telemetry.Json.Int r.Rta.v_steps);
               ("pages_freed", Telemetry.Json.Int p.Rta.pages_freed);
               ("pages_pruned", Telemetry.Json.Int p.Rta.pages_pruned);
               ("records_dropped", Telemetry.Json.Int p.Rta.records_dropped);
               ("updates", Telemetry.Json.Int (Rta.n_updates rta));
               ("pages", Telemetry.Json.Int (Rta.page_count rta));
               ("health", Telemetry.Json.Str (health_string (Durable.health eng)));
               ("io", io_json (Storage.Io_stats.snapshot (Durable.io_stats eng))) ])
      else begin
        Printf.printf
          "vacuumed %s to horizon %d: %d chunks, %d pages freed, %d pruned, %d records \
           dropped\n"
          wal r.Rta.v_horizon r.Rta.v_steps p.Rta.pages_freed p.Rta.pages_pruned
          p.Rta.records_dropped;
        report_durable eng
      end);
  Durable.close eng

let vacuum_cmd =
  let horizon =
    let doc =
      "Retention horizon: versions whose lifetime ended at or before this instant are \
       reclaimed, and queries reaching below it are refused.  Defaults to half the \
       store's current time."
    in
    Arg.(value & opt (some int) None & info [ "horizon" ] ~doc ~docv:"T")
  in
  let max_pages_per_step =
    let doc = "Pages reclaimed per WAL-logged vacuum chunk (bounds pause length)." in
    Arg.(value & opt int 128 & info [ "max-pages-per-step" ] ~doc ~docv:"N")
  in
  let crash_after_steps =
    let doc =
      "Fault-injection hook: apply N vacuum chunks, then exit abruptly (137) without \
       closing the store, simulating kill -9 mid-vacuum."
    in
    Arg.(value & opt (some int) None & info [ "crash-after-steps" ] ~doc ~docv:"N")
  in
  Cmd.v
    (Cmd.info "vacuum"
       ~doc:
         "Recover a durable warehouse, raise its retention horizon, and reclaim dead \
          pages (crash-safe: every step is WAL-logged before it is applied)")
    Term.(const vacuum_impl $ verbosity $ engine_max_key_term $ engine_buffer_term
          $ wal_req_term $ sync_policy_term $ store_term $ horizon $ max_pages_per_step
          $ crash_after_steps $ stats_json_term)

(* --- scrub ------------------------------------------------------------------------ *)

(* A small deterministic workload for [--demo]: enough churn to spread
   records over a few dozen pages of both MVSBTs. *)
let demo_updates ~n ~seed =
  let rng = Random.State.make [| seed; 0xdead |] in
  let alive = Hashtbl.create 64 in
  let now = ref 0 in
  let max_key = 256 in
  List.init n (fun _ ->
      now := !now + Random.State.int rng 3;
      let key = Random.State.int rng max_key in
      if Hashtbl.length alive = max_key
         || (Hashtbl.mem alive key && Random.State.bool rng) then begin
        let key = ref key in
        while not (Hashtbl.mem alive !key) do
          key := (!key + 1) mod max_key
        done;
        Hashtbl.remove alive !key;
        `Delete (!key, !now)
      end
      else begin
        let key = ref key in
        while Hashtbl.mem alive !key do
          key := (!key + 1) mod max_key
        done;
        Hashtbl.add alive !key ();
        `Insert (!key, 1 + Random.State.int rng 1000, !now)
      end)

(* A fresh demo warehouse at [path]: the files of any earlier one go,
   then [n] updates through the engine and one checkpoint. *)
let build_demo_warehouse ~n ~seed ~path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      if List.exists (fun ext -> String.starts_with ~prefix:(base ^ ext) f) [ ".wal"; ".ckpt" ]
      then Sys.remove (Filename.concat dir f))
    (try Sys.readdir dir with Sys_error _ -> [||]);
  let eng = Durable.open_ ~max_key:256 ~path () in
  let ok = Storage.Storage_error.ok_exn in
  List.iter
    (function
      | `Insert (key, value, at) -> ok (Durable.insert eng ~key ~value ~at)
      | `Delete (key, at) -> ok (Durable.delete eng ~key ~at))
    (demo_updates ~n ~seed);
  ok (Durable.checkpoint eng);
  Durable.close eng

let run_scrub ~quiet ~stats ?repair_from ~path () =
  let report = Durable.scrub ~stats ?repair_from ~path () in
  if not quiet then Format.printf "scrub %s: %a@." path Durable.pp_scrub_report report;
  report

let scrub_chunks_json chunks =
  Telemetry.Json.List
    (List.map
       (fun (c : Durable.chunk) ->
         Telemetry.Json.Obj
           [ ("file", Telemetry.Json.Str (Filename.basename c.file));
             ("chunk", Telemetry.Json.Int c.index) ])
       chunks)

let scrub_impl verbosity path inject seed repair_from demo stats_json =
  setup_logs verbosity;
  let stats = Storage.Io_stats.create () in
  let repair_from =
    match (repair_from, demo) with
    | Some p, _ -> Some p
    | None, Some n ->
        (* Self-contained round trip: build the warehouse and a twin,
           corrupt the former, repair from the latter. *)
        build_demo_warehouse ~n ~seed ~path;
        build_demo_warehouse ~n ~seed ~path:(path ^ ".ref");
        if not stats_json then
          Printf.printf "demo: built %d-update warehouse at %s (+ twin at %s.ref)\n" n path
            path;
        Some (path ^ ".ref")
    | None, None -> None
  in
  let injected =
    match inject with
    | Some flips when flips > 0 ->
        let hits = Durable.inject_bit_flips ~path ~seed ~flips () in
        if not stats_json then
          Printf.printf "injected single-bit flips into %d checkpoint chunks\n"
            (List.length hits);
        List.length hits
    | _ -> 0
  in
  let report = run_scrub ~quiet:stats_json ~stats ?repair_from ~path () in
  let final =
    if report.Durable.repaired <> [] then run_scrub ~quiet:stats_json ~stats ~path ()
    else report
  in
  (* A flip the scrub did not find means the injection never reached the
     file, so the round trip has checked nothing. *)
  let missed = List.length report.Durable.corrupt < injected in
  if missed && not stats_json then
    Printf.printf "scrub found %d corrupt chunks, %d were injected\n"
      (List.length report.Durable.corrupt) injected;
  let ok = (not missed) && Durable.scrub_clean final in
  if stats_json then
    print_json
      (Telemetry.Json.Obj
         [ ("mode", Telemetry.Json.Str "scrub");
           ("chunks_checked", Telemetry.Json.Int report.Durable.chunks_checked);
           ("corrupt", scrub_chunks_json report.Durable.corrupt);
           ("repaired", scrub_chunks_json report.Durable.repaired);
           ("irreparable", scrub_chunks_json report.Durable.irreparable);
           ("wal_frames", Telemetry.Json.Int report.Durable.wal_frames);
           ( "wal_corrupt",
             Telemetry.Json.List
               (List.map (fun o -> Telemetry.Json.Int o) report.Durable.wal_corrupt) );
           ("clean_after_repair", Telemetry.Json.Bool (Durable.scrub_clean final));
           ("ok", Telemetry.Json.Bool ok);
           ( "health",
             Telemetry.Json.Str
               (health_string (if ok then Durable.Healthy else Durable.Degraded)) );
           ("io", io_json (Storage.Io_stats.snapshot stats)) ])
  else Format.printf "  io: %a@." Storage.Io_stats.pp stats;
  if not ok then exit 1

let scrub_cmd =
  let path =
    let doc =
      "Warehouse path prefix, as $(b,--wal) names it: scrub checks the committed \
       checkpoint (PREFIX.ckpt-<gen>.{lkst,lklt,meta}) and the log (PREFIX.wal)."
    in
    Arg.(required & opt (some string) None & info [ "path" ] ~doc ~docv:"PREFIX")
  in
  let inject =
    let doc =
      "First flip one random bit in each of N distinct chunks of the committed \
       checkpoint's snapshots (testing/demo); the scrub must then find every flipped \
       chunk."
    in
    Arg.(value & opt (some int) None & info [ "inject-flips" ] ~doc ~docv:"N")
  in
  let seed =
    let doc = "Random seed for --inject-flips." in
    Arg.(value & opt int 7 & info [ "seed" ] ~doc)
  in
  let repair_from =
    let doc =
      "Path prefix of a twin warehouse to repair corrupt chunks from: built from the \
       same updates and checkpointed at the same update count."
    in
    Arg.(value & opt (some string) None & info [ "repair-from" ] ~doc ~docv:"PREFIX")
  in
  let demo =
    let doc =
      "Build a fresh N-update demo warehouse at the prefix (plus a twin at PREFIX.ref), \
       each through the engine with one checkpoint, before scrubbing — a \
       self-contained corruption round trip with --inject-flips."
    in
    Arg.(value & opt (some int) None & info [ "demo" ] ~doc ~docv:"N")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify the checksums of what recovery reads — every chunk of a warehouse's \
          committed checkpoint and every frame of its log — and repair corrupt chunks \
          from a twin (exits 1 if corruption remains, or if it finds fewer corrupt \
          chunks than --inject-flips flipped).  The log is only checked, never \
          repaired.")
    Term.(const scrub_impl $ verbosity $ path $ inject $ seed $ repair_from $ demo
          $ stats_json_term)

(* --- fault-matrix ------------------------------------------------------------------- *)

(* Per preset: updates, its cap under --smoke, the smoke run's --limit,
   seed, and --checkpoint-every.  The replica preset's script is
   [Failover.default_spec]'s. *)
let matrix_defaults = function
  | `Crash -> (120, 60, 80, 1, 40)
  | `Vacuum -> (110, 80, 120, 1, 40)
  | `Errsweep -> (120, 60, 60, 1, 0)
  | `Replica ->
      let d = Faultsim.Failover.default_spec in
      (d.updates, 48, 36, d.seed, 0)

let fault_matrix_impl verbosity preset updates max_key seed sync_policy checkpoint_every store
    classes limit smoke =
  setup_logs verbosity;
  let name = fst (List.find (fun (_, p) -> p = preset) Faultsim.Scenario.presets) in
  let refuse flag =
    Printf.eprintf "fault-matrix %s: %s does not apply to this preset\n" name flag;
    exit 2
  in
  if classes <> [] && preset <> `Errsweep then refuse "--class";
  if (preset = `Errsweep || preset = `Replica) && store = Some Storage.Store_kind.Mmap then
    refuse "--store mmap";
  if preset = `Replica && sync_policy <> None then refuse "--sync";
  if preset = `Replica && checkpoint_every <> None then refuse "--checkpoint-every";
  let d_updates, smoke_updates, smoke_limit, d_seed, d_checkpoint = matrix_defaults preset in
  let updates = Option.value updates ~default:d_updates in
  let updates, limit =
    if smoke then (min updates smoke_updates, Some (Option.value limit ~default:smoke_limit))
    else (updates, limit)
  in
  let seed = Option.value seed ~default:d_seed in
  let sync_policy = Option.value sync_policy ~default:(Wal.Every_n 32) in
  let checkpoint_every = Option.value checkpoint_every ~default:d_checkpoint in
  let store = Option.value store ~default:Storage.Store_kind.Memory in
  let script = Faultsim.Scenario.script preset ~seed ~updates ~max_key in
  let setting, report =
    match preset with
    | `Crash | `Vacuum ->
        let horizons =
          Array.to_list script.steps
          |> List.filter_map (function
               | Faultsim.Scenario.Vacuum { horizon } -> Some (string_of_int horizon)
               | _ -> None)
        in
        ( Format.asprintf "%a, checkpoint every %d, %a store%s" Wal.pp_sync_policy sync_policy
            checkpoint_every Storage.Store_kind.pp store
            (if horizons = [] then "" else ", horizons " ^ String.concat "," horizons),
          Faultsim.Scenario.crash ?limit ~store
            (Faultsim.Scenario.record ~sync_policy ~checkpoint_every script) )
    | `Errsweep ->
        let classes = if classes = [] then Storage.Vfs.Inject.all_classes else classes in
        ( Format.asprintf "%a, checkpoint every %d, classes %s" Wal.pp_sync_policy sync_policy
            checkpoint_every
            (String.concat "," (List.map Storage.Vfs.Inject.class_name classes)),
          Faultsim.Scenario.errno ~classes ?limit ~sync_policy ~checkpoint_every script )
    | `Replica ->
        let spec = { Faultsim.Failover.default_spec with seed; max_key; updates } in
        ( Printf.sprintf "batches of %d, sync_replicas %d" spec.batch spec.sync_replicas,
          Faultsim.Failover.run ?limit spec )
  in
  Format.printf "fault-matrix %s (%d updates, seed %d, %s): %a@." name updates seed setting
    Faultsim.Scenario.pp_report report;
  if report.violations <> [] then exit 1

let fault_matrix_cmd =
  let preset =
    let doc =
      "$(b,crash): recover every post-crash image of an update trace.  $(b,vacuum): the \
       same over a trace that vacuums twice in 4-page chunks.  $(b,errsweep): fail each \
       syscall of a trace with one errno class, then heal and recover.  $(b,replica): \
       kill a simulated leader at every replication boundary and promote a follower."
    in
    Arg.(required & pos 0 (some (enum Faultsim.Scenario.presets)) None
         & info [] ~doc ~docv:"PRESET")
  in
  let some_int names doc = Arg.(value & opt (some int) None & info names ~doc ~docv:"N") in
  let updates =
    some_int [ "updates" ]
      "Updates in the script (default 120; 110 under vacuum, 96 under replica)."
  in
  let max_key =
    let doc = "Key space of the script." in
    Arg.(value & opt int 24 & info [ "max-key" ] ~doc)
  in
  let seed = some_int [ "seed" ] "Random seed for the script (default 1; 11 under replica)." in
  let sync_policy =
    let doc = "WAL fsync policy of the engine under test (default every:32; not replica)." in
    Arg.(value & opt (some sync_policy_conv) None & info [ "sync" ] ~doc)
  in
  let checkpoint_every =
    some_int [ "checkpoint-every" ]
      "Checkpoint automatically every N WAL records (default 40; 0 under errsweep, which \
       checkpoints halfway; not replica)."
  in
  let store =
    let doc = "Page store each recovery runs under: $(b,memory) or $(b,mmap) (crash and vacuum)." in
    Arg.(value & opt (some store_conv) None & info [ "store" ] ~doc)
  in
  let classes =
    let err_class_conv =
      let parse s =
        match Storage.Vfs.Inject.class_of_string s with
        | Some c -> Ok c
        | None ->
            Error (`Msg (Printf.sprintf "unknown errno class %S (enospc|eio|eintr|short)" s))
      in
      Arg.conv (parse, Storage.Vfs.Inject.pp_class)
    in
    let doc = "Errno class to sweep (repeatable; errsweep only); default all four." in
    Arg.(value & opt_all err_class_conv [] & info [ "class" ] ~doc ~docv:"CLASS")
  in
  let limit =
    some_int [ "limit" ]
      "Check at most N crash images or kill points (stride-sampled), or N evenly spaced \
       fault points per class; default all."
  in
  let smoke =
    let doc =
      "Bounded CI run: at most 60 updates and 80 images (crash), 80 and 120 (vacuum), 60 \
       and 60 points per class (errsweep), 48 and 36 kill points (replica)."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  Cmd.v
    (Cmd.info "fault-matrix"
       ~doc:
         "Run a scripted workload under every fault of one kind and check what each \
          recovery finds against bounds and a brute-force oracle (exits 1 on any violation)")
    Term.(const fault_matrix_impl $ verbosity $ preset $ updates $ max_key $ seed $ sync_policy
          $ checkpoint_every $ store $ classes $ limit $ smoke)

(* --- trace / metrics / profile (telemetry) ---------------------------------------- *)

module Tracer = Telemetry.Tracer

(* Build a warehouse with an enabled tracer wired through the whole stack
   and the same Io_stats underneath, so spans carry real I/O deltas. *)
let build_with_tracer ~spec ~config ~buffer ~input ~sink =
  let stats = Storage.Io_stats.create () in
  let tracer = Tracer.create ~stats ~debug:true sink in
  let rta =
    Rta.create ~config ~pool_capacity:buffer ~stats ~telemetry:tracer
      ~max_key:spec.Workload.Generator.max_key ()
  in
  let events = events_of ~spec ~input in
  Workload.Trace.replay events
    ~insert:(fun ~key ~value ~at -> Rta.insert rta ~key ~value ~at)
    ~delete:(fun ~key ~at -> Rta.delete rta ~key ~at);
  (rta, stats)

let query_rects ~spec ~n ~qrs =
  let rng = Workload.Rng.create ~seed:(spec.Workload.Generator.seed + 11) in
  Workload.Query_gen.batch rng ~n ~max_key:spec.Workload.Generator.max_key
    ~max_time:spec.Workload.Generator.max_time ~qrs ~r_over_i:1.0

let run_query_batch rta rects =
  List.iter
    (fun (r : Workload.Query_gen.rect) ->
      ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi))
    rects

(* Ring capacity large enough that a full build + query sweep is retained. *)
let ring_capacity ~spec ~n_queries =
  max 65_536 (8 * (spec.Workload.Generator.n_records + n_queries))

let queries_term =
  let doc = "Number of random RTA queries to run after the build." in
  Arg.(value & opt int 100 & info [ "queries" ] ~doc)

let qrs_term =
  let doc = "Query rectangle size as an area fraction." in
  Arg.(value & opt float 0.01 & info [ "qrs" ] ~doc)

let with_out_channel out f =
  match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> f oc
  | None -> f stdout

let trace_impl verbosity spec (config, buffer) input n_queries qrs chrome out =
  setup_logs verbosity;
  let rects = query_rects ~spec ~n:n_queries ~qrs in
  if chrome then begin
    (* Collect in memory, render the whole trace_event document at the end. *)
    let mem = Tracer.Memory.create ~capacity:(ring_capacity ~spec ~n_queries) () in
    let rta, _ = build_with_tracer ~spec ~config ~buffer ~input ~sink:(Tracer.Memory.sink mem) in
    run_query_batch rta rects;
    let doc = Tracer.chrome_trace ~events:(Tracer.Memory.events mem) (Tracer.Memory.spans mem) in
    with_out_channel out (fun oc ->
        output_string oc (Telemetry.Json.to_string doc);
        output_char oc '\n');
    Logs.app (fun l ->
        l "chrome trace: %d spans, %d events%s — open in about://tracing or ui.perfetto.dev"
          (List.length (Tracer.Memory.spans mem))
          (List.length (Tracer.Memory.events mem))
          (if Tracer.Memory.dropped mem > 0 then
             Printf.sprintf " (%d dropped)" (Tracer.Memory.dropped mem)
           else ""))
  end
  else
    (* JSONL streams as spans complete — no ring, nothing dropped. *)
    with_out_channel out @@ fun oc ->
    let n = ref 0 in
    let sink =
      Tracer.jsonl_sink (fun line ->
          incr n;
          output_string oc line;
          output_char oc '\n')
    in
    let rta, _ = build_with_tracer ~spec ~config ~buffer ~input ~sink in
    run_query_batch rta rects;
    Logs.app (fun l -> l "jsonl trace: %d lines" !n)

let trace_cmd =
  let chrome =
    let doc =
      "Emit one Chrome trace_event JSON document (load in about://tracing or \
       https://ui.perfetto.dev) instead of streaming JSONL span lines."
    in
    Arg.(value & flag & info [ "chrome" ] ~doc)
  in
  let out =
    let doc = "Output file (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Build a workload and a query sweep with tracing enabled and write the span \
          stream (JSONL, or a Chrome trace with --chrome)")
    Term.(const trace_impl $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ queries_term $ qrs_term $ chrome $ out)

let health_gauge_value = function
  | Durable.Healthy -> 0.
  | Durable.Degraded -> 1.
  | Durable.Read_only -> 2.

let populate_registry reg ~stats ~spans rta =
  Telemetry.Metrics.absorb_io_stats reg (Storage.Io_stats.snapshot stats);
  Telemetry.Metrics.observe_spans reg spans;
  let gauge name help v =
    Telemetry.Metrics.set_gauge (Telemetry.Metrics.gauge reg ~help name) v
  in
  gauge "rta_pages" "Live pages over both MVSBTs." (float_of_int (Rta.page_count rta));
  gauge "rta_tree_height" "Height of the taller current SB-tree."
    (float_of_int (Rta.height rta));
  gauge "rta_version_chain_roots"
    "SB-tree roots over both MVSBTs (length of the root* version chains)."
    (float_of_int (Rta.root_count rta));
  gauge "rta_alive_tuples" "Currently alive tuples in the base table."
    (float_of_int (Rta.alive_count rta));
  Telemetry.Metrics.set_counter
    (Telemetry.Metrics.counter reg ~help:"Total inserts + deletes applied." "rta_updates_total")
    (Rta.n_updates rta);
  Telemetry.Metrics.set_counter
    (Telemetry.Metrics.counter reg
       ~help:"Cumulative logical page touches over both MVSBTs (cache hits included)."
       "rta_page_touches_total")
    (Rta.page_touches rta)

let metrics_impl verbosity spec (config, buffer) input n_queries qrs wal sync_policy
    store as_json =
  setup_logs verbosity;
  let mem = Tracer.Memory.create ~capacity:(ring_capacity ~spec ~n_queries) () in
  let reg = Telemetry.Metrics.create () in
  let rects = query_rects ~spec ~n:n_queries ~qrs in
  let touch_hist =
    Telemetry.Metrics.histogram reg
      ~help:"Logical page touches per RTA range query (six point queries)."
      "query_page_touches"
  in
  let run_queries rta =
    List.iter
      (fun (r : Workload.Query_gen.rect) ->
        let t0 = Rta.page_touches rta in
        ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi);
        Telemetry.Metrics.observe touch_hist (float_of_int (Rta.page_touches rta - t0)))
      rects
  in
  (match wal with
  | None ->
      let rta, stats = build_with_tracer ~spec ~config ~buffer ~input ~sink:(Tracer.Memory.sink mem) in
      run_queries rta;
      populate_registry reg ~stats ~spans:(Tracer.Memory.spans mem) rta
  | Some path ->
      (* Through the durable engine: WAL and health metrics exist here. *)
      let stats = Storage.Io_stats.create () in
      let tracer = Tracer.create ~stats ~debug:true (Tracer.Memory.sink mem) in
      let eng =
        Durable.open_ ~config ~pool_capacity:buffer ~stats ~sync_policy ~store
          ~telemetry:tracer ~max_key:spec.Workload.Generator.max_key ~path ()
      in
      let ok = Storage.Storage_error.ok_exn in
      Workload.Trace.replay (events_of ~spec ~input)
        ~insert:(fun ~key ~value ~at -> ok (Durable.insert eng ~key ~value ~at))
        ~delete:(fun ~key ~at -> ok (Durable.delete eng ~key ~at));
      let rta = Durable.warehouse eng in
      run_queries rta;
      populate_registry reg ~stats ~spans:(Tracer.Memory.spans mem) rta;
      let wal_st = Durable.wal_stats eng in
      Telemetry.Metrics.set_counter
        (Telemetry.Metrics.counter reg ~help:"Bytes appended to the write-ahead log."
           "wal_bytes_total")
        (Wal.Stats.bytes wal_st);
      Telemetry.Metrics.set_counter
        (Telemetry.Metrics.counter reg ~help:"Records appended to the write-ahead log."
           "wal_appends_total")
        (Wal.Stats.appends wal_st);
      Telemetry.Metrics.set_gauge
        (Telemetry.Metrics.gauge reg
           ~help:"Durable-engine health (0 healthy, 1 degraded, 2 read-only)."
           "durable_health_state")
        (health_gauge_value (Durable.health eng));
      Durable.close eng);
  if as_json then print_json (Telemetry.Metrics.to_json reg)
  else print_string (Telemetry.Metrics.to_prometheus reg)

let metrics_cmd =
  let as_json =
    let doc = "Emit the registry as JSON instead of Prometheus text exposition." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Build a workload and a query sweep with telemetry enabled and dump the metrics \
          registry (Prometheus text, or JSON with --json)")
    Term.(const metrics_impl $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ queries_term $ qrs_term $ wal_opt_term $ sync_policy_term $ store_term
          $ as_json)

(* Re-parse emitted trace artifacts with the library's own JSON parser, so
   CI catches an encoder regression the moment it happens. *)
let validate_jsonl path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go n =
    match input_line ic with
    | exception End_of_file -> Ok n
    | "" -> go n
    | line -> (
        match Telemetry.Json.of_string line with
        | Ok _ -> go (n + 1)
        | Error e -> Error (Printf.sprintf "%s line %d: %s" path (n + 1) e))
  in
  go 0

let validate_chrome path ~spans =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = really_input_string ic len in
  close_in ic;
  match Telemetry.Json.of_string buf with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
      match Telemetry.Json.member "traceEvents" doc with
      | Some (Telemetry.Json.List evs) when List.length evs >= spans ->
          Ok (List.length evs)
      | Some (Telemetry.Json.List evs) ->
          Error
            (Printf.sprintf "%s: %d traceEvents for %d spans" path (List.length evs) spans)
      | _ -> Error (Printf.sprintf "%s: no traceEvents array" path))

(* A fresh directory in the temp directory, removed with what is in it
   when the program exits. *)
let scratch_dir prefix =
  let dir = Filename.temp_dir prefix "" in
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir);
  dir

let profile_impl verbosity spec (config, buffer) input n_queries qrs store slack worst
    smoke trace_out =
  setup_logs verbosity;
  (* Smoke mode is the bounded CI entry point: small warehouse, tracing
     on, trace artifacts written and re-parsed, zero violations asserted. *)
  let spec, n_queries =
    if smoke then
      ( { spec with Workload.Generator.n_records = min spec.Workload.Generator.n_records 2_000 },
        min n_queries 200 )
    else (spec, n_queries)
  in
  let trace_out =
    match trace_out with
    | Some _ -> trace_out
    | None when smoke -> Some (Filename.concat (scratch_dir "rta-profile") "trace")
    | None -> None
  in
  let mem = Tracer.Memory.create ~capacity:(ring_capacity ~spec ~n_queries) () in
  let stats = Storage.Io_stats.create () in
  let tracer = Tracer.create ~stats ~debug:true (Tracer.Memory.sink mem) in
  (* The envelopes count logical page touches, which are store
     independent — running them over mapped overlays proves the zero-copy
     path doesn't change what the tree visits. *)
  let rta =
    Rta.create ~config ~pool_capacity:buffer ~stats ~telemetry:tracer
      ~backing:(Storage.Store_kind.backing store)
      ~path:(Filename.concat (scratch_dir "rta-profile-store") "wh")
      ~max_key:spec.Workload.Generator.max_key ()
  in
  (* The overlay files are a cache of this run: the tree closes before
     its directory goes, as [at_exit] runs the latest first. *)
  at_exit (fun () -> Rta.close rta);
  let checker = Telemetry.Bound_check.create ~slack ~worst ~b:config.Mvsbt.b () in
  (* K for the update envelope is the number of distinct keys ever seen
     (the paper's key-space parameter); n for queries is the update count. *)
  let distinct = Hashtbl.create 1024 in
  let profiled op scale f =
    let t0 = Rta.page_touches rta in
    f ();
    Telemetry.Bound_check.record checker ~op ~scale ~touches:(Rta.page_touches rta - t0)
  in
  Workload.Trace.replay (events_of ~spec ~input)
    ~insert:(fun ~key ~value ~at ->
      Hashtbl.replace distinct key ();
      profiled Telemetry.Bound_check.Insert (Hashtbl.length distinct) (fun () ->
          Rta.insert rta ~key ~value ~at))
    ~delete:(fun ~key ~at ->
      profiled Telemetry.Bound_check.Delete (Hashtbl.length distinct) (fun () ->
          Rta.delete rta ~key ~at));
  let n = Rta.n_updates rta in
  List.iter
    (fun (r : Workload.Query_gen.rect) ->
      profiled Telemetry.Bound_check.Range_query n (fun () ->
          ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi)))
    (query_rects ~spec ~n:n_queries ~qrs);
  let report = Telemetry.Bound_check.report checker in
  Format.printf "%a@." Telemetry.Bound_check.pp_report report;
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.observe_spans reg (Tracer.Memory.spans mem);
  Format.printf "%a@." Telemetry.Metrics.pp_summary reg;
  let artifacts_ok =
    match trace_out with
    | None -> true
    | Some prefix -> (
        let spans = Tracer.Memory.spans mem in
        let events = Tracer.Memory.events mem in
        let jsonl_path = prefix ^ ".jsonl" in
        let chrome_path = prefix ^ ".trace.json" in
        let oc = open_out jsonl_path in
        List.iter
          (fun s ->
            output_string oc (Telemetry.Json.to_string (Tracer.span_to_json s));
            output_char oc '\n')
          spans;
        List.iter
          (fun e ->
            output_string oc (Telemetry.Json.to_string (Tracer.event_to_json e));
            output_char oc '\n')
          events;
        close_out oc;
        let oc = open_out chrome_path in
        output_string oc (Telemetry.Json.to_string (Tracer.chrome_trace ~events spans));
        output_char oc '\n';
        close_out oc;
        match (validate_jsonl jsonl_path, validate_chrome chrome_path ~spans:(List.length spans)) with
        | Ok lines, Ok evs ->
            Printf.printf "trace artifacts: %s (%d lines), %s (%d traceEvents) — both re-parse\n"
              jsonl_path lines chrome_path evs;
            true
        | Error e, _ | _, Error e ->
            prerr_endline ("trace artifact validation failed: " ^ e);
            false)
  in
  if not (Telemetry.Bound_check.clean report) then begin
    prerr_endline "bound check: VIOLATIONS (see report above)";
    exit 1
  end;
  if not artifacts_ok then exit 1;
  Printf.printf "bound check: clean (%d operations within the %g*(1+log_%d) envelope)\n"
    report.Telemetry.Bound_check.checked slack config.Mvsbt.b

let profile_cmd =
  let slack =
    let doc = "Constant factor c of the c*(1+log_b scale) envelope." in
    Arg.(value & opt float 4.0 & info [ "slack" ] ~doc)
  in
  let worst =
    let doc = "Number of worst offenders (by touches/bound ratio) to report." in
    Arg.(value & opt int 10 & info [ "worst" ] ~doc)
  in
  let smoke =
    let doc =
      "Bounded CI run: caps the workload at 2000 updates and 200 queries, writes the \
       JSONL and Chrome traces to a temp directory removed at exit (unless \
       $(b,--trace-out) names a prefix), re-parses both, and exits 1 on any \
       envelope violation or artifact mismatch."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let trace_out =
    let doc =
      "Also write the collected spans to PREFIX.jsonl and PREFIX.trace.json and \
       validate that both re-parse."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PREFIX")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile per-operation page touches against the paper's O(log_b K) / O(log_b n) \
          envelopes and report worst offenders (exits 1 on violations)")
    Term.(const profile_impl $ verbosity $ spec_term $ mvsbt_config_term $ input_term
          $ queries_term $ qrs_term $ store_term $ slack $ worst $ smoke $ trace_out)

(* --- serve / netbench (network query service) ------------------------------------- *)

let socket_term =
  let doc = "Unix-domain socket path to serve on (or connect to)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")

let port_term =
  let doc = "TCP port on 127.0.0.1 to serve on (or connect to) instead of a Unix socket." in
  Arg.(value & opt (some int) None & info [ "port" ] ~doc ~docv:"PORT")

let need_endpoint who =
  Printf.eprintf "%s: pass --socket PATH or --port PORT\n" who;
  exit 2

(* "host:port" (or just ":port") means TCP; anything else is a Unix
   socket path. *)
let parse_upstream s =
  match String.rindex_opt s ':' with
  | Some i -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port ->
          let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
          Replica.Follower.Tcp (host, port)
      | None -> Replica.Follower.Unix_sock s)
  | None -> Replica.Follower.Unix_sock s

let serve_impl verbosity max_key buffer wal socket port max_batch max_in_flight
    max_queue_depth checkpoint_every store shards readers sim_io_us follower_of
    sync_replicas heartbeat_ms failover_ms no_auto_promote trace_out trace_verbose
    trace_sample slow_ms slow_log metrics_port no_flight =
  setup_logs verbosity;
  if shards < 1 then begin
    prerr_endline "serve: --shards must be >= 1";
    exit 2
  end;
  if readers < 0 then begin
    prerr_endline "serve: --readers must be >= 0";
    exit 2
  end;
  let replication = follower_of <> None || sync_replicas > 0 in
  if replication && (shards > 1 || readers > 0) then begin
    prerr_endline "serve: replication requires --shards 1 --readers 0";
    exit 2
  end;
  let listen, where =
    match (socket, port) with
    | Some path, _ -> (Server.listen_unix ~path, "unix:" ^ path)
    | None, Some port ->
        let fd, port = Server.listen_tcp ~port () in
        (fd, Printf.sprintf "tcp:127.0.0.1:%d" port)
    | None, None -> need_endpoint "serve"
  in
  let config = { Server.default_config with max_in_flight; max_queue_depth } in
  (* Observability plane.  The flight recorder (memory span ring) is on
     by default; --trace-out adds a streaming JSONL span file.  Either,
     or --slow-ms / --metrics-port, enables the per-request phase
     recorder.  --no-flight with no other flag leaves the tracer a noop
     and allocates nothing per request — the zero-overhead baseline. *)
  let flight =
    if no_flight then None
    else Some (Telemetry.Flight.create ~prefix:(wal ^ ".flight") ())
  in
  let trace_chan = Option.map open_out trace_out in
  (* Closed only at process exit: engine/cluster teardown still emits
     spans (final checkpoint, WAL close) after the serve loop returns,
     and they belong in the file. *)
  Option.iter (fun oc -> at_exit (fun () -> close_out_noerr oc)) trace_chan;
  let jsonl_of oc =
    Tracer.jsonl_sink (fun line ->
        output_string oc line;
        output_char oc '\n')
  in
  (* JSON serialisation costs two orders of magnitude more than recording
     a span, so the JSONL sink runs behind [Tracer.Async]: emitters (the
     server loop, shard writers/readers) enqueue raw records and a drain
     domain does the rendering and channel writes.  The flight ring needs
     no wrapper — [Memory.push] takes its own mutex and stores a record,
     cheap enough for the hot path. *)
  let trace_async = Option.map (fun oc -> Tracer.Async.create (jsonl_of oc)) trace_chan in
  let tracer =
    let debug = trace_verbose and sample = max 1 trace_sample in
    match (flight, trace_async) with
    | None, None -> Tracer.noop
    | Some f, None -> Tracer.create ~debug ~sample (Telemetry.Flight.sink f)
    | None, Some a -> Tracer.create ~debug ~sample (Tracer.Async.sink a)
    | Some f, Some a ->
        Tracer.create ~debug ~sample
          (Tracer.tee (Telemetry.Flight.sink f) (Tracer.Async.sink a))
  in
  (* Process-exit ordering (at_exit is LIFO, channel close registered
     first): drain+join the async sink, append thread-name metadata rows
     for whoever merges this file into a Chrome trace, then close the
     channel.  Engine/cluster teardown spans emitted before exit are
     still drained; the join guarantees no concurrent channel writes. *)
  Option.iter
    (fun a ->
      at_exit (fun () ->
          Tracer.Async.close a;
          match trace_chan with
          | None -> ()
          | Some oc ->
              (try
                 List.iter
                   (fun (pid, tid, name) ->
                     output_string oc
                       (Telemetry.Json.to_string
                          (Telemetry.Json.Obj
                             [ ("type", Telemetry.Json.Str "thread_name");
                               ("pid", Telemetry.Json.Int pid);
                               ("tid", Telemetry.Json.Int tid);
                               ("name", Telemetry.Json.Str name) ]));
                     output_char oc '\n')
                   (Tracer.thread_names ());
                 flush oc
               with Sys_error _ -> ())))
    trace_async;
  let observing =
    Option.is_some flight || Option.is_some trace_chan || Option.is_some slow_ms
    || Option.is_some metrics_port
  in
  Tracer.set_thread_name "server-loop";
  (* Post-[Server.create] observability wiring; returns the flight-dump
     poll hook and the shutdown hook. *)
  let setup_observe srv =
    if observing then begin
      let r = Telemetry.Phases.create (Server.metrics srv) in
      (match slow_ms with
      | None -> ()
      | Some ms ->
          let slow_path =
            match slow_log with Some p -> p | None -> wal ^ ".slow.jsonl"
          in
          let oc = open_out slow_path in
          (* Every offender is logged, but ring dumps are rate-limited:
             a burst of slow requests must not carpet the disk with
             near-identical flight files. *)
          let last_dump = ref neg_infinity in
          Telemetry.Phases.set_slow r ~slow_ms:ms (fun j ->
              output_string oc (Telemetry.Json.to_string j);
              output_char oc '\n';
              flush oc;
              match flight with
              | Some f ->
                  let now = Unix.gettimeofday () in
                  if now -. !last_dump >= 1. then begin
                    last_dump := now;
                    Telemetry.Flight.request_dump f ~reason:"slow_request"
                  end
              | None -> ());
          at_exit (fun () -> close_out_noerr oc);
          Printf.printf "slow log: %s (threshold %.1f ms)\n%!" slow_path ms);
      Server.enable_phases srv r
    end;
    (match flight with
    | Some f ->
        Server.set_flight srv f;
        Telemetry.Flight.install_sigusr1 f
    | None -> ());
    let http =
      Option.map
        (fun port ->
          let h = Metrics_http.attach srv ~port in
          Printf.printf "metrics: http://127.0.0.1:%d/metrics (also /observe)\n%!"
            (Metrics_http.port h);
          h)
        metrics_port
    in
    let poll () =
      match flight with
      | None -> ()
      | Some f -> (
          match Telemetry.Flight.poll f with
          | Some path -> Printf.printf "flight: dumped %s\n%!" path
          | None -> ())
    in
    let finish () =
      poll ();
      Option.iter Metrics_http.close http
    in
    (poll, finish)
  in
  (* Crash-exit flight dump: if serving dies on an exception, persist the
     ring before the process unwinds — the black box survives the crash. *)
  let guard f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      (match flight with
      | Some fl -> ( try ignore (Telemetry.Flight.dump fl ~reason:"crash") with _ -> ())
      | None -> ());
      (* Drain what the async sink holds so the spans leading up to the
         crash reach the file; the at_exit hook's close is then a noop. *)
      (match trace_async with
      | Some a -> ( try Tracer.Async.close a with _ -> ())
      | None -> ());
      (match trace_chan with
      | Some oc -> ( try flush oc with Sys_error _ -> ())
      | None -> ());
      Printexc.raise_with_backtrace e bt
  in
  (* One engine per key-range shard, at <wal> itself for one shard and
     under <wal>.s<i> for several.  Group commit owns the fsync schedule:
     the engines log every update under [Wal.Never] and only the shard
     writer's [Durable.sync_wal] — one per batch, before any ack — makes
     them durable. *)
  let engines =
    Array.init shards (fun i ->
        Durable.open_ ~pool_capacity:buffer ~sync_policy:Wal.Never ~checkpoint_every ~store
          ~max_key ~telemetry:tracer
          ~path:(Shard.Cluster.shard_path wal ~shards i)
          ())
  in
  let cluster =
    Shard.Cluster.create ~telemetry:tracer
      ~config:
        { Shard.Cluster.default_config with
          readers;
          max_batch;
          sim_io_ns = int_of_float (sim_io_us *. 1000.) }
      engines
  in
  let srv = Server.create ~config ~telemetry:tracer ~cluster ~listen () in
  let stop _ = Server.request_shutdown srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Array.iteri
    (fun i eng ->
      let n = Durable.replayed_on_open eng in
      if n > 0 then
        if shards = 1 then Printf.printf "recovered %d logged updates\n" n
        else Printf.printf "shard %d: recovered %d logged updates\n" i n)
    engines;
  let repl =
    if not replication then `None
    else
      match follower_of with
      | None ->
          let epoch = Replica.Epoch.load wal in
          let hub =
            Replica.Hub.create ~metrics:(Server.metrics srv) ~sync_replicas
              ~heartbeat_s:(heartbeat_ms /. 1000.) ~epoch ~path:wal engines.(0)
          in
          Replica.Hub.attach hub srv;
          Printf.printf "replication: leader, epoch %d, sync_replicas %d\n" epoch
            sync_replicas;
          `Hub hub
      | Some upstream ->
          let upstream = parse_upstream upstream in
          let fcfg =
            { (Replica.Follower.default_config upstream) with
              Replica.Follower.failover_s = failover_ms /. 1000.;
              heartbeat_s = heartbeat_ms /. 1000.;
              auto_promote = not no_auto_promote;
              sync_replicas }
          in
          let f = Replica.Follower.create ~config:fcfg ~path:wal ~server:srv engines.(0) in
          Format.printf "replication: follower of %a, epoch %d%s@."
            Replica.Follower.pp_upstream upstream (Replica.Follower.epoch f)
            (if no_auto_promote then "" else ", auto-promote");
          `Follower f
  in
  let poll_flight, finish_observe = setup_observe srv in
  Printf.printf
    "serving %s on %s (%d shard%s, %d readers, batch<=%d, in-flight<=%d, queue<=%d)\n%!"
    wal where shards
    (if shards = 1 then "" else "s")
    readers max_batch max_in_flight max_queue_depth;
  guard (fun () ->
      if repl = `None && flight = None then Server.run srv
      else
        (* Replication needs finer ticks than [run]'s 1 s select timeout
           (heartbeats, failure detection, reconnect pacing); the flight
           recorder needs them to honor SIGUSR1 promptly. *)
        let timeout = if repl = `None then 0.25 else 0.05 in
        while Server.step srv ~timeout do
          poll_flight ()
        done);
  finish_observe ();
  let s = Server.stats srv in
  Printf.printf "drained: %d requests, %d group commits covering %d writes, %d shed\n"
    s.Wire.requests s.Wire.batches s.Wire.batched_writes s.Wire.shed;
  if shards > 1 || readers > 0 then
    List.iter
      (fun (ss : Wire.shard_stat) ->
        Format.printf
          "  shard %d [%d,%d): watermark %d (readers at %d), %d batches, %d acked, health \
           %a@."
          ss.Wire.shard ss.Wire.s_klo ss.Wire.s_khi ss.Wire.watermark
          ss.Wire.reader_watermark ss.Wire.s_batches ss.Wire.s_acked Durable.pp_health
          ss.Wire.s_health)
      (Server.shard_stats srv);
  (match repl with
  | `Hub hub ->
      let r = Replica.Hub.stats hub in
      Printf.printf
        "replication: leader epoch %d, durable %d, commit %d, %d frames shipped, %d stale \
         acks\n"
        r.Wire.r_epoch r.Wire.r_durable r.Wire.r_commit r.Wire.r_frames_shipped
        (Replica.Hub.stale_acks hub)
  | `Follower f ->
      let r = Replica.Follower.stats f in
      Format.printf "replication: %a epoch %d, watermark %d, %d frames replayed, %d promotions@."
        Wire.pp_role r.Wire.r_role r.Wire.r_epoch r.Wire.r_durable r.Wire.r_frames_replayed
        r.Wire.r_promotions
  | `None -> ());
  Format.printf "final health: %a@." Durable.pp_health (Shard.Cluster.health cluster);
  Shard.Cluster.shutdown cluster;
  Array.iter Durable.close engines

let serve_cmd =
  let max_batch =
    let doc = "Writes per group commit (one WAL fsync each)." in
    Arg.(value & opt int 64 & info [ "max-batch" ] ~doc)
  in
  let max_in_flight =
    let doc = "Admission cap on admitted-but-unanswered requests." in
    Arg.(value & opt int 1024 & info [ "max-in-flight" ] ~doc)
  in
  let max_queue_depth =
    let doc = "Admission cap on writes queued for the next group commit." in
    Arg.(value & opt int 256 & info [ "max-queue-depth" ] ~doc)
  in
  let shards =
    let doc =
      "Key-range shards, each with its own WAL: one shard serves <wal> from the event \
       loop's domain, several run a writer domain each over <wal>.s<i>."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~doc)
  in
  let readers =
    let doc =
      "Reader domains serving queries from lock-free snapshot replicas (0 = queries run \
       on the writer domains)."
    in
    Arg.(value & opt int 0 & info [ "readers" ] ~doc)
  in
  let sim_io_us =
    let doc =
      "Simulated device latency in microseconds charged per logical page touch on the \
       query path — makes reader scaling observable on a single-core host."
    in
    Arg.(value & opt float 0. & info [ "sim-io-us" ] ~doc)
  in
  let follower_of =
    let doc =
      "Run as a read-only follower of the leader at this endpoint (a Unix socket path, \
       or host:port / :port for TCP): subscribe to its WAL, replay, serve queries at \
       the replayed watermark, and promote on leader silence unless --no-auto-promote."
    in
    Arg.(value & opt (some string) None & info [ "follower-of" ] ~doc ~docv:"ENDPOINT")
  in
  let sync_replicas =
    let doc =
      "Defer client write acks until this many followers have replayed and fsynced the \
       batch (0 = ack on the leader's own fsync).  Any value, or --follower-of, enables \
       replication."
    in
    Arg.(value & opt int 0 & info [ "sync-replicas" ] ~doc)
  in
  let heartbeat_ms =
    let doc = "Leader heartbeat cadence in milliseconds." in
    Arg.(value & opt float 200. & info [ "heartbeat-ms" ] ~doc)
  in
  let failover_ms =
    let doc = "Leader-silence threshold in milliseconds before a follower reconnects." in
    Arg.(value & opt float 1000. & info [ "failover-ms" ] ~doc)
  in
  let no_auto_promote =
    let doc = "Never self-promote; wait for an explicit promote command." in
    Arg.(value & flag & info [ "no-auto-promote" ] ~doc)
  in
  let trace_out =
    let doc =
      "Stream every span (all domains, JSONL, one JSON document per line) to this \
       file.  Each line carries trace_id/span_id/pid/tid, so files from several \
       processes merge into one Chrome/Perfetto artifact with $(b,trace-merge)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"PATH")
  in
  let slow_ms =
    let doc =
      "Slow-request threshold in milliseconds: a request whose wall time reaches it \
       has its full phase vector appended to the slow log and triggers a \
       flight-recorder dump."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~doc ~docv:"MS")
  in
  let slow_log =
    let doc = "Slow-request JSONL path (default <wal>.slow.jsonl)." in
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~doc ~docv:"PATH")
  in
  let metrics_port =
    let doc =
      "Serve HTTP GET /metrics (Prometheus text) and /observe (JSON) on this \
       127.0.0.1 port from the same event loop (0 picks a free port, printed at \
       startup)."
    in
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~doc ~docv:"PORT")
  in
  let trace_verbose =
    let doc =
      "Also record debug-level micro-spans (per-page IO, per-record WAL \
       appends, per-key tree operations).  Multiplies span volume roughly 4x and \
       puts their recording cost on the request path; default records request-level \
       spans only."
    in
    Arg.(value & flag & info [ "trace-verbose" ] ~doc)
  in
  let trace_sample =
    let doc =
      "Head-sampling rate for untagged work: record 1-in-N span trees rooted in \
       requests that carry no trace id (tagged requests always record fully).  \
       1 records everything.  The default keeps tracing's cost on the request \
       path negligible while every explicitly traced request keeps its story."
    in
    Arg.(value & opt int 16 & info [ "trace-sample" ] ~doc ~docv:"N")
  in
  let no_flight =
    let doc =
      "Disable the flight recorder — the always-on in-memory span ring dumped to \
       JSONL on SIGUSR1, crash exits, and slow requests.  With no other \
       observability flag this leaves tracing a complete no-op."
    in
    Arg.(value & flag & info [ "no-flight" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the wire protocol over a durable warehouse: select event loop, group \
          commit, admission control, optional key-range shards on OCaml domains, \
          optional WAL-shipping replication (--sync-replicas / --follower-of), \
          distributed tracing and live observability (--trace-out / --slow-ms / \
          --metrics-port / SIGUSR1 flight dump); SIGTERM/SIGINT drain and exit 0")
    Term.(const serve_impl $ verbosity $ engine_max_key_term $ engine_buffer_term
          $ wal_req_term $ socket_term $ port_term $ max_batch $ max_in_flight
          $ max_queue_depth $ checkpoint_every_term $ store_term $ shards $ readers
          $ sim_io_us
          $ follower_of $ sync_replicas $ heartbeat_ms $ failover_ms $ no_auto_promote
          $ trace_out $ trace_verbose $ trace_sample $ slow_ms $ slow_log $ metrics_port
          $ no_flight)

let connect_with_retry ~socket ~port =
  let try_once () =
    match (socket, port) with
    | Some path, _ -> Client.connect_unix ~path ()
    | None, Some port -> Client.connect_tcp ~port ()
    | None, None -> need_endpoint "connect"
  in
  let rec go n =
    match try_once () with
    | cli -> cli
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 50 ->
        (* The server may still be opening its engine; CI starts it in the
           background and relies on this grace window. *)
        Unix.sleepf 0.1;
        go (n + 1)
  in
  go 0

(* --- promote / replica-stats ------------------------------------------------------- *)

let promote_impl verbosity socket port =
  setup_logs verbosity;
  let cli = connect_with_retry ~socket ~port in
  let r = Client.promote cli in
  Client.close cli;
  match r with
  | Wire.Ack ->
      print_endline "promoted";
      ()
  | r ->
      Format.eprintf "promote: %a@." Wire.pp_response r;
      exit 1

let observe_impl verbosity socket port =
  setup_logs verbosity;
  let cli = connect_with_retry ~socket ~port in
  let r = Client.observe cli in
  Client.close cli;
  match r with
  | Some doc -> print_endline doc
  | None ->
      prerr_endline "observe: server did not answer (pre-observability build?)";
      exit 1

let observe_cmd =
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Fetch a serving node's live observability document (JSON): health, \
          admission state, per-shard watermark lag and snapshot age, vacuum horizon \
          distance, disk pressure, per-follower replication lag, request phase \
          quantiles, flight-recorder state")
    Term.(const observe_impl $ verbosity $ socket_term $ port_term)

(* --- trace-merge ------------------------------------------------------------------- *)

let trace_merge_impl verbosity out require_correlated inputs =
  setup_logs verbosity;
  if inputs = [] then begin
    prerr_endline "trace-merge: pass at least one JSONL span file";
    exit 2
  end;
  let spans = ref [] and events = ref [] and threads = ref [] in
  List.iter
    (fun path ->
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      try
        while true do
          let line = input_line ic in
          if String.length line > 0 then
            match Telemetry.Json.of_string line with
            | Error e ->
                Printf.eprintf "trace-merge: %s: skipping bad line (%s)\n" path e
            | Ok j -> (
                match Tracer.span_of_json j with
                | Some s -> spans := s :: !spans
                | None -> (
                    match Tracer.event_of_json j with
                    | Some e -> events := e :: !events
                    | None -> (
                        (* Flight-dump headers and anything else ride
                           along silently; thread_name lines label rows. *)
                        match
                          ( Telemetry.Json.member "type" j,
                            Telemetry.Json.member "pid" j,
                            Telemetry.Json.member "tid" j,
                            Telemetry.Json.member "name" j )
                        with
                        | ( Some (Telemetry.Json.Str "thread_name"),
                            Some (Telemetry.Json.Int pid),
                            Some (Telemetry.Json.Int tid),
                            Some (Telemetry.Json.Str name) ) ->
                            threads := (pid, tid, name) :: !threads
                        | _ -> ())))
        done
      with End_of_file -> ())
    inputs;
  let spans = List.rev !spans and events = List.rev !events in
  (* Correlation census: how many trace ids have spans in more than one
     process — the cross-process stitching the plane exists to provide. *)
  let module M = Map.Make (Int64) in
  let by_trace =
    List.fold_left
      (fun m (s : Tracer.span) ->
        match s.Tracer.trace_id with
        | None -> m
        | Some id ->
            let pids = match M.find_opt id m with Some l -> l | None -> [] in
            M.add id (s.Tracer.pid :: pids) m)
      M.empty spans
  in
  let correlated =
    M.fold
      (fun _ pids acc ->
        if List.length (List.sort_uniq compare pids) > 1 then acc + 1 else acc)
      by_trace 0
  in
  let doc = Tracer.chrome_trace ~events ~threads:(List.rev !threads) spans in
  (match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
      output_string oc (Telemetry.Json.to_string doc)
  | None -> print_endline (Telemetry.Json.to_string doc));
  Printf.eprintf
    "trace-merge: %d spans, %d events from %d files; %d trace ids, %d cross-process\n"
    (List.length spans) (List.length events) (List.length inputs) (M.cardinal by_trace)
    correlated;
  if require_correlated && correlated = 0 then begin
    prerr_endline "trace-merge: no trace id spans more than one process";
    exit 1
  end

let trace_merge_cmd =
  let out =
    let doc = "Output file for the Chrome trace_event JSON (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"PATH")
  in
  let require_correlated =
    let doc =
      "Exit 1 unless at least one trace id has spans in two or more processes — the \
       CI assertion that distributed propagation actually happened."
    in
    Arg.(value & flag & info [ "require-correlated" ] ~doc)
  in
  let inputs =
    let doc = "JSONL span files (serve --trace-out output, flight-recorder dumps)." in
    Arg.(value & pos_all file [] & info [] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge per-process JSONL span files into one Chrome/Perfetto trace_event \
          artifact, labelling rows by pid/domain thread names and reporting how many \
          trace ids correlate across processes")
    Term.(const trace_merge_impl $ verbosity $ out $ require_correlated $ inputs)

let promote_cmd =
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Tell a follower to promote itself now: bump the fencing epoch durably, open \
          the write path, and start serving its own WAL to subscribers")
    Term.(const promote_impl $ verbosity $ socket_term $ port_term)

let replica_stats_impl verbosity socket port stats_json =
  setup_logs verbosity;
  let cli = connect_with_retry ~socket ~port in
  let r = Client.replica_stats cli in
  Client.close cli;
  match r with
  | None ->
      prerr_endline "replica-stats: replication is not enabled on this server";
      exit 1
  | Some (s : Wire.replica_stats) ->
      if stats_json then
        print_json
          (Telemetry.Json.Obj
             [ ("role", Telemetry.Json.Str (Format.asprintf "%a" Wire.pp_role s.Wire.r_role));
               ("epoch", Telemetry.Json.Int s.Wire.r_epoch);
               ("durable", Telemetry.Json.Int s.Wire.r_durable);
               ("commit", Telemetry.Json.Int s.Wire.r_commit);
               ("leader_durable", Telemetry.Json.Int s.Wire.r_leader_durable);
               ("lag", Telemetry.Json.Int s.Wire.r_lag);
               ("frames_shipped", Telemetry.Json.Int s.Wire.r_frames_shipped);
               ("frames_replayed", Telemetry.Json.Int s.Wire.r_frames_replayed);
               ("failover_promotions", Telemetry.Json.Int s.Wire.r_promotions);
               ( "followers",
                 Telemetry.Json.List
                   (List.map
                      (fun (id, acked) ->
                        Telemetry.Json.Obj
                          [ ("conn", Telemetry.Json.Int id);
                            ("acked", Telemetry.Json.Int acked) ])
                      s.Wire.r_followers) ) ])
      else begin
        Format.printf
          "%a: epoch %d, durable %d, commit %d, leader durable %d, lag %d@." Wire.pp_role
          s.Wire.r_role s.Wire.r_epoch s.Wire.r_durable s.Wire.r_commit
          s.Wire.r_leader_durable s.Wire.r_lag;
        Format.printf "  %d frames shipped, %d replayed, %d promotions@."
          s.Wire.r_frames_shipped s.Wire.r_frames_replayed s.Wire.r_promotions;
        List.iter
          (fun (id, acked) -> Format.printf "  follower on conn %d acked %d@." id acked)
          s.Wire.r_followers
      end

let replica_stats_cmd =
  Cmd.v
    (Cmd.info "replica-stats"
       ~doc:
         "Report a node's replication state: role, fencing epoch, durable/commit \
          watermarks, lag, frame counters, failover promotions, per-follower acks")
    Term.(const replica_stats_impl $ verbosity $ socket_term $ port_term $ stats_json_term)

let server_stats_json (s : Wire.stats) =
  Telemetry.Json.Obj
    [ ("updates", Telemetry.Json.Int s.Wire.updates);
      ("alive", Telemetry.Json.Int s.Wire.alive);
      ("pages", Telemetry.Json.Int s.Wire.pages);
      ("now", Telemetry.Json.Int s.Wire.now);
      ("health", Telemetry.Json.Str (health_string s.Wire.health));
      ("queue_depth", Telemetry.Json.Int s.Wire.queue_depth);
      ("in_flight", Telemetry.Json.Int s.Wire.in_flight);
      ("conns", Telemetry.Json.Int s.Wire.conns);
      ("requests", Telemetry.Json.Int s.Wire.requests);
      ("shed", Telemetry.Json.Int s.Wire.shed);
      ("batches", Telemetry.Json.Int s.Wire.batches);
      ("batched_writes", Telemetry.Json.Int s.Wire.batched_writes);
      ("wal_syncs", Telemetry.Json.Int s.Wire.wal_syncs);
      ("horizon", Telemetry.Json.Int s.Wire.horizon);
      ("pages_reclaimed", Telemetry.Json.Int s.Wire.pages_reclaimed);
      ("vacuum_steps", Telemetry.Json.Int s.Wire.vacuum_steps) ]

let shard_stat_json (ss : Wire.shard_stat) =
  Telemetry.Json.Obj
    [ ("shard", Telemetry.Json.Int ss.Wire.shard);
      ("klo", Telemetry.Json.Int ss.Wire.s_klo);
      ("khi", Telemetry.Json.Int ss.Wire.s_khi);
      ("watermark", Telemetry.Json.Int ss.Wire.watermark);
      ("reader_watermark", Telemetry.Json.Int ss.Wire.reader_watermark);
      ("now", Telemetry.Json.Int ss.Wire.s_now);
      ("alive", Telemetry.Json.Int ss.Wire.s_alive);
      ("queue", Telemetry.Json.Int ss.Wire.s_queue);
      ("batches", Telemetry.Json.Int ss.Wire.s_batches);
      ("acked", Telemetry.Json.Int ss.Wire.s_acked);
      ("wal_syncs", Telemetry.Json.Int ss.Wire.s_wal_syncs);
      ("health", Telemetry.Json.Str (health_string ss.Wire.s_health));
      ("io_reads", Telemetry.Json.Int ss.Wire.s_io_reads);
      ("io_writes", Telemetry.Json.Int ss.Wire.s_io_writes);
      ("io_syncs", Telemetry.Json.Int ss.Wire.s_io_syncs) ]

(* Client-observed latency quantiles (seconds in, milliseconds out).
   Under a pipeline window this includes time queued behind the window —
   exactly what a pipelining client experiences. *)
let latency_json samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then None
  else
    let pct q = a.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5))) in
    Some
      (Telemetry.Json.Obj
         [ ("count", Telemetry.Json.Int n);
           ("p50_ms", Telemetry.Json.Float (1e3 *. pct 0.5));
           ("p95_ms", Telemetry.Json.Float (1e3 *. pct 0.95));
           ("p99_ms", Telemetry.Json.Float (1e3 *. pct 0.99));
           ("max_ms", Telemetry.Json.Float (1e3 *. a.(n - 1))) ])

let netbench_impl verbosity spec input socket port window queries qrs do_shutdown smoke
    stats_json query_window want_shard_stats no_writes trace_requests =
  setup_logs verbosity;
  let tag () = if trace_requests then Some (Tracer.new_trace_id ()) else None in
  let spec, queries =
    if smoke then
      ( { spec with Workload.Generator.n_records = min spec.Workload.Generator.n_records 400 },
        min queries 20 )
    else (spec, queries)
  in
  if window < 1 then begin
    prerr_endline "netbench: --window must be >= 1";
    exit 2
  end;
  (* A trace file is replayed streaming (constant memory): the closed
     loop below only ever needs one event in hand. *)
  let iter_events f =
    match input with
    | Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        Workload.Trace.fold_channel ic ~init:() ~f:(fun () ev -> f ev)
    | None -> List.iter f (Workload.Generator.events spec)
  in
  let cli = connect_with_retry ~socket ~port in
  if not (Client.ping cli) then begin
    prerr_endline "netbench: server did not answer ping";
    exit 1
  end;
  (* Closed loop with a pipeline window: at most [window] requests
     outstanding, responses matched to requests by position. *)
  let sent = ref 0 and acked = ref 0 and rejected = ref 0 and failed = ref 0 in
  let outstanding = ref 0 in
  let send_times = Queue.create () in
  let write_lats = ref [] in
  let drain_one () =
    decr outstanding;
    let t_send = Queue.pop send_times in
    (match Client.recv cli with
    | Wire.Ack -> incr acked
    | Wire.Err { code = Wire.Invalid_request; _ } -> incr rejected
    | _ -> incr failed);
    write_lats := (Unix.gettimeofday () -. t_send) :: !write_lats
  in
  let t0 = Unix.gettimeofday () in
  if not no_writes then
  iter_events (fun (ev : Workload.Generator.event) ->
      let req =
        match ev with
        | Workload.Generator.Insert { key; value; at } -> Wire.Insert { key; value; at }
        | Workload.Generator.Delete { key; at } -> Wire.Delete { key; at }
      in
      while !outstanding >= window do
        drain_one ()
      done;
      Queue.add (Unix.gettimeofday ()) send_times;
      Client.send ?trace:(tag ()) cli req;
      incr sent;
      incr outstanding);
  while !outstanding > 0 do
    drain_one ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  (* Query phase, pipelined like the write phase: against a sharded
     server a window > 1 keeps several reader domains busy at once, so
     the reported q/s reflects reader-scaling. *)
  let rects = query_rects ~spec ~n:queries ~qrs in
  let qwindow = max 1 query_window in
  let query_ok = ref 0 in
  let q_outstanding = ref 0 in
  let query_lats = ref [] in
  let drain_query () =
    decr q_outstanding;
    let t_send = Queue.pop send_times in
    (match Client.recv cli with Wire.Agg _ -> incr query_ok | _ -> ());
    query_lats := (Unix.gettimeofday () -. t_send) :: !query_lats
  in
  let qt0 = Unix.gettimeofday () in
  List.iter
    (fun (r : Workload.Query_gen.rect) ->
      while !q_outstanding >= qwindow do
        drain_query ()
      done;
      Queue.add (Unix.gettimeofday ()) send_times;
      Client.send ?trace:(tag ()) cli
        (Wire.Query { agg = Wire.Sum; klo = r.klo; khi = r.khi; tlo = r.tlo; thi = r.thi });
      incr q_outstanding)
    rects;
  while !q_outstanding > 0 do
    drain_query ()
  done;
  let qwall = Unix.gettimeofday () -. qt0 in
  let qps = if qwall > 0. then float_of_int (List.length rects) /. qwall else 0. in
  let srv_stats = Client.stats cli in
  let srv_shards = if want_shard_stats then Client.shard_stats cli else None in
  (* Server-side phase breakdown (the request_phase_* histograms), via
     Observe — absent when the server runs without the phase recorder. *)
  let srv_phases =
    match Client.observe cli with
    | None -> None
    | Some doc -> (
        match Telemetry.Json.of_string doc with
        | Ok j -> (
            match Telemetry.Json.member "phases" j with
            | Some (Telemetry.Json.Obj _ as p) -> Some p
            | _ -> None)
        | Error _ -> None)
  in
  (if do_shutdown then
     match Client.shutdown cli with
     | Wire.Ack -> ()
     | r -> Format.eprintf "netbench: shutdown answered %a@." Wire.pp_response r);
  Client.close cli;
  let rps = if wall > 0. then float_of_int !sent /. wall else 0. in
  let health =
    match srv_stats with Some s -> s.Wire.health | None -> Durable.Healthy
  in
  if stats_json then
    print_json
      (Telemetry.Json.Obj
         ([ ("mode", Telemetry.Json.Str "netbench");
            ("sent", Telemetry.Json.Int !sent);
            ("acked", Telemetry.Json.Int !acked);
            ("rejected", Telemetry.Json.Int !rejected);
            ("failed", Telemetry.Json.Int !failed);
            ("window", Telemetry.Json.Int window);
            ("wall_s", Telemetry.Json.Float wall);
            ("req_per_s", Telemetry.Json.Float rps);
            ("queries_ok", Telemetry.Json.Int !query_ok);
            ("query_window", Telemetry.Json.Int qwindow);
            ("query_wall_s", Telemetry.Json.Float qwall);
            ("query_per_s", Telemetry.Json.Float qps);
            ("health", Telemetry.Json.Str (health_string health)) ]
         @ (match latency_json !write_lats with
           | Some j -> [ ("write_latency", j) ]
           | None -> [])
         @ (match latency_json !query_lats with
           | Some j -> [ ("query_latency", j) ]
           | None -> [])
         @ (match srv_phases with Some p -> [ ("phases", p) ] | None -> [])
         @ (match srv_stats with
           | Some s -> [ ("server", server_stats_json s) ]
           | None -> [])
         @
         match srv_shards with
         | Some shards ->
             (* Per-shard counters plus the whole-system merge, so a
                consumer gets both views from one report. *)
             [ ("shards", Telemetry.Json.List (List.map shard_stat_json shards));
               ( "io",
                 Telemetry.Json.Obj
                   [ ( "reads",
                       Telemetry.Json.Int
                         (List.fold_left (fun a s -> a + s.Wire.s_io_reads) 0 shards) );
                     ( "writes",
                       Telemetry.Json.Int
                         (List.fold_left (fun a s -> a + s.Wire.s_io_writes) 0 shards) );
                     ( "syncs",
                       Telemetry.Json.Int
                         (List.fold_left (fun a s -> a + s.Wire.s_io_syncs) 0 shards) )
                   ] ) ]
         | None -> []))
  else begin
    Printf.printf
      "netbench: %d writes in %.3f s = %.0f req/s (window %d); %d acked, %d rejected, %d \
       failed; %d/%d queries ok\n"
      !sent wall rps window !acked !rejected !failed !query_ok queries;
    Printf.printf "  queries: %.3f s = %.0f q/s (window %d)\n" qwall qps qwindow;
    (let show name lats =
       match latency_json lats with
       | Some (Telemetry.Json.Obj kvs) ->
           let f k =
             match List.assoc_opt k kvs with
             | Some (Telemetry.Json.Float v) -> v
             | _ -> 0.
           in
           Printf.printf "  %s latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n" name
             (f "p50_ms") (f "p95_ms") (f "p99_ms")
       | _ -> ()
     in
     show "write" !write_lats;
     show "query" !query_lats);
    (match srv_stats with
    | Some s ->
        Format.printf
          "  server: %d requests, %d batches covering %d writes, %d wal syncs, %d shed, \
           health %a@."
          s.Wire.requests s.Wire.batches s.Wire.batched_writes s.Wire.wal_syncs s.Wire.shed
          Durable.pp_health s.Wire.health;
        Printf.printf "  retention: horizon %d, %d pages reclaimed over %d vacuum steps\n"
          s.Wire.horizon s.Wire.pages_reclaimed s.Wire.vacuum_steps
    | None -> ());
    match srv_shards with
    | Some shards ->
        List.iter
          (fun (ss : Wire.shard_stat) ->
            Format.printf
              "  shard %d [%d,%d): watermark %d (readers at %d), queue %d, %d batches, \
               %d acked, io %d/%d/%d r/w/s, health %a@."
              ss.Wire.shard ss.Wire.s_klo ss.Wire.s_khi ss.Wire.watermark
              ss.Wire.reader_watermark ss.Wire.s_queue ss.Wire.s_batches ss.Wire.s_acked
              ss.Wire.s_io_reads ss.Wire.s_io_writes ss.Wire.s_io_syncs Durable.pp_health
              ss.Wire.s_health)
          shards;
        Printf.printf "  io total: %d reads, %d writes, %d syncs across %d shards\n"
          (List.fold_left (fun a (s : Wire.shard_stat) -> a + s.Wire.s_io_reads) 0 shards)
          (List.fold_left (fun a (s : Wire.shard_stat) -> a + s.Wire.s_io_writes) 0 shards)
          (List.fold_left (fun a (s : Wire.shard_stat) -> a + s.Wire.s_io_syncs) 0 shards)
          (List.length shards)
    | None -> ()
  end;
  if !failed > 0 then exit 1

let netbench_cmd =
  let window =
    let doc = "Pipeline window: maximum requests outstanding on the connection." in
    Arg.(value & opt int 64 & info [ "window" ] ~doc)
  in
  let queries =
    let doc = "Random RTA queries to run over the socket after the write phase." in
    Arg.(value & opt int 20 & info [ "queries" ] ~doc)
  in
  let qrs =
    let doc = "Query rectangle size as an area fraction." in
    Arg.(value & opt float 0.01 & info [ "qrs" ] ~doc)
  in
  let do_shutdown =
    let doc = "Send a wire Shutdown at the end so the server drains and exits." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let smoke =
    let doc = "Bounded CI run: caps the workload at 400 events and 20 queries." in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let query_window =
    let doc =
      "Pipeline window for the query phase (1 = sequential).  Against a sharded server \
       a larger window keeps several reader domains busy at once."
    in
    Arg.(value & opt int 1 & info [ "query-window" ] ~doc)
  in
  let shard_stats =
    let doc = "Fetch and report per-shard stats (watermarks, queues, per-shard I/O)." in
    Arg.(value & flag & info [ "shard-stats" ] ~doc)
  in
  let no_writes =
    let doc =
      "Skip the write phase and go straight to queries — the read-only load shape for \
       benchmarking followers, whose write path is closed."
    in
    Arg.(value & flag & info [ "no-writes" ] ~doc)
  in
  let trace_requests =
    let doc =
      "Stamp every request with a fresh trace id (v2 frames), so a traced server \
       attributes each span and phase sample to the request that caused it."
    in
    Arg.(value & flag & info [ "trace-requests" ] ~doc)
  in
  Cmd.v
    (Cmd.info "netbench"
       ~doc:
         "Closed-loop load generator for a running serve instance: replay a workload as \
          pipelined wire writes, then pipelined queries, and report req/s, q/s, and \
          client-observed latency quantiles plus the server's per-phase breakdown \
          (exits 1 on any failed write)")
    Term.(const netbench_impl $ verbosity $ spec_term $ input_term $ socket_term
          $ port_term $ window $ queries $ qrs $ do_shutdown $ smoke $ stats_json_term
          $ query_window $ shard_stats $ no_writes $ trace_requests)

(* --- dot ------------------------------------------------------------------------- *)

let dot verbosity spec (config, buffer) input out =
  setup_logs verbosity;
  let rta, _, _ = build_rta ~spec ~config ~buffer ~input in
  let write ppf = Format.fprintf ppf "%a@." Rta.pp_dot rta in
  match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
      write (Format.formatter_of_out_channel oc)
  | None -> write Format.std_formatter

let dot_cmd =
  let out =
    let doc = "Output file for the Graphviz rendering (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render the MVSBT page graphs as Graphviz (small workloads only)")
    Term.(const dot $ verbosity $ spec_term $ mvsbt_config_term $ input_term $ out)

let () =
  let info =
    Cmd.info "mvsbt-rta" ~version:"1.0.0"
      ~doc:"Range-temporal aggregates with the Multiversion SB-tree (PODS 2001)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; build_cmd; query_cmd; compare_cmd; checkpoint_cmd; recover_cmd;
            vacuum_cmd; scrub_cmd; fault_matrix_cmd; trace_cmd; metrics_cmd; profile_cmd; serve_cmd;
            netbench_cmd; observe_cmd; trace_merge_cmd; promote_cmd; replica_stats_cmd;
            dot_cmd ]))
