(* The repository benchmark: four workloads against a [rta_cli serve]
   child on a Unix socket, end-to-end metrics from a plain pass and
   per-layer metrics from a traced pass.  See README.md here.

     perf.exe run [--workload W]... [--seed N] [--reps N] [--seconds S]
                  [--trace 0|1] [--out FILE] [--smoke]
                  [--cli PATH] [--benchmark FILE]
     perf.exe compare [--benchmark FILE] PARENT.json CHANGE.json

   [run] prints every metric by name with its unit, then one JSON line per
   workload: {"correct", "attempted", "failed", "metrics"}.  It exits 1,
   with no metrics, when an answer disagrees with the oracle. *)

let usage =
  "perf.exe run [--workload W]... [--seed N] [--reps N] [--seconds S] [--trace 0|1] [--out FILE] \
   [--smoke] [--cli PATH] [--benchmark FILE]\n\
   perf.exe compare [--benchmark FILE] PARENT.json CHANGE.json"

let t_start = Proc.now ()
let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "perf [%6.1fs] %s\n%!" (Proc.now () -. t_start) s) fmt

(* P: every event of the prepared store through the durable engine, then
   one checkpoint, so a server opens it from a snapshot. *)
let build_p (inputs : Inputs.t) dir =
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  let eng =
    Durable.open_ ~sync_policy:Wal.Never ~max_key:inputs.max_key ~path:(Filename.concat dir "wh") ()
  in
  let ok = function Ok () -> () | Error e -> failwith (Format.asprintf "building P: %a" Storage.Storage_error.pp e) in
  Array.iter (fun ev -> ok (Layers.apply_durable eng ev)) inputs.p;
  ok (Durable.checkpoint eng);
  Durable.close eng

let result_line catalog (reps : Report.rep list) =
  let module J = Telemetry.Json in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        (m.name, J.Obj [ ("value", J.Float (Stats.median (Report.values m.name reps))); ("unit", J.Str m.unit) ]))
      (Report.names catalog reps)
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 reps in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool true);
         ("attempted", J.Int (sum (fun r -> r.Report.attempted)));
         ("failed", J.Int (sum (fun r -> r.Report.failed)));
         ("metrics", J.Obj metrics);
       ])

let report_wrong (w : Load.workload) wrong =
  List.iteri
    (fun i ((r : Inputs.rect), (sum, count), (es, ec)) ->
      if i < 10 then
        log "%s: WRONG ANSWER [%d,%d) x [%d,%d): got (%d, %d), oracle (%d, %d)" w.name r.klo r.khi r.tlo r.thi sum
          count es ec)
    wrong;
  log "%s: %d answers disagree with the oracle; no metrics written" w.name (List.length wrong);
  exit 1

(* A smoke run must produce a result that reads back, with every value
   finite and no failed operation; [Catalog.check] has already matched
   each pass's metrics against BENCHMARK.json. *)
let self_check catalog (t : Report.t) =
  let t' =
    Report.of_json (Result.get_ok (Telemetry.Json.of_string (Telemetry.Json.to_string (Report.to_json catalog t))))
  in
  List.iter
    (fun (name, reps) ->
      List.iter
        (fun (r : Report.rep) ->
          if r.failed > 0 then failwith (Printf.sprintf "smoke: %s had %d failed operations" name r.failed);
          List.iter
            (fun (k, v) -> if not (Float.is_finite v) then failwith (Printf.sprintf "smoke: %s has %s = %g" name k v))
            r.values)
        reps)
    t'.workloads;
  log "smoke: result schema, oracle and zero failures hold for %d workloads" (List.length t'.workloads)

let run argv =
  let names = ref [] and seed = ref 1 and reps = ref 1 and seconds = ref None and trace = ref None in
  let out = ref None and smoke = ref false and cli = ref "_build/default/bin/rta_cli.exe" in
  let benchmark = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.String (fun s -> names := s :: !names), "W  workload to run (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--reps", Arg.Set_int reps, "N  runs of each workload on the same inputs (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S  measured seconds of the plain pass (default: run_seconds)");
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1  plain pass only (end-to-end metrics) or traced pass only (per-layer); default both" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE  add the runs to this result file");
      ("--smoke", Arg.Set smoke, " tiny inputs and a short run, then check the result");
      ("--cli", Arg.Set_string cli, "PATH  the rta_cli executable to serve with");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json, for the metric list and bounds");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2);
  let plain = !trace <> Some 1 and traced = !trace <> Some 0 in
  if (match !trace with Some t -> t <> 0 && t <> 1 | None -> false) || !reps < 1 || Option.fold ~none:false ~some:(fun s -> s <= 0.) !seconds then begin
    prerr_endline usage;
    exit 2
  end;
  let workloads =
    match List.rev !names with
    | [] -> Load.workloads
    | ns ->
        List.map
          (fun n ->
            match Load.find n with
            | Some w -> w
            | None ->
                log "unknown workload %S" n;
                exit 2)
          ns
  in
  let catalog = Catalog.load !benchmark in
  if not (Sys.file_exists !cli) then failwith (!cli ^ " not found; build it with dune build bin/rta_cli.exe");
  let seconds = Option.value !seconds ~default:(Catalog.run_seconds !benchmark) in
  let seconds = if !smoke then Float.min seconds 1. else seconds in
  (* Scratch space under the working directory, removed on every exit
     once the servers are stopped. *)
  let dir = "_perfwork" in
  Proc.mkdir_p dir;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf dir);
  let sub = Filename.concat dir in
  let inputs = Inputs.make ~seed:!seed ~smoke:!smoke in
  log "building P (seed %d, %d events)" !seed (Array.length inputs.p);
  build_p inputs (sub "p");
  let oracle_p = Inputs.Oracle.of_events ~max_key:inputs.max_key inputs.p in
  log "P built";
  let env = { Passes.cli = !cli; inputs; p_dir = sub "p"; run_dir = sub "run"; oracle_p } in
  let n_queries, n_updates = if !smoke then (200, 500) else (2000, 20_000) in
  let results =
    List.map
      (fun (w : Load.workload) ->
        let reps =
          List.init !reps (fun i ->
              log "%s: run %d/%d" w.name (i + 1) !reps;
              let started = Unix.gettimeofday () in
              let check kind (o : Passes.outcome) =
                if o.wrong <> [] then report_wrong w o.wrong;
                Catalog.check catalog kind (List.map fst o.metrics);
                o
              in
              let p = if plain then Some (check Catalog.End_to_end (Passes.plain env w ~seconds)) else None in
              let t =
                if traced then begin
                  log "%s: traced pass" w.name;
                  let o = Passes.traced_socket env w ~seconds in
                  let layers = Layers.run ~inputs ~p_dir:env.p_dir ~dir:(sub "layers") w ~n_queries ~n_updates in
                  Some (check Catalog.Per_layer { o with metrics = o.metrics @ layers })
                end
                else None
              in
              log "%s: run %d done" w.name (i + 1);
              let parts = List.filter_map Fun.id [ p; t ] in
              {
                Report.seed = !seed;
                started;
                attempted = List.fold_left (fun n (o : Passes.outcome) -> n + o.attempted) 0 parts;
                failed = List.fold_left (fun n (o : Passes.outcome) -> n + o.failed) 0 parts;
                values = List.concat_map (fun (o : Passes.outcome) -> o.metrics) parts;
              })
        in
        Report.print_workload catalog w.name reps;
        print_endline (result_line catalog reps);
        (w.name, reps))
      workloads
  in
  let t = { Report.seconds; smoke = !smoke; workloads = results } in
  Option.iter
    (fun path ->
      let t = if Sys.file_exists path then Report.merge (Report.read path) t else t in
      Report.write catalog path t;
      log "wrote %s" path)
    !out;
  if !smoke then self_check catalog t

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: _ -> run (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | [ _; "compare"; a; b ] -> if Report.compare_files (Catalog.load "BENCHMARK.json") a b > 0 then exit 1
  | [ _; "compare"; "--benchmark"; f; a; b ] -> if Report.compare_files (Catalog.load f) a b > 0 then exit 1
  | _ ->
      prerr_endline usage;
      exit 2
