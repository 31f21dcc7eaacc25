(* Integrity: surviving bit rot with checksums, scrub, and a twin.

     dune exec examples/scrub_repair.exe

   Every chunk of a checkpoint carries a CRC32, so silent corruption — a
   cosmic-ray bit flip, a torn sector, a buggy firmware write — is caught
   when recovery reads it instead of being decoded into garbage
   aggregates.  This example builds a warehouse and an identical twin,
   each checkpointed once, flips random bits in the primary's checkpoint,
   shows that opening it now fails loudly, then runs the scrub pipeline:
   detect every corrupt chunk, repair each one from the twin, and verify
   the healed warehouse answers exactly like the twin again. *)

let () =
  let dir = Filename.temp_file "scrub" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let primary = Filename.concat dir "primary" in
  let twin = Filename.concat dir "twin" in

  let spec : Workload.Generator.spec =
    {
      n_records = 3_000;
      n_keys = 150;
      max_key = 8_000;
      max_time = 100_000;
      key_distribution = Workload.Generator.Uniform;
      interval_style = Workload.Generator.Short_lived;
      value_bound = 500;
      version_skew = 0.;
      seed = 7;
    }
  in
  let events = Workload.Generator.events spec in
  let ok = Storage.Storage_error.ok_exn in
  let open_ path = Durable.open_ ~max_key:spec.max_key ~path () in

  (* Same update sequence into both warehouses, checkpointed at the same
     update count: page allocation is deterministic, so the twin's
     checkpoint is byte for byte the primary's — exactly what repair
     needs. *)
  let build path =
    let eng = open_ path in
    Workload.Trace.replay events
      ~insert:(fun ~key ~value ~at -> ok (Durable.insert eng ~key ~value ~at))
      ~delete:(fun ~key ~at -> ok (Durable.delete eng ~key ~at));
    ok (Durable.checkpoint eng);
    let n = Rta.n_updates (Durable.warehouse eng) in
    Durable.close eng;
    n
  in
  let n = build primary in
  ignore (build twin);
  Printf.printf "Built primary and twin: %d updates each, one checkpoint.\n" n;

  (* Scrub opens the log with a descriptor of its own, so it runs with no
     engine open on the warehouse in this process. *)
  let clean = Durable.scrub ~path:primary () in
  Format.printf "Initial scrub: %a@." Durable.pp_scrub_report clean;

  (* Bit rot strikes the primary's checkpoint. *)
  let hits = Durable.inject_bit_flips ~path:primary ~seed:13 ~flips:9 () in
  Printf.printf "\nFlipped one bit in each of %d checkpoint chunks of the primary.\n"
    (List.length hits);

  (* The damage is not silent: recovery reads every chunk and refuses the
     first one that fails its CRC, so no garbage is ever served. *)
  (match open_ primary with
  | eng ->
      Durable.close eng;
      failwith "a corrupt checkpoint opened"
  | exception Storage.Storage_error.Io e ->
      assert (e.Storage.Storage_error.errno = Storage.Storage_error.Checksum_mismatch);
      Format.printf "Open failed loudly: %a — no garbage served.@."
        Storage.Storage_error.pp e);

  (* Scrub + repair from the twin, then prove the patient recovered. *)
  let stats = Storage.Io_stats.create () in
  let report = Durable.scrub ~stats ~repair_from:twin ~path:primary () in
  Format.printf "\nScrub with repair: %a@." Durable.pp_scrub_report report;
  Format.printf "Counters: %a@." Storage.Io_stats.pp stats;
  assert (report.Durable.repaired = hits);
  assert (Durable.scrub_clean (Durable.scrub ~path:primary ()));

  let healed = open_ primary and reference = open_ twin in
  let rects =
    [ (0, spec.max_key, 0, spec.max_time); (100, 4_000, 20_000, 70_000);
      (2_000, 8_000, 0, 50_000); (0, 1_000, 90_000, 100_000) ]
  in
  List.iter
    (fun (klo, khi, tlo, thi) ->
      let s, c = Durable.sum_count healed ~klo ~khi ~tlo ~thi in
      let s', c' = Durable.sum_count reference ~klo ~khi ~tlo ~thi in
      assert (s = s' && c = c');
      Printf.printf "  SUM=%-8d COUNT=%-5d over [%d,%d)x[%d,%d) — matches twin\n"
        s c klo khi tlo thi)
    rects;
  Durable.close healed;
  Durable.close reference;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Printf.printf "\nAll %d query rectangles agree with the twin; warehouse healed.\n"
    (List.length rects)
