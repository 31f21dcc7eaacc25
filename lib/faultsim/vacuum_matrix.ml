module M = Storage.Vfs.Memory

(* Must match the WAL's on-disk header (magic + version + crc): appends at
   or past this offset are log frames, one complete record each. *)
let wal_header_bytes = 16

type update =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }

type trace = {
  prefix : string;
  max_key : int;
  max_t : int;
  sync_policy : Wal.sync_policy;
  checkpoint_every : int;
  store : Storage.Store_kind.t;
  vacuum_step_pages : int;
  horizons : int list; (* the vacuum targets the trace ran, ascending *)
  ops : M.op array;
  updates : update array;
  marks : (int * int) array; (* (op_count, n_updates) after each engine call *)
  data_prefix : int array;
      (* seq -> how many of [updates] the first [seq] WAL records carry
         (vacuum records consume sequence numbers but carry no data) *)
  horizon_at : int array; (* seq -> retention horizon after [seq] records *)
}

(* --- Trace generation --------------------------------------------------------- *)

(* A churn workload with two online vacuums spliced in (one mid-stream,
   one at the end) and auto-checkpoints armed, so the journal contains
   every compaction boundary worth killing at: between vacuum-begin and
   the first chunk, between chunks, between a chunk and an auto
   checkpoint it tripped, between the checkpoint's pointer rename and the
   WAL truncate, and the quiet stretches in between.  [vacuum_step_pages]
   is kept tiny so one vacuum spreads over many WAL records. *)
let run_trace ?(sync_policy = Wal.Every_n 4) ?(checkpoint_every = 40)
    ?(store = Storage.Store_kind.Memory) ?(seed = 1) ?(updates = 110)
    ?(vacuum_step_pages = 4) ~max_key () =
  let fs = M.create () in
  let vfs = M.vfs fs in
  (* An in-memory journal, which nothing can map: the trace runs on the
     memory store whatever [store] its recoveries use. *)
  let eng = Durable.open_ ~sync_policy ~checkpoint_every ~vfs ~max_key ~path:"w" () in
  let rta = Durable.warehouse eng in
  let rng = Random.State.make [| seed; 0xacc5 |] in
  let ups = ref [] in
  let marks = ref [] in
  (* Reversed, seq-indexed (including seq 0): data counts and horizons. *)
  let dps = ref [ 0 ] in
  let hzs = ref [ 0 ] in
  let horizons = ref [] in
  let now = ref 0 in
  let mark () = marks := (M.op_count fs, Rta.n_updates rta) :: !marks in
  let note_update u =
    ups := u :: !ups;
    dps := (List.hd !dps + 1) :: !dps;
    hzs := List.hd !hzs :: !hzs;
    mark ()
  in
  let do_update () =
    now := !now + Random.State.int rng 3;
    let alive = Rta.alive_count rta in
    let start = Random.State.int rng max_key in
    if alive > 0 && (alive >= max_key || Random.State.int rng 3 = 0) then begin
      let rec find i =
        let k = (start + i) mod max_key in
        if Rta.is_alive rta ~key:k then k else find (i + 1)
      in
      let key = find 0 in
      Storage.Storage_error.ok_exn (Durable.delete eng ~key ~at:!now);
      note_update (Delete { key; at = !now })
    end
    else begin
      let rec find i =
        let k = (start + i) mod max_key in
        if Rta.is_alive rta ~key:k then find (i + 1) else k
      in
      let key = find 0 in
      let value = 1 + Random.State.int rng 100 in
      Storage.Storage_error.ok_exn (Durable.insert eng ~key ~value ~at:!now);
      note_update (Insert { key; value; at = !now })
    end
  in
  let do_vacuum h =
    let before = Rta.n_updates rta in
    (match Durable.vacuum ~max_pages_per_step:vacuum_step_pages eng ~horizon:h with
    | Ok _ -> ()
    | Error e -> failwith ("vacuum_matrix: trace vacuum failed: " ^ Storage.Storage_error.to_string e));
    let added = Rta.n_updates rta - before in
    for _ = 1 to added do
      dps := List.hd !dps :: !dps;
      hzs := h :: !hzs
    done;
    horizons := h :: !horizons;
    mark ()
  in
  let first_leg = (updates * 3) / 5 in
  for _ = 1 to first_leg do do_update () done;
  do_vacuum (!now / 2);
  for _ = first_leg + 1 to updates do do_update () done;
  do_vacuum ((2 * !now) / 3);
  Durable.close eng;
  {
    prefix = "w";
    max_key;
    max_t = !now + 2;
    sync_policy;
    checkpoint_every;
    store;
    vacuum_step_pages;
    horizons = List.rev !horizons;
    ops = Array.of_list (M.ops fs);
    updates = Array.of_list (List.rev !ups);
    marks = Array.of_list (List.rev !marks);
    data_prefix = Array.of_list (List.rev !dps);
    horizon_at = Array.of_list (List.rev !hzs);
  }

(* --- Bounds on what recovery may legally find --------------------------------- *)

(* Same durability model as {!Harness}, counted in WAL records (vacuum
   records included — they consume sequence numbers exactly like
   updates, which is what keeps these bounds exact across retention
   work). *)

let issued_ceiling trace ~cut =
  let m = Array.length trace.marks in
  let rec go i =
    if i >= m then Array.length trace.data_prefix - 1
    else
      let opc, nu = trace.marks.(i) in
      if opc >= cut then nu else go (i + 1)
  in
  go 0

let durable_floors trace =
  let wal = trace.prefix ^ ".wal" in
  let ptr = trace.prefix ^ ".ckpt" in
  let n = Array.length trace.ops in
  let m = Array.length trace.marks in
  let floors = Array.make (n + 1) 0 in
  let wal_base = ref 0 in
  let appends = ref 0 in
  let synced = ref 0 in
  let ckpt = ref 0 in
  let pending_ptr = ref None in
  let mark_idx = ref 0 in
  let issued = ref 0 in
  for cut = 0 to n do
    while !mark_idx < m && fst trace.marks.(!mark_idx) <= cut do
      issued := snd trace.marks.(!mark_idx);
      incr mark_idx
    done;
    floors.(cut) <- max !synced !ckpt;
    if cut < n then
      match trace.ops.(cut) with
      | M.Pwrite { path; off; _ } when path = wal ->
          if off >= wal_header_bytes then incr appends
      | M.Truncate (p, _) when p = wal ->
          wal_base := !issued;
          appends := 0
      | M.Sync p when p = wal -> synced := !wal_base + !appends
      | M.Rename (_, dst) when dst = ptr -> pending_ptr := Some !issued
      | M.Sync_dir _ -> (
          match !pending_ptr with
          | Some u ->
              ckpt := max !ckpt u;
              pending_ptr := None
          | None -> ())
      | _ -> ()
  done;
  floors

(* --- Invariant checking ------------------------------------------------------- *)

type violation = { cut : int; kind : Explorer.kind; reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "cut %d (%a): %s" v.cut Explorer.pp_kind v.kind v.reason

type report = {
  ops : int;
  distinct_images : int;
  checked : int;
  horizons : int list;
  violations : violation list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%d journal ops, %d distinct crash images, %d checked (horizons %s), %d violation%s"
    r.ops r.distinct_images r.checked
    (String.concat "," (List.map string_of_int r.horizons))
    (List.length r.violations)
    (if List.length r.violations = 1 then "" else "s");
  List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v) r.violations

let queries ~max_key ~max_t ~seed ~count =
  let rng = Random.State.make [| seed; 0x7ac5 |] in
  List.init count (fun _ ->
      let klo = Random.State.int rng max_key in
      let khi = klo + 1 + Random.State.int rng (max_key - klo) in
      let tlo = Random.State.int rng max_t in
      let thi = tlo + 1 + Random.State.int rng (max_t - tlo) in
      (klo, khi, tlo, thi))

let oracle_answers trace qs n_data =
  let w = Reference.Warehouse.create () in
  Array.iteri
    (fun i u ->
      if i < n_data then
        match u with
        | Insert { key; value; at } -> Reference.Warehouse.insert w ~key ~value ~at
        | Delete { key; at } -> Reference.Warehouse.delete w ~key ~at)
    trace.updates;
  List.map
    (fun (klo, khi, tlo, thi) ->
      ( Reference.Warehouse.rta_sum w ~klo ~khi ~tlo ~thi,
        Reference.Warehouse.rta_count w ~klo ~khi ~tlo ~thi ))
    qs

(* Compare the live warehouse against oracle answers, honouring the
   horizon: rectangles whose first instant lies below it must refuse
   with [Below_horizon], everything else must match the oracle exactly.
   Returns an error description, or [None] when all pass. *)
let compare_queries rta qs expected =
  let h = Rta.horizon rta in
  let rec go qs expected =
    match (qs, expected) with
    | [], [] -> None
    | (klo, khi, tlo, thi) :: qs', want :: expected' -> (
        let refused = klo < khi && tlo < thi && max 0 tlo < h in
        match Rta.sum_count rta ~klo ~khi ~tlo ~thi with
        | exception Mvsbt.Below_horizon _ when refused -> go qs' expected'
        | exception Mvsbt.Below_horizon _ ->
            Some
              (Printf.sprintf "query [%d,%d)x[%d,%d) refused above horizon %d" klo khi
                 tlo thi h)
        | exception e ->
            (* A freed-but-still-referenced page surfaces here as a missing
               read — that is precisely a matrix violation, not a crash. *)
            Some
              (Printf.sprintf "query [%d,%d)x[%d,%d) raised %s" klo khi tlo thi
                 (Printexc.to_string e))
        | _ when refused ->
            Some
              (Printf.sprintf "query [%d,%d)x[%d,%d) answered below horizon %d" klo khi
                 tlo thi h)
        | got ->
            if got <> want then
              Some
                (Printf.sprintf "query [%d,%d)x[%d,%d) diverges from the oracle" klo khi
                   tlo thi)
            else go qs' expected'
        )
    | _ -> Some "query panel length mismatch"
  in
  go qs expected

let reopen trace vfs path =
  Durable.open_ ~sync_policy:trace.sync_policy
    ~checkpoint_every:trace.checkpoint_every ~store:trace.store ~vfs
    ~max_key:trace.max_key ~path ()

let check ?limit ?(query_count = 20) ?(query_seed = 42) (trace : trace) =
  let images = Explorer.enumerate (Array.to_list trace.ops) in
  let distinct = List.length images in
  let sampled =
    match limit with
    | Some l when distinct > l && l > 0 ->
        let arr = Array.of_list images in
        List.init l (fun i -> arr.(i * distinct / l))
    | _ -> images
  in
  let floors = durable_floors trace in
  let qs =
    queries ~max_key:trace.max_key ~max_t:trace.max_t ~seed:query_seed
      ~count:query_count
  in
  let expected = Hashtbl.create 64 in
  let expect n_data =
    match Hashtbl.find_opt expected n_data with
    | Some a -> a
    | None ->
        let a = oracle_answers trace qs n_data in
        Hashtbl.add expected n_data a;
        a
  in
  let violations = ref [] in
  let viol (img : Explorer.image) fmt =
    Format.kasprintf
      (fun reason ->
        violations := { cut = img.cut; kind = img.kind; reason } :: !violations)
      fmt
  in
  let total = Array.length trace.data_prefix - 1 in
  List.iter
    (fun (img : Explorer.image) ->
      Harness.with_image trace.store ~prefix:trace.prefix img @@ fun vfs path ->
      match reopen trace vfs path with
      | exception e -> viol img "recovery raised %s" (Printexc.to_string e)
      | eng -> (
          let rta = Durable.warehouse eng in
          let n = Rta.n_updates rta in
          let floor = floors.(img.cut) in
          let ceiling = issued_ceiling trace ~cut:img.cut in
          if n < floor then viol img "recovered %d records, durable floor is %d" n floor
          else if n > ceiling then
            viol img "recovered %d records, only %d were ever issued" n ceiling
          else if n > total then viol img "recovered %d records out of %d" n total
          else begin
            (* The horizon is part of the logged state: it must be exactly
               what the recovered WAL prefix says, never ahead of it
               (which would refuse answerable queries) and never behind
               (which would serve vacuumed garbage). *)
            let h = Rta.horizon rta in
            if h <> trace.horizon_at.(n) then begin
              viol img "recovered horizon %d, WAL prefix of %d records says %d" h n
                trace.horizon_at.(n);
              Durable.close eng
            end
            else begin
              (* Walks the whole reachable graph: a freed page still
                 reachable above the horizon fails here (missing page or
                 broken partition), as does a live page lost. *)
              (match Rta.check_invariants rta with
              | () -> ()
              | exception e ->
                  viol img "invariants violated after recovery: %s" (Printexc.to_string e));
              (match compare_queries rta qs (expect trace.data_prefix.(n)) with
              | Some msg -> viol img "%s (at %d records)" msg n
              | None -> ());
              Durable.close eng;
              (* Recovery must be idempotent... *)
              match reopen trace vfs path with
              | exception e -> viol img "second recovery raised %s" (Printexc.to_string e)
              | eng2 ->
                  let rta2 = Durable.warehouse eng2 in
                  if Rta.n_updates rta2 <> n || Rta.horizon rta2 <> h then
                    viol img "recovery is not idempotent (%d/%d then %d/%d)" n h
                      (Rta.n_updates rta2) (Rta.horizon rta2)
                  else begin
                    (* ... and so must vacuuming: finishing the interrupted
                       retention work (or redoing it) on the recovered
                       state converges, and a second pass finds nothing. *)
                    let rv = max h ((2 * Rta.now rta2) / 3) in
                    (match Durable.vacuum eng2 ~horizon:rv with
                    | Error e ->
                        viol img "re-vacuum to %d failed: %s" rv
                          (Storage.Storage_error.to_string e)
                    | Ok _ -> (
                        match Durable.vacuum eng2 ~horizon:rv with
                        | Error e ->
                            viol img "second re-vacuum failed: %s"
                              (Storage.Storage_error.to_string e)
                        | Ok r2 ->
                            if
                              r2.Rta.v_progress.Rta.pages_freed <> 0
                              || r2.Rta.v_progress.Rta.records_dropped <> 0
                            then
                              viol img
                                "re-vacuum is not idempotent (freed %d, dropped %d)"
                                r2.Rta.v_progress.Rta.pages_freed
                                r2.Rta.v_progress.Rta.records_dropped
                            else begin
                              (match Rta.check_invariants rta2 with
                              | () -> ()
                              | exception e ->
                                  viol img "invariants violated after re-vacuum: %s"
                                    (Printexc.to_string e));
                              match
                                compare_queries rta2 qs (expect trace.data_prefix.(n))
                              with
                              | Some msg -> viol img "after re-vacuum: %s" msg
                              | None -> ()
                            end));
                    Durable.close eng2
                  end
            end
          end))
    sampled;
  {
    ops = Array.length trace.ops;
    distinct_images = distinct;
    checked = List.length sampled;
    horizons = trace.horizons;
    violations = List.rev !violations;
  }
