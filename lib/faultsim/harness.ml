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
  ops : M.op array;
  updates : update array;
  marks : (int * int) array;
      (* (op_count, n_updates) after each update completed *)
}

(* --- Trace generation --------------------------------------------------------- *)

let run_trace ?(sync_policy = Wal.Every_n 4) ?(checkpoint_every = 0)
    ?(store = Storage.Store_kind.Memory) ?(seed = 1) ?(updates = 120) ~max_key
    () =
  let fs = M.create () in
  let vfs = M.vfs fs in
  (* The journal is an in-memory filesystem, which nothing can map, so
     the trace runs on the memory store whatever [store] its recoveries
     use: both stores write the same files, and the working set of
     neither reaches them. *)
  let eng = Durable.open_ ~sync_policy ~checkpoint_every ~vfs ~max_key ~path:"w" () in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let ups = ref [] in
  let marks = ref [] in
  let now = ref 0 in
  for _ = 1 to updates do
    now := !now + Random.State.int rng 3;
    let rta = Durable.warehouse eng in
    let alive = Rta.alive_count rta in
    let start = Random.State.int rng max_key in
    if alive > 0 && (alive >= max_key || Random.State.int rng 3 = 0) then begin
      let rec find i =
        let k = (start + i) mod max_key in
        if Rta.is_alive rta ~key:k then k else find (i + 1)
      in
      let key = find 0 in
      Storage.Storage_error.ok_exn (Durable.delete eng ~key ~at:!now);
      ups := Delete { key; at = !now } :: !ups
    end
    else begin
      let rec find i =
        let k = (start + i) mod max_key in
        if Rta.is_alive rta ~key:k then find (i + 1) else k
      in
      let key = find 0 in
      let value = 1 + Random.State.int rng 100 in
      Storage.Storage_error.ok_exn (Durable.insert eng ~key ~value ~at:!now);
      ups := Insert { key; value; at = !now } :: !ups
    end;
    marks := (M.op_count fs, Rta.n_updates rta) :: !marks
  done;
  Durable.close eng;
  {
    prefix = "w";
    max_key;
    max_t = !now + 2;
    sync_policy;
    checkpoint_every;
    store;
    ops = Array.of_list (M.ops fs);
    updates = Array.of_list (List.rev !ups);
    marks = Array.of_list (List.rev !marks);
  }

(* --- Bounds on what recovery may legally find --------------------------------- *)

(* Upper bound: the update in flight at the cut may or may not have made
   it into the log, but nothing past it can have. *)
let issued_ceiling trace ~cut =
  let m = Array.length trace.marks in
  let rec go i =
    if i >= m then Array.length trace.updates
    else
      let opc, nu = trace.marks.(i) in
      if opc >= cut then nu else go (i + 1)
  in
  go 0

(* Lower bound for every cut at once: replay the journal tracking
   (a) complete log frames covered by an fsync of the WAL and (b) the
   last checkpoint whose pointer rename was committed by a directory
   fsync.  Whatever recovery does, it must recover at least
   [max synced checkpointed] updates — that state was durable. *)
let durable_floors trace =
  let wal = trace.prefix ^ ".wal" in
  let ptr = trace.prefix ^ ".ckpt" in
  let n = Array.length trace.ops in
  let m = Array.length trace.marks in
  let floors = Array.make (n + 1) 0 in
  let wal_base = ref 0 (* updates the log's live region sits on top of *) in
  let appends = ref 0 in
  let synced = ref 0 in
  let ckpt = ref 0 in
  let pending_ptr = ref None in
  let mark_idx = ref 0 in
  let issued = ref 0 (* updates fully issued strictly before this op *) in
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
          (* The engine truncates only after the checkpoint covering
             [issued] committed; conservative by the in-flight update. *)
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

let durable_floor trace ~cut = (durable_floors trace).(cut)

(* --- Invariant checking ------------------------------------------------------- *)

type violation = { cut : int; kind : Explorer.kind; reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "cut %d (%a): %s" v.cut Explorer.pp_kind v.kind v.reason

type report = {
  ops : int;
  distinct_images : int;
  checked : int;
  violations : violation list;
}

let pp_report ppf r =
  Format.fprintf ppf "%d journal ops, %d distinct crash images, %d checked, %d violation%s"
    r.ops r.distinct_images r.checked (List.length r.violations)
    (if List.length r.violations = 1 then "" else "s");
  List.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v) r.violations

let queries ~max_key ~max_t ~seed ~count =
  let rng = Random.State.make [| seed; 0xca5e |] in
  List.init count (fun _ ->
      let klo = Random.State.int rng max_key in
      let khi = klo + 1 + Random.State.int rng (max_key - klo) in
      let tlo = Random.State.int rng max_t in
      let thi = tlo + 1 + Random.State.int rng (max_t - tlo) in
      (klo, khi, tlo, thi))

let oracle_answers trace qs n =
  let w = Reference.Warehouse.create () in
  Array.iteri
    (fun i u ->
      if i < n then
        match u with
        | Insert { key; value; at } -> Reference.Warehouse.insert w ~key ~value ~at
        | Delete { key; at } -> Reference.Warehouse.delete w ~key ~at)
    trace.updates;
  List.map
    (fun (klo, khi, tlo, thi) ->
      ( Reference.Warehouse.rta_sum w ~klo ~khi ~tlo ~thi,
        Reference.Warehouse.rta_count w ~klo ~khi ~tlo ~thi ))
    qs

let rta_answers rta qs =
  List.map (fun (klo, khi, tlo, thi) -> Rta.sum_count rta ~klo ~khi ~tlo ~thi) qs

(* [k vfs path] over a crash image, as recovery under [store] reads it.
   The memory store opens it in a fresh in-memory filesystem.  The mmap
   store maps the checkpoint it recovers from, which only a real file
   allows: the image is written out to a fresh directory, the engine
   opens it there through the OS, and the directory goes once [k]
   returns. *)
let with_image store ~prefix (img : Explorer.image) k =
  match store with
  | Storage.Store_kind.Memory -> k (M.vfs (Explorer.to_memory_fs img)) prefix
  | Storage.Store_kind.Mmap ->
      let dir = Filename.temp_dir "rta-crash-image" "" in
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
      Explorer.materialize img ~dir;
      k Storage.Vfs.os (Filename.concat dir prefix)

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
  let qs = queries ~max_key:trace.max_key ~max_t:trace.max_t ~seed:query_seed ~count:query_count in
  let expected = Hashtbl.create 64 in
  let expect n =
    match Hashtbl.find_opt expected n with
    | Some a -> a
    | None ->
        let a = oracle_answers trace qs n in
        Hashtbl.add expected n a;
        a
  in
  let violations = ref [] in
  let viol (img : Explorer.image) fmt =
    Format.kasprintf
      (fun reason ->
        violations := { cut = img.cut; kind = img.kind; reason } :: !violations)
      fmt
  in
  List.iter
    (fun (img : Explorer.image) ->
      with_image trace.store ~prefix:trace.prefix img @@ fun vfs path ->
      match reopen trace vfs path with
      | exception e -> viol img "recovery raised %s" (Printexc.to_string e)
      | eng -> (
          let rta = Durable.warehouse eng in
          let n = Rta.n_updates rta in
          let floor = floors.(img.cut) in
          let ceiling = issued_ceiling trace ~cut:img.cut in
          if n < floor then
            viol img "recovered %d updates, durable floor is %d" n floor
          else if n > ceiling then
            viol img "recovered %d updates, only %d were ever issued" n ceiling
          else
            let got = rta_answers rta qs in
            if got <> expect n then
              viol img "recovered state diverges from the oracle prefix of %d updates" n
            else begin
              Durable.close eng;
              (* Recovery must be idempotent: it rewrites the torn tail,
                 and opening again on what it left behind must land on the
                 exact same state. *)
              match reopen trace vfs path with
              | exception e ->
                  viol img "second recovery raised %s" (Printexc.to_string e)
              | eng2 ->
                  let rta2 = Durable.warehouse eng2 in
                  let n2 = Rta.n_updates rta2 in
                  let got2 = rta_answers rta2 qs in
                  Durable.close eng2;
                  if n2 <> n || got2 <> got then
                    viol img "recovery is not idempotent (%d then %d updates)" n n2
            end))
    sampled;
  {
    ops = Array.length trace.ops;
    distinct_images = distinct;
    checked = List.length sampled;
    violations = List.rev !violations;
  }
