module M = Storage.Vfs.Memory
module I = Storage.Vfs.Inject
module E = Storage.Storage_error

(* --- Scripts ------------------------------------------------------------------- *)

type step =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }
  | Checkpoint
  | Vacuum of { horizon : int }

let vacuum_step_pages = 4

type preset = [ `Crash | `Vacuum | `Errsweep | `Replica ]

let presets =
  [ ("crash", `Crash); ("vacuum", `Vacuum); ("errsweep", `Errsweep); ("replica", `Replica) ]

type script = { steps : step array; max_key : int; max_t : int }

let script (preset : preset) ~seed ~updates ~max_key =
  let rng = Random.State.make [| seed; (if preset = `Vacuum then 0xacc5 else 0x5eed) |] in
  let alive = Array.make max_key false and n_alive = ref 0 in
  let now = ref 0 and steps = ref [] in
  let push s = steps := s :: !steps in
  for i = 1 to updates do
    now := !now + Random.State.int rng 3;
    let start = Random.State.int rng max_key in
    let delete = !n_alive > 0 && (!n_alive >= max_key || Random.State.int rng 3 = 0) in
    (* The first key from [start] on, cyclically, that is alive if we
       delete and dead if we insert. *)
    let rec find i =
      let k = (start + i) mod max_key in
      if alive.(k) = delete then k else find (i + 1)
    in
    let key = find 0 in
    alive.(key) <- not delete;
    n_alive := !n_alive + if delete then -1 else 1;
    push
      (if delete then Delete { key; at = !now }
       else Insert { key; value = 1 + Random.State.int rng 100; at = !now });
    match preset with
    | `Vacuum when i = updates * 3 / 5 -> push (Vacuum { horizon = !now / 2 })
    | `Vacuum when i = updates -> push (Vacuum { horizon = 2 * !now / 3 })
    | `Errsweep when i = updates / 2 -> push Checkpoint
    | _ -> ()
  done;
  { steps = Array.of_list (List.rev !steps); max_key; max_t = !now + 2 }

let apply eng = function
  | Insert { key; value; at } -> Durable.insert eng ~key ~value ~at
  | Delete { key; at } -> Durable.delete eng ~key ~at
  | Checkpoint -> Durable.checkpoint eng
  | Vacuum { horizon } ->
      Result.map ignore (Durable.vacuum ~max_pages_per_step:vacuum_step_pages eng ~horizon)

let counted step r ~moved =
  let steps, want =
    match (step, r) with
    | Vacuum _, _ -> (List.init moved (fun _ -> step), moved)
    | (Insert _ | Delete _), Ok () -> ([ step ], 1)
    | (Insert _ | Delete _), Error _ | Checkpoint, _ -> ([], 0)
  in
  ( steps,
    if moved = want then None
    else
      Some
        (Printf.sprintf "answered %s but moved the record count by %d, not %d"
           (if Result.is_ok r then "Ok" else "an error")
           moved want) )

(* [apply], with what {!counted} makes of it. *)
let apply_counted eng step =
  let rta = Durable.warehouse eng in
  let before = Rta.n_updates rta in
  let r = apply eng step in
  let steps, wrong = counted step r ~moved:(Rta.n_updates rta - before) in
  (r, steps, wrong)

(* --- The check ----------------------------------------------------------------- *)

type oracle = {
  panel : (int * int * int * int) list;
  log : step array;
  memo : (int, (int * int) list) Hashtbl.t;
}

let rectangles ~max_key ~max_t ~seed ~count =
  let rng = Random.State.make [| seed; 0xca5e |] in
  List.init count (fun _ ->
      let klo = Random.State.int rng max_key in
      let khi = klo + 1 + Random.State.int rng (max_key - klo) in
      let tlo = Random.State.int rng max_t in
      let thi = tlo + 1 + Random.State.int rng (max_t - tlo) in
      (klo, khi, tlo, thi))

let oracle script log =
  let panel = rectangles ~max_key:script.max_key ~max_t:script.max_t ~seed:42 ~count:20 in
  { panel; log; memo = Hashtbl.create 64 }

(* The panel as a brute-force warehouse replaying the updates of the
   first [n] records answers it. *)
let answers o n =
  match Hashtbl.find_opt o.memo n with
  | Some a -> a
  | None ->
      let w = Reference.Warehouse.create () in
      for i = 0 to n - 1 do
        match o.log.(i) with
        | Insert { key; value; at } -> Reference.Warehouse.insert w ~key ~value ~at
        | Delete { key; at } -> Reference.Warehouse.delete w ~key ~at
        | Checkpoint | Vacuum _ -> ()
      done;
      let a =
        List.map
          (fun (klo, khi, tlo, thi) ->
            ( Reference.Warehouse.rta_sum w ~klo ~khi ~tlo ~thi,
              Reference.Warehouse.rta_count w ~klo ~khi ~tlo ~thi ))
          o.panel
      in
      Hashtbl.add o.memo n a;
      a

(* The horizon the first [n] records leave: each vacuum record carries
   its vacuum's. *)
let horizon_at o n =
  let h = ref 0 in
  for i = 0 to n - 1 do
    match o.log.(i) with Vacuum { horizon } -> h := horizon | _ -> ()
  done;
  !h

type seen = { records : int; horizon : int; answers : (int * int) option list }

let see o eng =
  let rta = Durable.warehouse eng in
  {
    records = Rta.n_updates rta;
    horizon = Rta.horizon rta;
    answers =
      List.map
        (fun (klo, khi, tlo, thi) ->
          match Rta.sum_count rta ~klo ~khi ~tlo ~thi with
          | a -> Some a
          | exception Mvsbt.Below_horizon _ -> None)
        o.panel;
  }

(* [f ()]'s violations, or the one naming what it raised. *)
let guard what f =
  try f () with e -> [ Printf.sprintf "%s raised %s" what (Printexc.to_string e) ]

(* The panel against the oracle at [n] records: refused exactly where a
   rectangle starts below the horizon [s] shows, exact elsewhere.  A
   freed page still reachable surfaces in [see] as a failed read. *)
let panel_errors o n s =
  let h = s.horizon in
  let rec first = function
    | [] -> []
    | (((klo, khi, tlo, thi), want), got) :: rest -> (
        let what = Printf.sprintf "query [%d,%d)x[%d,%d)" klo khi tlo thi in
        match got with
        | None when tlo < h -> first rest
        | None -> [ Printf.sprintf "%s refused above horizon %d" what h ]
        | Some _ when tlo < h -> [ Printf.sprintf "%s answered below horizon %d" what h ]
        | Some a when a <> want ->
            [ Printf.sprintf "%s diverges from the oracle prefix of %d records" what n ]
        | Some _ -> first rest)
  in
  first (List.combine (List.combine o.panel (answers o n)) s.answers)

let invariants eng =
  guard "Rta.check_invariants" (fun () ->
      Rta.check_invariants (Durable.warehouse eng);
      [])

(* The check, and what the engine showed ([None] if its panel raised). *)
let check_seen o ~floor ~ceiling eng =
  match see o eng with
  | exception e -> (None, [ "the panel raised " ^ Printexc.to_string e ])
  | s ->
      let n = s.records in
      ( Some s,
        guard "the check" @@ fun () ->
        if n < floor then
          [ Printf.sprintf "recovered %d records, fewer than the floor %d" n floor ]
        else if n > ceiling then
          [ Printf.sprintf "recovered %d records, more than the ceiling %d" n ceiling ]
        else if s.horizon <> horizon_at o n then
          [
            Printf.sprintf "recovered horizon %d, WAL prefix of %d records says %d" s.horizon n
              (horizon_at o n);
          ]
        else invariants eng @ panel_errors o n s )

(* [k] over the engine [open_] returns, closed whatever [k] does; what
   the open or [k] raises is a violation. *)
let using what open_ k =
  match open_ () with
  | exception e -> [ Printf.sprintf "%s raised %s" what (Printexc.to_string e) ]
  | eng ->
      Fun.protect ~finally:(fun () -> Durable.close eng) (fun () -> guard what (fun () -> k eng))

let recover_seen o ~floor ~ceiling open_ =
  let seen = ref None in
  let vs =
    using "recovery" open_ (fun eng ->
        let s, vs = check_seen o ~floor ~ceiling eng in
        seen := s;
        vs)
  in
  (!seen, vs)

let check o ~floor ~ceiling eng = snd (check_seen o ~floor ~ceiling eng)
let check_recovered o ~floor ~ceiling open_ = snd (recover_seen o ~floor ~ceiling open_)

(* --- Reports ------------------------------------------------------------------- *)

type violation = { at : string; reason : string }
type report = { counts : (string * int) list; violations : violation list }

let count r label = List.assoc label r.counts

let pp_report ppf r =
  List.iter (fun (label, n) -> Format.fprintf ppf "%s %d, " label n) r.counts;
  let n = List.length r.violations in
  Format.fprintf ppf "%d violation%s" n (if n = 1 then "" else "s");
  List.iteri
    (fun i v -> if i < 20 then Format.fprintf ppf "@\n  %s: %s" v.at v.reason)
    r.violations;
  if n > 20 then Format.fprintf ppf "@\n  ... and %d more" (n - 20)

let sample ?limit xs =
  let len = List.length xs in
  match limit with
  | Some l when len > l && l > 0 ->
      let arr = Array.of_list xs in
      List.init l (fun i -> arr.(i * len / l))
  | _ -> xs

(* --- The crash dimension ------------------------------------------------------- *)

type journal = {
  script : script;
  sync_policy : Wal.sync_policy;
  checkpoint_every : int;
  ops : M.op array;
  marks : (int * int) array;
  log : step array;
  recording : violation list;
}

let prefix = "w"

let record ?(sync_policy = Wal.Every_n 4) ?(checkpoint_every = 0) script =
  let fs = M.create () in
  let eng =
    Durable.open_ ~sync_policy ~checkpoint_every ~vfs:(M.vfs fs) ~max_key:script.max_key
      ~path:prefix ()
  in
  let log = ref [] and marks = ref [] and recording = ref [] in
  Array.iteri
    (fun i step ->
      let r, steps, wrong = apply_counted eng step in
      E.ok_exn r;
      Option.iter
        (fun reason ->
          recording := { at = Printf.sprintf "recording, step %d" i; reason } :: !recording)
        wrong;
      log := List.rev_append steps !log;
      marks := (M.op_count fs, Rta.n_updates (Durable.warehouse eng)) :: !marks)
    script.steps;
  Durable.close eng;
  {
    script;
    sync_policy;
    checkpoint_every;
    ops = Array.of_list (M.ops fs);
    marks = Array.of_list (List.rev !marks);
    log = Array.of_list (List.rev !log);
    recording = List.rev !recording;
  }

(* Upper bound: the step in flight at the cut may or may not have
   logged, but nothing past it can have. *)
let ceiling j ~cut =
  match Array.find_opt (fun (opc, _) -> opc >= cut) j.marks with
  | Some (_, n) -> n
  | None -> Array.length j.log

(* Lower bound for every cut at once: replay the journal tracking (a)
   complete log frames covered by an fsync of the WAL and (b) the last
   checkpoint whose pointer rename a directory fsync committed.  Counted
   in WAL records: vacuum records consume sequence numbers exactly like
   updates, which keeps the bounds exact across retention work. *)
let floors j =
  let wal = Durable.wal_path prefix and ptr = prefix ^ ".ckpt" in
  let n = Array.length j.ops and m = Array.length j.marks in
  let floors = Array.make (n + 1) 0 in
  let wal_base = ref 0 (* records the log's live region sits on *) in
  let appends = ref 0 and synced = ref 0 and ckpt = ref 0 in
  let pending_ptr = ref None and mark = ref 0 in
  let issued = ref 0 (* records fully issued strictly before this op *) in
  for cut = 0 to n do
    while !mark < m && fst j.marks.(!mark) <= cut do
      issued := snd j.marks.(!mark);
      incr mark
    done;
    floors.(cut) <- max !synced !ckpt;
    if cut < n then
      match j.ops.(cut) with
      | M.Pwrite { path; off; _ } when path = wal ->
          (* Appends past the header are frames, one record each. *)
          if off >= Wal.header_bytes then incr appends
      | M.Truncate (p, _) when p = wal ->
          (* The engine truncates only after the checkpoint covering
             [issued] committed; conservative by the step in flight. *)
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

(* The memory store opens an image in a fresh in-memory filesystem.  The
   mmap store maps the checkpoint it recovers from, which only a real
   file allows: the image is written out to a fresh directory, opened
   there through the OS, and the directory goes once [k] returns. *)
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

(* The second recovery [eng] of an image whose first showed [s]: it
   must show the same, and vacuuming it must converge — the first pass
   finishes (or redoes) any interrupted retention work, the second
   finds nothing. *)
let reopened o s eng =
  let s2 = see o eng in
  if s2 <> s then
    [
      Printf.sprintf "recovery is not idempotent (%d records at horizon %d, then %d at %d%s)"
        s.records s.horizon s2.records s2.horizon
        (if s2.answers <> s.answers then ", answers differ" else "");
    ]
  else
    let rv = max s.horizon (2 * Rta.now (Durable.warehouse eng) / 3) in
    match Durable.vacuum eng ~horizon:rv with
    | Error e -> [ Printf.sprintf "re-vacuum to %d failed: %s" rv (E.to_string e) ]
    | Ok _ -> (
        match Durable.vacuum eng ~horizon:rv with
        | Error e -> [ Printf.sprintf "second re-vacuum failed: %s" (E.to_string e) ]
        | Ok { Rta.v_progress = { pages_freed = 0; records_dropped = 0; _ }; _ } ->
            invariants eng @ panel_errors o s.records (see o eng)
        | Ok { Rta.v_progress = p; _ } ->
            [
              Printf.sprintf "re-vacuum is not idempotent (freed %d, dropped %d)"
                p.Rta.pages_freed p.Rta.records_dropped;
            ])

let crash ?limit ?(store = Storage.Store_kind.Memory) j =
  let images = Explorer.enumerate (Array.to_list j.ops) in
  let checked = sample ?limit images in
  let floors = floors j and o = oracle j.script j.log in
  let violations =
    List.concat_map
      (fun (img : Explorer.image) ->
        let at = Format.asprintf "cut %d (%a)" img.cut Explorer.pp_kind img.kind in
        guard "the image" (fun () ->
            with_image store ~prefix img @@ fun vfs path ->
            let open_ () =
              Durable.open_ ~sync_policy:j.sync_policy ~checkpoint_every:j.checkpoint_every
                ~store ~vfs ~max_key:j.script.max_key ~path ()
            in
            match
              recover_seen o ~floor:floors.(img.cut) ~ceiling:(ceiling j ~cut:img.cut) open_
            with
            | None, vs -> vs
            | Some s, vs -> vs @ using "second recovery" open_ (reopened o s))
        |> List.map (fun reason -> { at; reason }))
      checked
  in
  {
    counts =
      [
        ("journal ops", Array.length j.ops);
        ("crash images", List.length images);
        ("checked", List.length checked);
      ];
    violations = j.recording @ violations;
  }

(* --- The errno dimension ------------------------------------------------------- *)

type run = {
  syscalls : int;
  fired : bool;
  surfaced : bool;
  retried : bool;
  read_only : bool;
  run_violations : string list;
}

(* One replay of [script] with a fault armed at syscall [k]. *)
let errno_run script ~sync_policy ~checkpoint_every ~cls ~k =
  let violations = ref [] in
  let viol fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let base = M.vfs (M.create ()) in
  let stats = Storage.Io_stats.create () in
  let handle, vfs = I.wrap ~stats ~persistent:(cls = I.Enospc) ~fail_at:k ~cls base in
  let max_key = script.max_key in
  let acked = ref [] (* the records acknowledged, newest first *) in
  let acked_oracle () = oracle script (Array.of_list (List.rev !acked)) in
  let surfaced = ref 0 and read_only = ref false in
  (match
     Durable.open_ ~stats ~retry:(Some Storage.Retry.no_delay) ~sync_policy ~checkpoint_every
       ~vfs ~max_key ~path:prefix ()
   with
  | exception E.Io _ -> incr surfaced
  | exception exn -> viol "open raised untyped %s" (Printexc.to_string exn)
  | eng ->
      let rta = Durable.warehouse eng in
      let update_error = ref None in
      Array.iteri
        (fun i step ->
          let due =
            match step with
            | Insert { key; _ } -> not (Rta.is_alive rta ~key)
            | Delete { key; _ } -> Rta.is_alive rta ~key
            | Checkpoint | Vacuum _ -> true
          in
          if due then
            match apply_counted eng step with
            | exception exn ->
                viol "step %d raised %s (expected a result)" i (Printexc.to_string exn)
            | r, steps, wrong -> (
                Option.iter (viol "step %d %s" i) wrong;
                acked := List.rev_append steps !acked;
                match (r, step) with
                | Ok (), _ -> ()
                | Error e, (Insert _ | Delete _) ->
                    incr surfaced;
                    if !update_error = None then update_error := Some e
                | Error _, (Checkpoint | Vacuum _) -> incr surfaced))
        script.steps;
      let o = acked_oracle () and n = List.length !acked in
      let serving what =
        List.iter (viol "%s") (guard what (fun () -> panel_errors o n (see o eng)))
      in
      serving "live queries";
      (match Durable.health eng with
      | Read_only -> (
          read_only := true;
          let rec free i =
            if i >= max_key then None
            else if Rta.is_alive rta ~key:i then free (i + 1)
            else Some i
          in
          (match
             match free 0 with
             | Some key -> Durable.insert eng ~key ~value:1 ~at:(Rta.now rta)
             | None -> Durable.delete eng ~key:0 ~at:(Rta.now rta)
           with
          | Error { E.errno = E.Read_only_store; _ } -> ()
          | Error e ->
              viol "read-only probe rejected with %s, wanted Read_only_store" (E.to_string e)
          | Ok () -> viol "read-only engine accepted an update"
          | exception exn -> viol "read-only probe raised %s" (Printexc.to_string exn));
          serving "read-only queries")
      | Healthy | Degraded -> (
          match (cls, !update_error) with
          | I.Enospc, Some e ->
              viol "update surfaced %s but the engine is %a, not read-only" (E.to_string e)
                Durable.pp_health (Durable.health eng)
          | _ -> ()));
      try Durable.close eng with exn -> viol "close raised %s" (Printexc.to_string exn));
  (* Heal: bypass the fault, as after an operator freed space or the
     device recovered; recovery must find exactly the acknowledged
     records. *)
  let n = List.length !acked in
  check_recovered (acked_oracle ()) ~floor:n ~ceiling:n (fun () ->
      Durable.open_ ~sync_policy ~checkpoint_every ~vfs:base ~max_key ~path:prefix ())
  |> List.iter (viol "after healing: %s");
  let retries = Storage.Io_stats.retries stats in
  if I.triggered handle && !surfaced = 0 && retries = 0 then
    viol "fault fired but neither surfaced as a typed error nor was retried";
  {
    syscalls = I.syscalls handle;
    fired = I.triggered handle;
    surfaced = !surfaced > 0;
    retried = retries > 0;
    read_only = !read_only;
    run_violations = List.rev !violations;
  }

let errno ?(classes = I.all_classes) ?limit ?(sync_policy = Wal.Every_n 4)
    ?(checkpoint_every = 0) script =
  let run = errno_run script ~sync_policy ~checkpoint_every in
  (* The fault-free run measures the sweep's domain and checks the
     driver itself. *)
  let clean = run ~cls:I.Eio ~k:max_int in
  let n = clean.syscalls in
  let ks =
    match limit with
    | Some l when l > 0 && l < n ->
        (* Evenly spaced over [1, n], so a capped sweep still reaches the
           open, the updates, the checkpoint and the close. *)
        List.init l (fun i -> 1 + (i * (n - 1) / max 1 (l - 1)))
    | _ -> List.init n (fun i -> i + 1)
  in
  let runs =
    List.concat_map
      (fun cls ->
        List.map
          (fun k -> (Format.asprintf "%a @@ syscall %d" I.pp_class cls k, run ~cls ~k))
          ks)
      classes
  in
  let total f = List.length (List.filter (fun (_, r) -> f r) runs) in
  {
    counts =
      [
        ("syscalls", n);
        ("fault points", List.length runs);
        ("fired", total (fun r -> r.fired));
        ("surfaced", total (fun r -> r.surfaced));
        ("healed", total (fun r -> r.retried));
        ("read-only", total (fun r -> r.read_only));
      ];
    violations =
      List.concat_map
        (fun (at, r) -> List.map (fun reason -> { at; reason }) r.run_violations)
        (("fault-free run", clean) :: runs);
  }
