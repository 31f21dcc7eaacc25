module E = Storage.Storage_error

type recovery_report = {
  replayed : int;  (* WAL records replayed (applied or seq-skipped) *)
  dropped_bytes : int;  (* torn/corrupt tail discarded by this recovery *)
  checkpoint_gen : int option;  (* committed generation loaded, if any *)
}

let pp_recovery_report ppf r =
  Format.fprintf ppf "checkpoint=%s replayed=%d dropped_bytes=%d"
    (match r.checkpoint_gen with None -> "none" | Some g -> "gen " ^ string_of_int g)
    r.replayed r.dropped_bytes

type health = Healthy | Degraded | Read_only

let pp_health ppf = function
  | Healthy -> Format.pp_print_string ppf "healthy"
  | Degraded -> Format.pp_print_string ppf "degraded"
  | Read_only -> Format.pp_print_string ppf "read-only"

type pressure = Normal | Soft | Hard

let pp_pressure ppf = function
  | Normal -> Format.pp_print_string ppf "normal"
  | Soft -> Format.pp_print_string ppf "soft"
  | Hard -> Format.pp_print_string ppf "hard"

type retention = Keep_all | Keep_last of int

type t = {
  rta : Rta.t;
  wal : Wal.t;
  vfs : Storage.Vfs.t;
  stats : Storage.Io_stats.t;
  tel : Telemetry.Tracer.t;
  path : string;
  store : Storage.Store_kind.t;
  checkpoint_every : int;
  watermarks : (int * int) option; (* (soft, hard) disk-usage bytes *)
  disk_used : unit -> int;
  retention : retention;
  mutable ckpt_gen : int; (* generation named by the committed pointer *)
  mutable ckpt_attempt : int; (* highest generation any attempt ever used *)
  mutable since_ckpt : int;
  mutable n_ckpts : int;
  mutable health : health; (* published: what callers and hooks observe *)
  mutable io_health : health; (* the sticky I/O machine, pressure excluded *)
  mutable pressure : pressure;
  mutable last_error : E.t option;
  mutable ckpt_failed : bool; (* the most recent checkpoint attempt failed *)
  mutable retries_seen : int; (* Io_stats.retries at the last health update *)
  mutable health_hooks : (health -> health -> unit) list; (* newest first *)
  mutable in_vacuum : bool; (* guards auto-vacuum against re-entrance *)
  mutable n_vacuums : int;
  mutable phase_cell : Telemetry.Phases.cell option;
      (* where the in-flight update charges its wal-append/apply time;
         set around each op by the group-commit layer, [None] otherwise *)
  report : recovery_report;
}

(* --- WAL record payloads ------------------------------------------------------ *)

(* seq i64 | op u8 | payload.  [seq] is the warehouse's n_updates after
   applying the record, so recovery can tell which records a checkpoint
   already covers.  Payloads:
   - insert:       at i64 | key i64 | value i64
   - delete:       at i64 | key i64
   - vacuum_begin: horizon i64
   - vacuum_chunk: horizon i64 | n i32 | n x (side u8 | free u8 | pid i64)
   Vacuum records carry the {e explicit} page actions rather than "rescan
   at horizon h": replay is then deterministic whatever order the
   original scan visited the stores in, and a chunk interrupted by a
   crash re-applies exactly the same frees and prunes (each tolerant of
   already-done work). *)

let op_insert = 1
let op_delete = 2
let op_vacuum_begin = 3
let op_vacuum_chunk = 4
let record_max_bytes = 8 + 1 + 8 + 8 + 8

let encode_insert ~seq ~key ~value ~at =
  let w = Storage.Codec.Writer.create record_max_bytes in
  Storage.Codec.Writer.i64 w seq;
  Storage.Codec.Writer.u8 w op_insert;
  Storage.Codec.Writer.i64 w at;
  Storage.Codec.Writer.i64 w key;
  Storage.Codec.Writer.i64 w value;
  (Storage.Codec.Writer.contents w, Storage.Codec.Writer.pos w)

let encode_delete ~seq ~key ~at =
  let w = Storage.Codec.Writer.create record_max_bytes in
  Storage.Codec.Writer.i64 w seq;
  Storage.Codec.Writer.u8 w op_delete;
  Storage.Codec.Writer.i64 w at;
  Storage.Codec.Writer.i64 w key;
  (Storage.Codec.Writer.contents w, Storage.Codec.Writer.pos w)

let encode_vacuum_begin ~seq ~horizon =
  let w = Storage.Codec.Writer.create (8 + 1 + 8) in
  Storage.Codec.Writer.i64 w seq;
  Storage.Codec.Writer.u8 w op_vacuum_begin;
  Storage.Codec.Writer.i64 w horizon;
  (Storage.Codec.Writer.contents w, Storage.Codec.Writer.pos w)

let side_u8 = function Rta.Lkst -> 0 | Rta.Lklt -> 1
let side_of_u8 = function 0 -> Rta.Lkst | 1 -> Rta.Lklt | x -> failwith (Printf.sprintf "Durable: unknown vacuum side %d" x)

let encode_vacuum_chunk ~seq ~horizon actions =
  let n = List.length actions in
  let w = Storage.Codec.Writer.create (8 + 1 + 8 + 4 + (10 * n)) in
  Storage.Codec.Writer.i64 w seq;
  Storage.Codec.Writer.u8 w op_vacuum_chunk;
  Storage.Codec.Writer.i64 w horizon;
  Storage.Codec.Writer.i32 w n;
  List.iter
    (fun a ->
      Storage.Codec.Writer.u8 w (side_u8 a.Rta.va_side);
      Storage.Codec.Writer.u8 w (if a.Rta.va_free then 1 else 0);
      Storage.Codec.Writer.i64 w a.Rta.va_pid)
    actions;
  (Storage.Codec.Writer.contents w, Storage.Codec.Writer.pos w)

let decode_vacuum_actions rd =
  let n = Storage.Codec.Reader.i32 rd in
  List.init n (fun _ ->
      let side = side_of_u8 (Storage.Codec.Reader.u8 rd) in
      let free = Storage.Codec.Reader.u8 rd <> 0 in
      let pid = Storage.Codec.Reader.i64 rd in
      { Rta.va_side = side; va_free = free; va_pid = pid })

(* --- Checkpoint files --------------------------------------------------------- *)

(* A checkpoint is three snapshot files under a generation-stamped prefix
   ([p.ckpt-<gen>.lkst/.lklt/.meta]) plus one small CRC-framed pointer
   file [p.ckpt] naming the committed generation.  The snapshot files and
   the directory are fsynced {e before} the pointer is atomically renamed
   into place, so the pointer never names files that could be lost or
   half-written; the rename is the single commit point — there is no
   window in which load could see snapshot files from two different
   checkpoints.  Only after the pointer (and the directory entry for it)
   is durable may the WAL be truncated. *)

let ptr_path path = path ^ ".ckpt"
let ptr_magic = "RTA-CKPT-PTR-1"
let gen_prefix path gen = Printf.sprintf "%s.ckpt-%d" path gen
let snapshot_exts = List.map fst Rta.snapshot_files
let wal_path path = path ^ ".wal"

(* Prefix under which an [Mmap] engine keeps its overlays
   ([<p>.store.lkst.pages] etc.; a [Memory] engine's are RAM and only
   named by it): the pages sealed since the committed checkpoint, which
   holds the rest.  The overlays are a cache, never a recovery source —
   snapshot + WAL are; every open starts them empty, and every checkpoint
   empties them, which is also what makes switching [store] kinds
   between runs safe. *)
let store_prefix path = path ^ ".store"

let fsync_dir_of vfs p = vfs.Storage.Vfs.v_sync_dir (Filename.dirname p)

let write_pointer vfs path gen =
  let w = Storage.Codec.Writer.create (String.length ptr_magic + 8 + 4) in
  String.iter (fun ch -> Storage.Codec.Writer.u8 w (Char.code ch)) ptr_magic;
  Storage.Codec.Writer.i64 w gen;
  let len = Storage.Codec.Writer.pos w in
  let buf = Storage.Codec.Writer.contents w in
  (* Unsigned 32-bit CRC: splice raw rather than through Writer.i32. *)
  Bytes.set_int32_le buf len (Int32.of_int (Storage.Codec.crc32 buf ~pos:0 ~len));
  Storage.Vfs.write_file_atomic vfs ~path:(ptr_path path) buf ~len:(len + 4);
  fsync_dir_of vfs path

(* [None] when no checkpoint was ever committed; a present-but-corrupt
   pointer fails loudly rather than silently recovering from an empty
   state (the WAL alone no longer holds the full history). *)
let read_pointer vfs path =
  let file = ptr_path path in
  if not (vfs.Storage.Vfs.v_exists file) then None
  else begin
    let buf = Storage.Vfs.read_file vfs file in
    let size = Bytes.length buf in
    let expect = String.length ptr_magic + 8 + 4 in
    if size <> expect then failwith "Durable: corrupt checkpoint pointer (bad size)";
    let crc = Int32.to_int (Bytes.get_int32_le buf (size - 4)) land 0xFFFFFFFF in
    if Storage.Codec.crc32 buf ~pos:0 ~len:(size - 4) <> crc then
      failwith "Durable: corrupt checkpoint pointer (checksum mismatch)";
    let rd = Storage.Codec.Reader.create buf in
    let magic =
      String.init (String.length ptr_magic) (fun _ -> Char.chr (Storage.Codec.Reader.u8 rd))
    in
    if magic <> ptr_magic then failwith "Durable: corrupt checkpoint pointer (bad magic)";
    Some (Storage.Codec.Reader.i64 rd)
  end

(* Snapshot files of any generation other than the committed one are
   leftovers of a checkpoint that crashed (or errored) before, or was
   superseded after, its pointer swap. *)
let remove_stale_generations vfs path ~keep =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ ".ckpt-" in
  Array.iter
    (fun name ->
      if String.length name > String.length base
         && String.sub name 0 (String.length base) = base then begin
        let rest = String.sub name (String.length base) (String.length name - String.length base) in
        match String.index_opt rest '.' with
        | Some dot ->
            (match int_of_string_opt (String.sub rest 0 dot) with
            | Some gen when gen <> keep ->
                (try vfs.Storage.Vfs.v_remove (Filename.concat dir name)
                 with Sys_error _ | E.Io _ -> ())
            | _ -> ())
        | None -> ()
      end)
    (try vfs.Storage.Vfs.v_readdir dir with Sys_error _ -> [||]);
  let tmp = ptr_path path ^ ".tmp" in
  if vfs.Storage.Vfs.v_exists tmp then
    try vfs.Storage.Vfs.v_remove tmp with Sys_error _ | E.Io _ -> ()

(* --- Recovery ----------------------------------------------------------------- *)

let apply_record rta rd =
  let seq = Storage.Codec.Reader.i64 rd in
  let op = Storage.Codec.Reader.u8 rd in
  let applied = Rta.n_updates rta in
  if seq <= applied then () (* already inside the checkpoint *)
  else if seq > applied + 1 then
    failwith
      (Printf.sprintf "Durable: WAL sequence gap (record %d over state %d)" seq applied)
  else
    match op with
    | x when x = op_insert ->
        let at = Storage.Codec.Reader.i64 rd in
        let key = Storage.Codec.Reader.i64 rd in
        let value = Storage.Codec.Reader.i64 rd in
        Rta.insert rta ~key ~value ~at
    | x when x = op_delete ->
        let at = Storage.Codec.Reader.i64 rd in
        let key = Storage.Codec.Reader.i64 rd in
        Rta.delete rta ~key ~at
    | x when x = op_vacuum_begin ->
        let horizon = Storage.Codec.Reader.i64 rd in
        Rta.vacuum_begin rta ~horizon
    | x when x = op_vacuum_chunk ->
        (* A checkpoint taken mid-vacuum holds every page its tree
           counted, the dead ones yet to be freed among them, and a
           replayed chunk frees them.  The appliers tolerate pages
           already gone or already clean: a snapshot of this format that
           holds only the pages root* reaches, as earlier writers wrote,
           lacks the dead ones. *)
        let _horizon = Storage.Codec.Reader.i64 rd in
        ignore (Rta.vacuum_apply rta (decode_vacuum_actions rd))
    | x -> failwith (Printf.sprintf "Durable: unknown WAL opcode %d" x)

(* [f ()], but an exception out of it first runs [release] (best effort)
   so a failed open gives back the log and the files it had opened. *)
let release_on_error release f =
  match f () with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try release () with _ -> ());
      Printexc.raise_with_backtrace e bt

let open_ ?config ?pool_capacity ?stats ?(sync_policy = Wal.Every_n 32)
    ?(checkpoint_every = 0) ?wal_stats ?(wal_wrap = fun f -> f)
    ?(retry = Some Storage.Retry.default) ?(telemetry = Telemetry.Tracer.noop)
    ?(vfs = Storage.Vfs.os) ?(store = Storage.Store_kind.Memory)
    ?watermarks ?disk_used ?(retention = Keep_all)
    ~max_key ~path () =
  (match watermarks with
  | Some (soft, hard) when soft <= 0 || hard < soft ->
      invalid_arg "Durable.open_: watermarks must satisfy 0 < soft <= hard"
  | _ -> ());
  (match retention with
  | Keep_last span when span < 0 ->
      invalid_arg "Durable.open_: negative retention span"
  | _ -> ());
  let stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
  (* Everything the engine does from here on — recovery reads, log
     appends, checkpoint writes — goes through the retry layer, so
     transient failures ([EINTR], [EIO], short transfers) are absorbed
     with backoff whatever vfs the caller handed in.  The tracer wraps
     outermost: a [vfs.*] span covers every retry of the syscall. *)
  let vfs =
    match retry with
    | None -> vfs
    | Some policy -> Storage.Vfs.with_retry ~stats ~policy vfs
  in
  let vfs = Storage.Vfs.with_telemetry telemetry vfs in
  let retries_at_open = Storage.Io_stats.retries stats in
  let pointer, ckpt_gen, rta, wal, n_replayed, dropped_bytes =
    Telemetry.Tracer.with_span telemetry "durable.recover"
      ~attrs:(fun () -> [ ("path", Telemetry.Tracer.Str path) ])
    @@ fun () ->
    (* The log is opened first: under [Vfs.os] that takes its lock, so a
       second process opening a live warehouse is rejected before it reads
       the pointer, clears a generation or empties the overlays the live
       engine runs over. *)
    let wal =
      Wal.open_log ~policy:sync_policy ?stats:wal_stats ~telemetry
        ~path:(wal_path path)
        (wal_wrap (vfs.Storage.Vfs.v_open `Log (wal_path path)))
    in
    release_on_error (fun () -> Wal.close wal) @@ fun () ->
    let pointer = read_pointer vfs path in
    (* The trees read their pages from the committed checkpoint itself —
       mapped, under [Mmap] where mapping works, or its frames copied into
       RAM as they are verified — and replay and every later page touch
       run over it and the overlays.  Every checkpoint chunk is verified
       against its CRC on the way, and a mismatch fails the open before
       the log is replayed or truncated; no page is decoded and none is
       written. *)
    let backing = Storage.Store_kind.backing store and overlays = store_prefix path in
    let ckpt_gen, rta =
      match pointer with
      | Some gen ->
          ( gen,
            Rta.load ?pool_capacity ~stats ~telemetry ~vfs ~backing ~path:overlays
              ~snapshot:(gen_prefix path gen) () )
      | None ->
          ( 0,
            Rta.create ?config ?pool_capacity ~policy:Storage.Evict.Second_chance ~stats
              ~telemetry ~backing ~path:overlays ~max_key () )
    in
    release_on_error (fun () -> Rta.close rta) @@ fun () ->
    if Rta.max_key rta <> max_key then
      failwith
        (Printf.sprintf "Durable.open_: checkpoint has max_key %d, asked for %d"
           (Rta.max_key rta) max_key);
    (* Snapshot files of a checkpoint that crashed before its commit point
       are dead weight; clear them so they cannot be confused with state. *)
    remove_stale_generations vfs path ~keep:ckpt_gen;
    let st = Wal.stats wal in
    let dropped_before = Wal.Stats.dropped_bytes st in
    let n_replayed = Wal.replay wal (apply_record rta) in
    (pointer, ckpt_gen, rta, wal, n_replayed,
     Wal.Stats.dropped_bytes st - dropped_before)
  in
  let report = { replayed = n_replayed; dropped_bytes; checkpoint_gen = pointer } in
  (* The default disk-usage probe is the WAL's size: between checkpoints
     it is the engine's one unboundedly growing file, and it is the one
     thing vacuum + checkpoint can actually shrink.  Deployments with a
     fuller picture (statvfs, quota APIs) pass their own thunk. *)
  let disk_used =
    match disk_used with Some f -> f | None -> fun () -> Wal.size wal
  in
  (* An engine can open already past a watermark (the disk filled while
     it was down); no hooks are registered yet, so the initial published
     health is computed directly. *)
  let pressure =
    match watermarks with
    | None -> Normal
    | Some (soft, hard) ->
        let used = disk_used () in
        if used >= hard then Hard else if used >= soft then Soft else Normal
  in
  let health =
    match pressure with Hard -> Read_only | Soft -> Degraded | Normal -> Healthy
  in
  (* Replayed records are exactly the updates the last checkpoint missed,
     so they count toward the next automatic checkpoint. *)
  { rta; wal; vfs; stats; tel = telemetry; path; store; checkpoint_every;
    watermarks; disk_used; retention; ckpt_gen;
    ckpt_attempt = ckpt_gen; since_ckpt = n_replayed; n_ckpts = 0; health;
    io_health = Healthy; pressure;
    last_error = None; ckpt_failed = false; retries_seen = retries_at_open;
    health_hooks = []; in_vacuum = false; n_vacuums = 0; phase_cell = None; report }

(* --- Health ------------------------------------------------------------------- *)

(* Two machines feed one published state.  [io_health] is the sticky
   I/O machine of the original design: Read_only is entered when an
   update's log append surfaces an error (the retry budget is already
   spent by then, so the failure is persistent for practical purposes —
   the canonical case being a full disk) and never left for the life of
   the handle; Degraded means retries were needed recently or the last
   checkpoint attempt failed.  [pressure] is the disk-space watermark
   machine: Soft above the soft watermark (keep serving, vacuum
   aggressively), Hard above the hard one (stop accepting updates before
   the disk actually fills).  The published [health] — what {!health}
   returns and hooks observe — is their join:

     io Read_only or pressure Hard  ->  Read_only
     io Degraded  or pressure Soft  ->  Degraded
     otherwise                      ->  Healthy

   Unlike io Read_only, pressure is {e not} sticky: vacuum + checkpoint
   shrink the disk footprint, the next refresh drops the watermark, and
   the published state recovers. *)

let health_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Read_only -> "read-only"

let pressure_name = function Normal -> "normal" | Soft -> "soft" | Hard -> "hard"

(* Every actual transition (and only transitions, not the per-op
   re-assertions of the current state) is an event on the trace. *)
let set_health t h =
  if t.health <> h then begin
    let prev = t.health in
    t.health <- h;
    Telemetry.Tracer.event t.tel "durable.health"
      ~attrs:
        [ ("from", Telemetry.Tracer.Str (health_name prev));
          ("to", Telemetry.Tracer.Str (health_name h)) ];
    (* Hooks run after the state is committed, so a callback reading
       [health t] sees the new state.  A raising hook would poison the
       update path it fired from — swallow, the hook is best-effort. *)
    List.iter (fun f -> try f prev h with _ -> ()) t.health_hooks
  end

let publish t =
  set_health t
    (match (t.io_health, t.pressure) with
    | Read_only, _ | _, Hard -> Read_only
    | Degraded, _ | _, Soft -> Degraded
    | Healthy, Normal -> Healthy)

let on_health_change t f = t.health_hooks <- f :: t.health_hooks

let enter_read_only t e =
  t.last_error <- Some e;
  if t.io_health <> Read_only then begin
    t.io_health <- Read_only;
    Storage.Io_stats.record_read_only_transition t.stats
  end;
  publish t

let note_op_complete t =
  if t.io_health <> Read_only then begin
    let r = Storage.Io_stats.retries t.stats in
    if r > t.retries_seen then begin
      t.retries_seen <- r;
      t.io_health <- Degraded
    end
    else if t.ckpt_failed then t.io_health <- Degraded
    else begin
      t.io_health <- Healthy;
      if t.pressure = Normal then t.last_error <- None
    end
  end;
  publish t

(* Re-read the disk-usage probe against the watermarks.  Called after
   every mutation, checkpoint and vacuum step — the points where usage
   changes — and exposed for callers with external probes. *)
let refresh_pressure t =
  (match t.watermarks with
  | None -> ()
  | Some (soft, hard) ->
      let used = t.disk_used () in
      let p = if used >= hard then Hard else if used >= soft then Soft else Normal in
      if p <> t.pressure then begin
        let prev = t.pressure in
        t.pressure <- p;
        Telemetry.Tracer.event t.tel "durable.pressure"
          ~attrs:
            [ ("from", Telemetry.Tracer.Str (pressure_name prev));
              ("to", Telemetry.Tracer.Str (pressure_name p));
              ("used", Telemetry.Tracer.Int used) ];
        if p = Hard then
          t.last_error <-
            Some
              (E.v ~op:E.Append ~path:(wal_path t.path)
                 ~detail:(Printf.sprintf "disk hard watermark (%d >= %d bytes)" used hard)
                 E.Read_only_store);
        publish t
      end);
  t.pressure

(* --- Checkpointing ------------------------------------------------------------ *)

let checkpoint t =
  (* Gates on [io_health], not the published state: a checkpoint under
     Hard watermark pressure is exactly the maintenance that frees disk
     (the WAL truncates once the snapshot commits), so pressure must not
     be able to lock the engine out of its own escape hatch. *)
  match t.io_health with
  | Read_only ->
      Error
        (E.v ~op:E.Pwrite ~path:t.path ~detail:"checkpoint refused" E.Read_only_store)
  | Healthy | Degraded -> (
      (* Never reuse the generation of a failed attempt: its files may
         exist in any half-written state, and if an earlier attempt got as
         far as the pointer rename, rewriting the files that committed
         pointer names would race the atomicity argument. *)
      let gen = 1 + max t.ckpt_gen t.ckpt_attempt in
      t.ckpt_attempt <- gen;
      Telemetry.Tracer.with_span t.tel "durable.checkpoint"
        ~attrs:(fun () -> [ ("gen", Telemetry.Tracer.Int gen) ])
      @@ fun () ->
      let prefix = gen_prefix t.path gen in
      match
        Storage.Page_store.protect (fun () ->
            (* A page-file tree hands each page over as its stored frame,
               written back from the pool first, and notes where in the
               new file each frame goes. *)
            let rebase = Rta.save_staged ~vfs:t.vfs t.rta ~path:prefix in
            (* Force the snapshot files (and the new directory entries) to
               the platter before the pointer can name them, and the
               pointer before the WAL — the log records may only be
               discarded once the state they rebuild is durable without
               them. *)
            List.iter (fun ext -> Storage.Vfs.sync_path t.vfs (prefix ^ ext)) snapshot_exts;
            fsync_dir_of t.vfs t.path;
            write_pointer t.vfs t.path gen;
            rebase)
      with
      | Error e ->
          (* The pointer still names the previous generation, which is
             untouched, and so are the trees' bases and overlays; this
             attempt's files are stale leftovers swept on the next open.
             The WAL still holds every update, so the engine keeps
             accepting writes — degraded, not read-only.  That holds for
             a page failing its checksum too: one in an overlay is
             rebuilt by the next open from snapshot + WAL, one in the
             committed checkpoint is what scrub repairs. *)
          t.ckpt_failed <- true;
          t.last_error <- Some e;
          if t.io_health <> Read_only then t.io_health <- Degraded;
          publish t;
          Error e
      | Ok rebase ->
          let old = t.ckpt_gen in
          t.ckpt_gen <- gen;
          t.since_ckpt <- 0;
          t.n_ckpts <- t.n_ckpts + 1;
          (* The trees move onto the new generation before the old one is
             removed, so no tree maps a deleted file.  One that cannot
             move keeps its old base and overlay, which still hold every
             page: the checkpoint counts, and the engine stays degraded
             until one moves it. *)
          t.ckpt_failed <-
            (match rebase () with
            | () -> false
            | exception Storage.Arena.Unavailable msg ->
                t.last_error <-
                  Some
                    (E.v ~op:E.Open ~path:prefix
                       ~detail:("the trees stay on the previous checkpoint: " ^ msg)
                       (E.Errno "map_file"));
                if t.io_health <> Read_only then t.io_health <- Degraded;
                publish t;
                true);
          (* Pointer durable: every log record is now redundant.  A failed
             truncation costs space, not correctness — replay seq-skips
             covered records — so the checkpoint still counts. *)
          (match Wal.truncate t.wal with
          | Ok () -> ()
          | Error e ->
              t.last_error <- Some e;
              if t.io_health <> Read_only then begin
                t.io_health <- Degraded;
                publish t
              end);
          ignore (refresh_pressure t);
          if old > 0 then
            List.iter
              (fun ext ->
                try t.vfs.Storage.Vfs.v_remove (gen_prefix t.path old ^ ext)
                with Sys_error _ | E.Io _ -> ())
              snapshot_exts;
          note_op_complete t;
          Ok ())

let maybe_auto_checkpoint t =
  if t.checkpoint_every > 0 && t.since_ckpt >= t.checkpoint_every then
    (* The update that tripped the threshold is already logged and
       applied; a failed background checkpoint leaves it fully durable
       via the WAL, so the failure degrades health instead of failing
       the update.  [checkpoint] records error state itself. *)
    match checkpoint t with Ok () -> () | Error _ -> ()

(* --- Updates ------------------------------------------------------------------ *)

(* Validation mirrors Rta's own checks and runs before anything is logged,
   so applying a logged record cannot fail (neither here nor on replay).
   Precondition violations are caller bugs and still raise
   [Invalid_argument]; the [result] channel is reserved for I/O. *)

(* Group commit's second half: a shard writer opens the engine with
   [Wal.Never], appends a whole batch of updates without per-record
   fsyncs, then forces one sync here before acknowledging any of them.
   A failed fsync is treated exactly like a failed append — the device
   refused durability, and quietly acknowledging later writes on top of a
   maybe-lost tail would be fraud — so the engine goes read-only.  Gates
   on [io_health]: records already appended under a watermark that has
   since turned Hard must still be syncable — they were accepted. *)
let sync_wal t =
  match t.io_health with
  | Read_only ->
      Error (E.v ~op:E.Fsync ~path:(wal_path t.path) ~detail:"sync refused" E.Read_only_store)
  | Healthy | Degraded -> (
      if Wal.unsynced t.wal = 0 then Ok ()
      else
        match Wal.sync t.wal with
        | Ok () ->
            note_op_complete t;
            Ok ()
        | Error e ->
            enter_read_only t e;
            Error e)

(* Normal updates gate on the {e published} health — so a Hard watermark
   rejects them — while maintenance records (vacuum) gate only on the
   sticky [io_health], for the same reason {!checkpoint} does: retention
   work is how the engine gets back {e under} the watermark. *)
let reject_if_read_only ?(maintenance = false) t =
  let effective = if maintenance then t.io_health else t.health in
  match effective with
  | Read_only ->
      let detail =
        if t.io_health = Read_only then "update rejected"
        else "update rejected (disk hard watermark)"
      in
      Error (E.v ~op:E.Append ~path:(wal_path t.path) ~detail E.Read_only_store)
  | Healthy | Degraded -> Ok ()

let rec log_then_apply ?maintenance t ~append ~apply =
  match reject_if_read_only ?maintenance t with
  | Error _ as e -> e
  | Ok () -> (
      (* Phase accounting piggybacks here because this is the one place
         that sees the append and the tree apply as separate steps. *)
      let append, apply =
        match t.phase_cell with
        | None -> (append, apply)
        | Some c ->
            let timed phase f () =
              let t0 = Telemetry.Phases.now_ns () in
              let r = f () in
              Telemetry.Phases.add c phase ~ns:(Int64.sub (Telemetry.Phases.now_ns ()) t0);
              r
            in
            (timed Telemetry.Phases.Wal_append append, timed Telemetry.Phases.Apply apply)
      in
      match append () with
      | Error e ->
          (* Nothing was logged (Wal.append rolls back) and nothing was
             applied: the warehouse is exactly as before the call, and
             every prior acknowledged update is still recoverable. *)
          enter_read_only t e;
          Error e
      | Ok () ->
          apply ();
          t.since_ckpt <- t.since_ckpt + 1;
          maybe_auto_checkpoint t;
          ignore (refresh_pressure t);
          maybe_auto_vacuum t;
          note_op_complete t;
          Ok ())

(* Watermark pressure with a retention policy configured: vacuum down to
   the policy's horizon, then checkpoint so the WAL (the growing file)
   actually shrinks, then re-probe.  Guarded by [in_vacuum] because the
   vacuum's own WAL records come back through [log_then_apply]. *)
and maybe_auto_vacuum t =
  if (not t.in_vacuum) && t.pressure <> Normal then
    match t.retention with
    | Keep_all -> ()
    | Keep_last span ->
        let target = Rta.now t.rta - span in
        if target > Rta.horizon t.rta && target >= 0 then begin
          (match vacuum t ~horizon:target with Ok _ | Error _ -> ());
          (match checkpoint t with Ok () | Error _ -> ());
          ignore (refresh_pressure t)
        end

and vacuum_begin t ~horizon =
  (* Validation mirrors Rta.vacuum_begin and runs before anything is
     logged, so applying (and replaying) the record cannot fail. *)
  if horizon < 0 then invalid_arg "Durable.vacuum_begin: negative horizon";
  if horizon < Rta.horizon t.rta then
    invalid_arg
      (Printf.sprintf "Durable.vacuum_begin: horizon moves backwards (%d < %d)" horizon
         (Rta.horizon t.rta));
  if horizon > Rta.now t.rta then
    invalid_arg
      (Printf.sprintf "Durable.vacuum_begin: horizon %d beyond current time %d" horizon
         (Rta.now t.rta));
  let buf, len = encode_vacuum_begin ~seq:(Rta.n_updates t.rta + 1) ~horizon in
  log_then_apply ~maintenance:true t
    ~append:(fun () -> Wal.append t.wal ~len buf)
    ~apply:(fun () -> Rta.vacuum_begin t.rta ~horizon)

and vacuum_chunk t actions =
  let buf, len =
    encode_vacuum_chunk ~seq:(Rta.n_updates t.rta + 1) ~horizon:(Rta.horizon t.rta)
      actions
  in
  let progress = ref Rta.vacuum_progress_zero in
  match
    log_then_apply ~maintenance:true t
      ~append:(fun () -> Wal.append t.wal ~len buf)
      ~apply:(fun () -> progress := Rta.vacuum_apply t.rta actions)
  with
  | Ok () -> Ok !progress
  | Error e -> Error e

and vacuum ?(max_pages_per_step = 128) t ~horizon =
  if max_pages_per_step < 1 || max_pages_per_step > 65536 then
    invalid_arg "Durable.vacuum: max_pages_per_step out of range";
  Telemetry.Tracer.with_span t.tel "durable.vacuum"
    ~attrs:(fun () -> [ ("horizon", Telemetry.Tracer.Int horizon) ])
  @@ fun () ->
  let was_in_vacuum = t.in_vacuum in
  t.in_vacuum <- true;
  Fun.protect ~finally:(fun () -> t.in_vacuum <- was_in_vacuum) @@ fun () ->
  match vacuum_begin t ~horizon with
  | Error _ as e -> e
  | Ok () ->
      let chunks = Rta.vacuum_plan ~max_pages:max_pages_per_step t.rta in
      let rec go acc steps = function
        | [] -> (
            (* The vacuum's WAL records must be durable before the report
               claims the retention work happened. *)
            match sync_wal t with
            | Error _ as e -> e
            | Ok () ->
                t.n_vacuums <- t.n_vacuums + 1;
                ignore (refresh_pressure t);
                Ok { Rta.v_horizon = horizon; v_steps = steps; v_progress = acc })
        | c :: rest -> (
            match vacuum_chunk t c with
            | Error _ as e -> e
            | Ok p -> go (Rta.vacuum_progress_add acc p) (steps + 1) rest)
      in
      go Rta.vacuum_progress_zero 0 chunks

let insert t ~key ~value ~at =
  if key < 0 || key >= Rta.max_key t.rta then
    invalid_arg "Durable.insert: key outside key space";
  if Rta.is_alive t.rta ~key then
    invalid_arg (Printf.sprintf "Durable.insert: key %d is already alive (1TNF)" key);
  if at < Rta.now t.rta then
    invalid_arg "Durable: time went backwards (transaction time is monotone)";
  let buf, len = encode_insert ~seq:(Rta.n_updates t.rta + 1) ~key ~value ~at in
  Telemetry.Tracer.with_span t.tel "durable.insert"
    ~attrs:(fun () -> [ ("key", Telemetry.Tracer.Int key) ])
  @@ fun () ->
  log_then_apply t
    ~append:(fun () -> Wal.append t.wal ~len buf)
    ~apply:(fun () -> Rta.insert t.rta ~key ~value ~at)

let delete t ~key ~at =
  if not (Rta.is_alive t.rta ~key) then
    invalid_arg (Printf.sprintf "Durable.delete: key %d is not alive" key);
  if at < Rta.now t.rta then
    invalid_arg "Durable: time went backwards (transaction time is monotone)";
  let buf, len = encode_delete ~seq:(Rta.n_updates t.rta + 1) ~key ~at in
  Telemetry.Tracer.with_span t.tel "durable.delete"
    ~attrs:(fun () -> [ ("key", Telemetry.Tracer.Int key) ])
  @@ fun () ->
  log_then_apply t
    ~append:(fun () -> Wal.append t.wal ~len buf)
    ~apply:(fun () -> Rta.delete t.rta ~key ~at)

(* --- Accessors ---------------------------------------------------------------- *)

let warehouse t = t.rta
let sum_count t ~klo ~khi ~tlo ~thi = Rta.sum_count t.rta ~klo ~khi ~tlo ~thi
let recovery_report t = t.report
let replayed_on_open t = t.report.replayed
let updates_since_checkpoint t = t.since_ckpt
let checkpoints t = t.n_ckpts
let wal_stats t = Wal.stats t.wal
let wal_unsynced t = Wal.unsynced t.wal
let sync_policy t = Wal.policy t.wal
let health t = t.health
let io_health t = t.io_health
let pressure t = t.pressure
let horizon t = Rta.horizon t.rta
let store_kind t = t.store
let vacuums t = t.n_vacuums
let disk_used t = t.disk_used ()
let retention t = t.retention
let last_error t = t.last_error
let io_stats t = t.stats
let telemetry t = t.tel
let set_phase_cell t c = t.phase_cell <- c

let close t =
  (* Best effort: a failing final fsync must not prevent releasing the
     files — whatever the log already holds is what recovery will see.
     The overlays are a cache and are dropped as they are. *)
  (match Wal.sync t.wal with Ok () -> () | Error _ -> ());
  Wal.close t.wal;
  try Rta.close t.rta with E.Io _ -> ()

(* --- Scrub ---------------------------------------------------------------------- *)

(* Scrub checks what recovery reads: the three files of the committed
   checkpoint, chunk by chunk, and the frames of the log.  It takes no
   lock and never writes the log. *)

type chunk = { file : string; index : int }

type scrub_report = {
  chunks_checked : int;
  corrupt : chunk list;
  repaired : chunk list;
  irreparable : chunk list;
  wal_frames : int;
  wal_corrupt : int list;
}

let scrub_clean r = r.corrupt = [] && r.wal_corrupt = []

let pp_chunk ppf c = Format.fprintf ppf "%s:%d" (Filename.basename c.file) c.index

let pp_scrub_report ppf r =
  let pp_list pp ppf l =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp ppf l
  in
  if scrub_clean r then
    Format.fprintf ppf "clean (%d chunks, %d log frames checked)" r.chunks_checked
      r.wal_frames
  else begin
    Format.fprintf ppf "@[<v>%d chunks checked, %d corrupt" r.chunks_checked
      (List.length r.corrupt);
    List.iter
      (fun (name, l) ->
        if l <> [] then Format.fprintf ppf "@,%s: @[%a@]" name (pp_list pp_chunk) l)
      [ ("corrupt", r.corrupt); ("repaired", r.repaired); ("irreparable", r.irreparable) ];
    Format.fprintf ppf "@,log: %d frames verified" r.wal_frames;
    if r.wal_corrupt <> [] then
      Format.fprintf ppf ", corrupt at offsets @[%a@]" (pp_list Format.pp_print_int)
        r.wal_corrupt;
    Format.fprintf ppf "@]"
  end

let committed_prefix vfs path = Option.map (gen_prefix path) (read_pointer vfs path)

(* A twin is a warehouse built from the same updates and checkpointed at
   the same update count: page allocation is deterministic, so its
   checkpoint files are byte-identical to a clean copy of this one.  The
   update counts come from the two [.meta] chunks, which must both
   verify. *)
let twin_prefix vfs ~prefix twin =
  match
    let twin = committed_prefix vfs twin in
    ( twin,
      Option.map (fun p -> Rta.snapshot_updates ~vfs ~path:p ()) twin,
      Rta.snapshot_updates ~vfs ~path:prefix () )
  with
  | Some twin, Some n, n' when n = n' -> Some twin
  | _ | (exception (Failure _ | Sys_error _ | E.Io _)) -> None

let scrub ?(stats = Storage.Io_stats.create ()) ?(vfs = Storage.Vfs.os) ?repair_from ~path
    () =
  let checked = ref 0 and corrupt = ref [] and repaired = ref [] and irreparable = ref [] in
  let scrub_file ~twin file magic =
    Mvsbt.Chunks.with_file vfs ~path:file ~magic @@ fun rd ->
    let with_twin k =
      match twin with
      | None -> k (fun () -> None)
      | Some t ->
          Mvsbt.Chunks.with_file vfs ~path:t ~magic @@ fun trd ->
          k (fun () -> try Mvsbt.Chunks.next trd with Failure _ -> None)
    in
    with_twin @@ fun twin_next ->
    let out = lazy (vfs.Storage.Vfs.v_open `Reopen file) in
    let repair (f : Mvsbt.Chunks.frame) =
      match twin_next () with
      | Some (t : Mvsbt.Chunks.frame) when t.ok && t.offset = f.offset && t.len = f.len ->
          (Lazy.force out).Storage.Vfs.f_pwrite f.offset t.buf t.pos
            (Mvsbt.Chunks.frame_bytes + t.len);
          Storage.Io_stats.record_repaired stats;
          true
      | _ -> false
    in
    let bad index repaired_ =
      let c = { file; index } in
      Storage.Io_stats.record_crc_failure stats;
      corrupt := c :: !corrupt;
      if repaired_ then repaired := c :: !repaired else irreparable := c :: !irreparable
    in
    (* A damaged length field ends the walk of its file: the chunks after
       it cannot be found. *)
    let rec walk index =
      match Mvsbt.Chunks.next rd with
      | None -> ()
      | exception Failure _ -> bad index false
      | Some f ->
          incr checked;
          Storage.Io_stats.record_scrubbed stats;
          if f.ok then ignore (twin_next ()) else bad index (repair f);
          walk (index + 1)
    in
    Fun.protect
      ~finally:(fun () ->
        if Lazy.is_val out then
          let o = Lazy.force out in
          Fun.protect ~finally:(fun () -> o.Storage.Vfs.f_close ()) o.Storage.Vfs.f_sync)
      (fun () -> walk 0)
  in
  (match committed_prefix vfs path with
  | None ->
      if not (vfs.Storage.Vfs.v_exists (wal_path path)) then
        failwith (Printf.sprintf "Durable.scrub: no warehouse at %s" path)
  | Some prefix ->
      let twin = Option.bind repair_from (twin_prefix vfs ~prefix) in
      List.iter
        (fun (ext, magic) ->
          scrub_file ~twin:(Option.map (fun t -> t ^ ext) twin) (prefix ^ ext) magic)
        Rta.snapshot_files);
  (* The log: every fully-present frame must verify.  A frame whose
     length is sane is stepped over, so every bad one is reported; an
     impossible length ends the walk. *)
  let wal_frames, wal_corrupt =
    let file = wal_path path in
    if not (vfs.Storage.Vfs.v_exists file) then (0, [])
    else begin
      let f = vfs.Storage.Vfs.v_open `Reopen file in
      let rec go tail n bad =
        match Wal.Tail.poll tail with
        | Wal.Tail.Frame _ -> go tail (n + 1) bad
        | Need_more -> (n, List.rev bad)
        | Corrupt _ ->
            let off = Wal.Tail.offset tail in
            let hdr = Bytes.create 4 in
            let len =
              if f.Storage.Vfs.f_pread off hdr 0 4 = 4 then
                Int32.to_int (Bytes.get_int32_le hdr 0)
              else 0
            in
            if len > 0 && len <= Wal.max_record_bytes then
              go (Wal.Tail.create ~from:(off + 8 + len) f) n (off :: bad)
            else (n, List.rev (off :: bad))
      in
      Fun.protect ~finally:(fun () -> f.Storage.Vfs.f_close ()) @@ fun () ->
      go (Wal.Tail.create f) 0 []
    end
  in
  let sort l = List.sort compare l in
  { chunks_checked = !checked; corrupt = sort !corrupt; repaired = sort !repaired;
    irreparable = sort !irreparable; wal_frames; wal_corrupt }

(* Flips land only in the bytes a CRC covers — chunk payloads of the two
   snapshots — so every flip is detectable.  [.meta] is left alone:
   scrub repairs only when both [.meta] chunks verify. *)
let inject_bit_flips ?(vfs = Storage.Vfs.os) ~path ~seed ~flips () =
  let prefix =
    match committed_prefix vfs path with
    | Some p -> p
    | None -> failwith (Printf.sprintf "Durable.inject_bit_flips: %s has no checkpoint" path)
  in
  let chunks =
    List.concat_map
      (fun (ext, magic) ->
        if ext = ".meta" then []
        else
          let file = prefix ^ ext in
          Mvsbt.Chunks.with_file vfs ~path:file ~magic @@ fun rd ->
          let rec go acc =
            match Mvsbt.Chunks.next rd with
            | None -> List.rev acc
            | Some f ->
                go (({ file; index = f.index }, f.offset + Mvsbt.Chunks.frame_bytes, f.len) :: acc)
          in
          go [])
      Rta.snapshot_files
    |> Array.of_list
  in
  let rng = Random.State.make [| seed |] in
  let n = min flips (Array.length chunks) in
  (* Partial Fisher-Yates: the first [n] slots end up a uniform sample. *)
  for i = 0 to n - 1 do
    let j = i + Random.State.int rng (Array.length chunks - i) in
    let tmp = chunks.(i) in
    chunks.(i) <- chunks.(j);
    chunks.(j) <- tmp
  done;
  let hit = Array.to_list (Array.sub chunks 0 n) in
  List.iter
    (fun (c, payload, len) ->
      let f = vfs.Storage.Vfs.v_open `Reopen c.file in
      Fun.protect ~finally:(fun () -> f.Storage.Vfs.f_close ()) @@ fun () ->
      let at = payload + Random.State.int rng len in
      let b = Bytes.create 1 in
      if f.Storage.Vfs.f_pread at b 0 1 <> 1 then failwith "Durable.inject_bit_flips: short read";
      Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor (1 lsl Random.State.int rng 8));
      f.Storage.Vfs.f_pwrite at b 0 1;
      f.Storage.Vfs.f_sync ())
    hit;
  List.sort compare (List.map (fun (c, _, _) -> c) hit)
