type sync_policy = Never | Every_n of int | Always

let pp_sync_policy ppf = function
  | Never -> Format.fprintf ppf "never"
  | Every_n n -> Format.fprintf ppf "every:%d" n
  | Always -> Format.fprintf ppf "always"

exception Crashed = Storage.Vfs.Crashed

module E = Storage.Storage_error
module Frame = Storage.Frame

module Stats = struct
  type t = {
    mutable n_appends : int;
    mutable n_bytes : int;
    mutable n_fsyncs : int;
    mutable n_replayed : int;
    mutable n_dropped_bytes : int;
    mutable n_truncations : int;
  }

  let create () =
    { n_appends = 0; n_bytes = 0; n_fsyncs = 0; n_replayed = 0; n_dropped_bytes = 0;
      n_truncations = 0 }

  let appends t = t.n_appends
  let bytes t = t.n_bytes
  let fsyncs t = t.n_fsyncs
  let replayed t = t.n_replayed
  let dropped_bytes t = t.n_dropped_bytes
  let truncations t = t.n_truncations

  let pp ppf t =
    Format.fprintf ppf "appends=%d bytes=%d fsyncs=%d replayed=%d dropped=%d truncations=%d"
      t.n_appends t.n_bytes t.n_fsyncs t.n_replayed t.n_dropped_bytes t.n_truncations
end

(* --- File layer -------------------------------------------------------------- *)

(* The byte-level file abstraction now lives in {!Storage.Vfs}, shared by
   every disk writer in the code base; the aliases below keep the original
   Wal surface working. *)

type file = Storage.Vfs.file

(* Brings the [f_*] record labels of {!Storage.Vfs.file} into scope for
   the log implementation below. *)
open Storage.Vfs

let os_file ~path = os.v_open `Log path

module Faulty = struct
  type handle = Storage.Vfs.Fault.handle

  let wrap ?mode ~fail_after inner = Storage.Vfs.Fault.wrap ?mode ~fail_after inner
  let crashed = Storage.Vfs.Fault.crashed
  let written = Storage.Vfs.Fault.written
end

(* --- The log ----------------------------------------------------------------- *)

let magic = "MVSBTWAL"
let version = 1
let header_bytes = String.length magic + 4 + 4
let max_record_bytes = 1 lsl 20

type t = {
  file : file;
  path : string; (* for error context only *)
  pol : sync_policy;
  st : Stats.t;
  tel : Telemetry.Tracer.t;
  mutable appended : bool; (* replay is only legal before the first append *)
  mutable unsynced : int; (* appends since the last fsync (group commit) *)
  mutable closed : bool;
  mutable broken : bool; (* a failed append could not be rolled back *)
}

(* The header is a word file of its own at the start of the log: the
   magic, the version as 4 bytes, and their CRC. *)
let header_fault file =
  if file.f_size () < header_bytes then None
  else begin
    let buf = Bytes.create header_bytes in
    if file.f_pread 0 buf 0 header_bytes < header_bytes then None
    else
      match Frame.Word.decode ~magic ~width:4 buf with
      | Ok v -> if v = version then None else Some (Printf.sprintf "version %d" v)
      | Error e -> Some e
  end

let open_log ?(policy = Every_n 32) ?(stats = Stats.create ())
    ?(telemetry = Telemetry.Tracer.noop) ?(path = "<wal>") file =
  (match policy with
  | Every_n n when n < 1 -> invalid_arg "Wal.open_log: Every_n needs n >= 1"
  | _ -> ());
  let t =
    { file; path; pol = policy; st = stats; tel = telemetry; appended = false;
      unsynced = 0; closed = false; broken = false }
  in
  let size = file.f_size () in
  (* A header is fsynced before any record can follow it, so a short one
     is a crash while the log was being made, and nothing is lost by
     starting afresh; a whole one that fails its check is damage, and
     the log is refused as it is. *)
  if size < header_bytes then begin
    if size > 0 then begin
      file.f_truncate 0;
      stats.Stats.n_truncations <- stats.Stats.n_truncations + 1
    end;
    file.f_append (Frame.Word.encode ~magic ~width:4 version) 0 header_bytes;
    file.f_sync ()
  end
  else
    Option.iter
      (fun e ->
        (try file.f_close () with E.Io _ -> ());
        E.raise_io ~op:E.Pread ~path ~detail:("header: " ^ e) E.Checksum_mismatch)
      (header_fault file);
  t

let open_path ?policy ?stats ?telemetry path =
  open_log ?policy ?stats ?telemetry ~path (os_file ~path)

let check_open t = if t.closed then invalid_arg "Wal: log is closed"

let frames ~path ?(from = header_bytes) file =
  Frame.Reader.create ~max_len:max_record_bytes ~from ~path file

let replay t f =
  check_open t;
  if t.appended then invalid_arg "Wal.replay: records were already appended";
  Telemetry.Tracer.with_span t.tel "wal.replay" @@ fun () ->
  let rd = frames ~path:t.path t.file in
  let rec go count =
    match Frame.Reader.next rd with
    | Whole fr ->
        f (Storage.Codec.Reader.create ~pos:(fr.pos + Frame.header_bytes) ~len:fr.len fr.buf);
        go (count + 1)
    | End -> count
    | Torn off | Bad_length off | Bad_crc { offset = off; _ } ->
        (* Torn or corrupt tail: cut it off so new appends extend a
           well-formed log instead of burying garbage mid-file. *)
        let size = t.file.f_size () in
        t.st.Stats.n_dropped_bytes <- t.st.Stats.n_dropped_bytes + (size - off);
        t.file.f_truncate off;
        count
  in
  let count = go 0 in
  t.st.Stats.n_replayed <- t.st.Stats.n_replayed + count;
  count

let do_sync t =
  Telemetry.Tracer.with_span t.tel "wal.sync" @@ fun () ->
  t.file.f_sync ();
  t.st.Stats.n_fsyncs <- t.st.Stats.n_fsyncs + 1;
  t.unsynced <- 0

let maybe_sync t =
  match t.pol with
  | Never -> ()
  | Always -> do_sync t
  | Every_n n -> if t.unsynced >= n then do_sync t

let append t ?(pos = 0) ?len buf =
  check_open t;
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  if len <= 0 then invalid_arg "Wal.append: empty payload";
  if len > max_record_bytes then invalid_arg "Wal.append: payload exceeds max_record_bytes";
  if pos < 0 || pos + len > Bytes.length buf then invalid_arg "Wal.append: range outside buffer";
  if t.broken then Error (E.v ~op:E.Append ~path:t.path E.Wal_poisoned)
  else begin
    Telemetry.Tracer.with_span t.tel ~level:`Debug "wal.append"
      ~attrs:(fun () -> [ ("bytes", Telemetry.Tracer.Int (Frame.header_bytes + len)) ])
    @@ fun () ->
    let frame = Frame.make buf ~pos ~len in
    t.appended <- true;
    match
      E.protect (fun () ->
          let size0 = t.file.f_size () in
          let counted = ref false in
          try
            (* One write for the whole frame: a crash tears at most this
               record. *)
            t.file.f_append frame 0 (Bytes.length frame);
            t.unsynced <- t.unsynced + 1;
            counted := true;
            maybe_sync t
          with E.Io _ as exn ->
            (* Roll the log back to its pre-append length: [Error] must
               always mean "not logged", or recovery would resurrect an
               update the caller was told failed.  This also covers the
               append-landed-but-fsync-failed case.  If even the rollback
               fails the log is poisoned: every later append is refused
               until a checkpoint truncation rewrites the file. *)
            (try
               t.file.f_truncate size0;
               if !counted then t.unsynced <- t.unsynced - 1
             with E.Io _ -> t.broken <- true);
            raise exn)
    with
    | Ok () ->
        t.st.Stats.n_appends <- t.st.Stats.n_appends + 1;
        t.st.Stats.n_bytes <- t.st.Stats.n_bytes + Bytes.length frame;
        Ok ()
    | Error _ as e -> e
  end

let sync t =
  check_open t;
  E.protect (fun () -> do_sync t)

let truncate t =
  check_open t;
  E.protect (fun () ->
      Telemetry.Tracer.with_span t.tel "wal.truncate" @@ fun () ->
      t.file.f_truncate header_bytes;
      t.file.f_sync ();
      t.st.Stats.n_fsyncs <- t.st.Stats.n_fsyncs + 1;
      t.st.Stats.n_truncations <- t.st.Stats.n_truncations + 1;
      t.unsynced <- 0;
      (* The damaged tail (if any) is gone with the truncation: a
         poisoned log is whole again. *)
      t.broken <- false)

let broken t = t.broken
let unsynced t = t.unsynced

(* --- Live tailing ------------------------------------------------------------- *)

(* Where [replay] truncates, a live reader waits: a torn frame may be one
   still being written (see the interface). *)
module Tail = struct
  type event = Frame of bytes | Need_more | Corrupt of string

  type t = { file : file; frames : Frame.Reader.t; mutable closed : bool }

  let create ?(from = header_bytes) file =
    { file; frames = frames ~path:"<wal>" ~from:(max from header_bytes) file; closed = false }

  let open_path path = create (os_file ~path)

  let poll t =
    if t.closed then invalid_arg "Wal.Tail: tailer is closed";
    (* A size below our offset means the log was reset under us (a
       checkpoint truncation): everything we read is already covered by
       the checkpoint, so restart after the header. *)
    if t.file.f_size () < Frame.Reader.offset t.frames then
      Frame.Reader.seek t.frames header_bytes;
    match Frame.Reader.next t.frames with
    | Whole fr -> Frame (Bytes.sub fr.buf (fr.pos + Frame.header_bytes) fr.len)
    | Torn _ | End -> Need_more
    | Bad_length off -> Corrupt (Printf.sprintf "bad record length at offset %d" off)
    | Bad_crc fr ->
        (* Stay on the bad record: every later poll reports it again. *)
        Frame.Reader.seek t.frames fr.offset;
        Corrupt (Printf.sprintf "record checksum mismatch at offset %d" fr.offset)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try t.file.f_close () with E.Io _ -> ()
    end
end

let size t =
  check_open t;
  t.file.f_size ()

let policy t = t.pol
let stats t = t.st

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Best effort: the caller is done with the log either way. *)
    try t.file.f_close () with E.Io _ -> ()
  end
