exception Crashed

type file = {
  f_pread : int -> bytes -> int -> int -> int;
  f_pwrite : int -> bytes -> int -> int -> unit;
  f_append : bytes -> int -> int -> unit;
  f_size : unit -> int;
  f_sync : unit -> unit;
  f_truncate : int -> unit;
  f_close : unit -> unit;
}

type open_mode = [ `Create | `Reopen | `Log ]

type t = {
  v_open : open_mode -> string -> file;
  v_rename : string -> string -> unit;
  v_remove : string -> unit;
  v_exists : string -> bool;
  v_readdir : string -> string array;
  v_sync_dir : string -> unit;
}

(* --- The real filesystem ------------------------------------------------------ *)

(* Retry [EINTR] in place — an interrupted syscall never escapes the OS
   layer — and convert every other Unix failure into a typed
   [Storage_error.Io].  "No such file" stays a [Sys_error] where callers
   probe for absence (open/rename/remove): a missing file is a visible
   condition several recovery paths branch on, not an I/O fault. *)
let rec eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> eintr f

let unix_guard ?(enoent_sys_error = false) ~op ~path f =
  try eintr f with
  | Unix.Unix_error (Unix.ENOENT, _, _) when enoent_sys_error ->
      raise (Sys_error (path ^ ": No such file or directory"))
  | Unix.Unix_error (e, _, _) ->
      raise (Storage_error.Io (Storage_error.of_unix ~op ~path e))

let os_file_of_fd ?(append = false) ~path fd =
  let really_write_at ~op seek buf pos len =
    unix_guard ~op ~path seek;
    (* Loop until every byte is down: [Unix.write] may transfer a prefix
       (short write) without raising.  A zero-progress write would spin,
       so surface it as a permanent short write instead. *)
    let rec loop off =
      if off < len then begin
        let n =
          unix_guard ~op ~path (fun () -> Unix.write fd buf (pos + off) (len - off))
        in
        if n <= 0 then
          Storage_error.raise_io ~op ~path ~transient:false
            (Storage_error.Short_write { expected = len; got = off })
        else loop (off + n)
      end
    in
    loop 0
  in
  {
    f_pread =
      (fun off buf pos len ->
        unix_guard ~op:Storage_error.Pread ~path (fun () ->
            ignore (Unix.lseek fd off Unix.SEEK_SET));
        let rec loop got =
          if got >= len then got
          else
            let n =
              unix_guard ~op:Storage_error.Pread ~path (fun () ->
                  Unix.read fd buf (pos + got) (len - got))
            in
            if n = 0 then got else loop (got + n)
        in
        loop 0);
    f_pwrite =
      (fun off buf pos len ->
        really_write_at ~op:Storage_error.Pwrite
          (fun () -> ignore (Unix.lseek fd off Unix.SEEK_SET))
          buf pos len);
    f_append =
      (fun buf pos len ->
        (* With O_APPEND the kernel positions atomically; otherwise seek
           to the end explicitly. *)
        really_write_at ~op:Storage_error.Append
          (fun () -> if not append then ignore (Unix.lseek fd 0 Unix.SEEK_END))
          buf pos len);
    f_size =
      (fun () ->
        unix_guard ~op:Storage_error.Pread ~path (fun () ->
            (Unix.fstat fd).Unix.st_size));
    f_sync =
      (fun () -> unix_guard ~op:Storage_error.Fsync ~path (fun () -> Unix.fsync fd));
    f_truncate =
      (fun len ->
        unix_guard ~op:Storage_error.Truncate ~path (fun () -> Unix.ftruncate fd len));
    f_close =
      (fun () ->
        (* No EINTR retry on close: the fd may already be gone, and a
           second close could hit a recycled descriptor. *)
        try Unix.close fd
        with Unix.Unix_error (e, _, _) ->
          raise (Storage_error.Io (Storage_error.of_unix ~op:Storage_error.Close ~path e)));
  }

let os =
  {
    v_open =
      (fun mode path ->
        let openfile flags =
          unix_guard ~enoent_sys_error:true ~op:Storage_error.Open ~path (fun () ->
              Unix.openfile path flags 0o644)
        in
        match mode with
        | `Create ->
            let fd = openfile [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] in
            os_file_of_fd ~path fd
        | `Reopen ->
            let fd = openfile [ Unix.O_RDWR ] in
            os_file_of_fd ~path fd
        | `Log ->
            (* The one-process guard is a [lockf] lock on [<path>.lock],
               held by a descriptor only this handle owns: POSIX drops a
               process's locks on a file when it closes {e any} descriptor
               of it, so a lock on the log itself would vanish when an
               in-process reader of the log (a replication tail, scrub)
               closed its own.  Locks are per-process, so re-opening after
               an in-process simulated crash still works.  O_APPEND makes
               every append land atomically at end-of-file. *)
            let lock_path = path ^ ".lock" in
            let lock =
              unix_guard ~enoent_sys_error:true ~op:Storage_error.Open ~path:lock_path
                (fun () ->
                  Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644)
            in
            let release () = try Unix.close lock with Unix.Unix_error _ -> () in
            (try Unix.lockf lock Unix.F_TLOCK 0
             with Unix.Unix_error _ ->
               release ();
               failwith (Printf.sprintf "Vfs: %s is locked by another process" path));
            let fd =
              try openfile [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ]
              with e ->
                release ();
                raise e
            in
            let f = os_file_of_fd ~append:true ~path fd in
            { f with f_close = (fun () -> Fun.protect ~finally:release f.f_close) });
    v_rename =
      (fun src dst ->
        unix_guard ~enoent_sys_error:true ~op:Storage_error.Rename ~path:src
          (fun () -> Unix.rename src dst));
    v_remove =
      (fun path ->
        unix_guard ~enoent_sys_error:true ~op:Storage_error.Remove ~path (fun () ->
            Unix.unlink path));
    v_exists = Sys.file_exists;
    v_readdir = Sys.readdir;
    v_sync_dir =
      (fun dir ->
        unix_guard ~op:Storage_error.Fsync_dir ~path:dir (fun () ->
            let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)));
  }

(* --- Shared helpers ----------------------------------------------------------- *)

let read_file vfs path =
  let f = vfs.v_open `Reopen path in
  Fun.protect ~finally:(fun () -> f.f_close ()) @@ fun () ->
  let size = f.f_size () in
  let buf = Bytes.create size in
  let got = f.f_pread 0 buf 0 size in
  if got < size then failwith (Printf.sprintf "Vfs.read_file: short read on %s" path);
  buf

let write_file_atomic vfs ~path buf ~len =
  let tmp = path ^ ".tmp" in
  let f = vfs.v_open `Create tmp in
  Fun.protect
    ~finally:(fun () -> f.f_close ())
    (fun () ->
      f.f_pwrite 0 buf 0 len;
      f.f_sync ());
  vfs.v_rename tmp path

let sync_path vfs path =
  let f = vfs.v_open `Reopen path in
  Fun.protect ~finally:(fun () -> f.f_close ()) (fun () -> f.f_sync ())

(* --- Fault injection ---------------------------------------------------------- *)

module Fault = struct
  type mode = Torn | Dropped | Duplicated

  type handle = {
    mutable budget : int;
    mutable is_crashed : bool;
    mutable n_written : int;
    mode : mode;
  }

  let wrap ?(mode = Torn) ~fail_after inner =
    if fail_after < 0 then invalid_arg "Vfs.Fault.wrap: negative budget";
    let h = { budget = fail_after; is_crashed = false; n_written = 0; mode } in
    let check () = if h.is_crashed then raise Crashed in
    let guarded_write ~emit len =
      check ();
      if len < h.budget then begin
        emit ~len;
        h.budget <- h.budget - len;
        h.n_written <- h.n_written + len
      end
      else begin
        (* The crash point lies inside (or exactly at the end of) this
           write: mangle it according to the disk model under test, then
           die.  Torn emits the surviving prefix; Dropped loses the whole
           write; Duplicated lands it twice (a retried write whose first
           copy also reached the platter). *)
        (match h.mode with
        | Torn ->
            emit ~len:h.budget;
            h.n_written <- h.n_written + h.budget
        | Dropped -> ()
        | Duplicated ->
            emit ~len;
            emit ~len;
            h.n_written <- h.n_written + (2 * len));
        h.budget <- 0;
        h.is_crashed <- true;
        raise Crashed
      end
    in
    let file =
      {
        f_append =
          (fun buf pos len ->
            guarded_write ~emit:(fun ~len -> inner.f_append buf pos len) len);
        f_pwrite =
          (fun off buf pos len ->
            guarded_write ~emit:(fun ~len -> inner.f_pwrite off buf pos len) len);
        f_pread =
          (fun off buf pos len ->
            check ();
            inner.f_pread off buf pos len);
        f_size =
          (fun () ->
            check ();
            inner.f_size ());
        f_sync =
          (fun () ->
            check ();
            inner.f_sync ());
        f_truncate =
          (fun len ->
            check ();
            inner.f_truncate len);
        f_close =
          (fun () ->
            check ();
            inner.f_close ());
      }
    in
    (h, file)

  let crashed h = h.is_crashed
  let written h = h.n_written
end

(* --- In-memory journaling filesystem ------------------------------------------ *)

module Memory = struct
  type op =
    | Create of string
    | Pwrite of { path : string; off : int; data : string }
    | Truncate of string * int
    | Sync of string
    | Rename of string * string
    | Remove of string
    | Sync_dir of string

  let pp_op ppf = function
    | Create p -> Format.fprintf ppf "create %s" p
    | Pwrite { path; off; data } ->
        Format.fprintf ppf "pwrite %s @%d +%d" path off (String.length data)
    | Truncate (p, n) -> Format.fprintf ppf "truncate %s to %d" p n
    | Sync p -> Format.fprintf ppf "fsync %s" p
    | Rename (a, b) -> Format.fprintf ppf "rename %s -> %s" a b
    | Remove p -> Format.fprintf ppf "remove %s" p
    | Sync_dir d -> Format.fprintf ppf "fsync-dir %s" d

  type fs = {
    files : (string, Buffer.t) Hashtbl.t;
    mutable journal : op list; (* reversed *)
    mutable n_ops : int;
  }

  let create () = { files = Hashtbl.create 32; journal = []; n_ops = 0 }

  (* Paths are flat names; "./x" and "x" must alias (callers go through
     [Filename.dirname]/[concat], which introduces "./"). *)
  let norm path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path

  let log fs op =
    fs.journal <- op :: fs.journal;
    fs.n_ops <- fs.n_ops + 1

  let ops fs = List.rev fs.journal
  let op_count fs = fs.n_ops

  let contents fs =
    Hashtbl.fold (fun path buf acc -> (path, Buffer.contents buf) :: acc) fs.files []
    |> List.sort compare

  let buffer_blit_sub src ~pos ~len = Bytes.sub src pos len |> Bytes.to_string

  let pwrite_buffer buf ~off ~data =
    let cur = Buffer.contents buf in
    let cur_len = String.length cur in
    let data_len = String.length data in
    let new_len = max cur_len (off + data_len) in
    let out = Bytes.make new_len '\000' in
    Bytes.blit_string cur 0 out 0 cur_len;
    Bytes.blit_string data 0 out off data_len;
    Buffer.clear buf;
    Buffer.add_bytes buf out

  let file_of fs path =
    let path = norm path in
    let find () =
      match Hashtbl.find_opt fs.files path with
      | Some b -> b
      | None -> raise (Sys_error (path ^ ": No such file or directory"))
    in
    {
      f_pread =
        (fun off buf pos len ->
          let b = find () in
          let size = Buffer.length b in
          if off >= size then 0
          else begin
            let n = min len (size - off) in
            Bytes.blit_string (Buffer.contents b) off buf pos n;
            n
          end);
      f_pwrite =
        (fun off buf pos len ->
          let b = find () in
          let data = buffer_blit_sub buf ~pos ~len in
          pwrite_buffer b ~off ~data;
          log fs (Pwrite { path; off; data }));
      f_append =
        (fun buf pos len ->
          let b = find () in
          let off = Buffer.length b in
          let data = buffer_blit_sub buf ~pos ~len in
          Buffer.add_string b data;
          log fs (Pwrite { path; off; data }));
      f_size = (fun () -> Buffer.length (find ()));
      f_sync = (fun () -> log fs (Sync path));
      f_truncate =
        (fun len ->
          let b = find () in
          let cur = Buffer.contents b in
          let cur_len = String.length cur in
          Buffer.clear b;
          if len <= cur_len then Buffer.add_string b (String.sub cur 0 len)
          else begin
            Buffer.add_string b cur;
            Buffer.add_string b (String.make (len - cur_len) '\000')
          end;
          log fs (Truncate (path, len)));
      f_close = (fun () -> ());
    }

  let dir_member dir name =
    (* Flat namespace: everything lives in "." unless the caller used an
       explicit directory prefix. *)
    let dir = norm dir in
    if dir = "." || dir = "" then not (String.contains name '/')
    else
      String.length name > String.length dir
      && String.sub name 0 (String.length dir) = dir
      && name.[String.length dir] = '/'

  let strip_dir dir name =
    let dir = norm dir in
    if dir = "." || dir = "" then name
    else String.sub name (String.length dir + 1) (String.length name - String.length dir - 1)

  let vfs fs =
    {
      v_open =
        (fun mode path ->
          let path = norm path in
          (match mode with
          | `Create ->
              Hashtbl.replace fs.files path (Buffer.create 256);
              log fs (Create path)
          | `Log ->
              if not (Hashtbl.mem fs.files path) then begin
                Hashtbl.replace fs.files path (Buffer.create 256);
                log fs (Create path)
              end
          | `Reopen ->
              if not (Hashtbl.mem fs.files path) then
                failwith (Printf.sprintf "Vfs.Memory: no such file %s" path));
          file_of fs path);
      v_rename =
        (fun src dst ->
          let src = norm src and dst = norm dst in
          match Hashtbl.find_opt fs.files src with
          | None -> raise (Sys_error (src ^ ": No such file or directory"))
          | Some b ->
              Hashtbl.remove fs.files src;
              Hashtbl.replace fs.files dst b;
              log fs (Rename (src, dst)));
      v_remove =
        (fun path ->
          let path = norm path in
          if not (Hashtbl.mem fs.files path) then
            raise (Sys_error (path ^ ": No such file or directory"));
          Hashtbl.remove fs.files path;
          log fs (Remove path));
      v_exists = (fun path -> Hashtbl.mem fs.files (norm path));
      v_readdir =
        (fun dir ->
          Hashtbl.fold
            (fun name _ acc -> if dir_member dir name then strip_dir dir name :: acc else acc)
            fs.files []
          |> Array.of_list);
      v_sync_dir = (fun dir -> log fs (Sync_dir (norm dir)));
    }
end

(* --- Errno-class fault injection ---------------------------------------------- *)

module Inject = struct
  type err_class = Enospc | Eio | Eintr | Short

  let class_name = function
    | Enospc -> "enospc"
    | Eio -> "eio"
    | Eintr -> "eintr"
    | Short -> "short"

  let pp_class fmt c = Format.pp_print_string fmt (class_name c)

  let class_of_string = function
    | "enospc" -> Some Enospc
    | "eio" -> Some Eio
    | "eintr" -> Some Eintr
    | "short" -> Some Short
    | _ -> None

  let all_classes = [ Enospc; Eio; Eintr; Short ]

  type handle = {
    mutable fail_at : int;
    mutable n_syscalls : int;
    mutable n_injected : int;
    mutable fired : bool;
    cls : err_class;
    persistent : bool;
    stats : Io_stats.t option;
  }

  let syscalls h = h.n_syscalls
  let injected h = h.n_injected
  let triggered h = h.n_injected > 0

  let arm h ~fail_at =
    h.fail_at <- fail_at;
    h.fired <- false

  (* Which counted syscalls a class can fail on.  EIO and EINTR can hit
     anything; a short transfer needs a transfer; ENOSPC needs an
     allocation — a data write, a file creation, or the rename's new
     directory entry. *)
  let applicable cls (op : Storage_error.op) ~alloc =
    match cls with
    | Eio | Eintr -> true
    | Short -> ( match op with Pread | Pwrite | Append -> true | _ -> false)
    | Enospc -> (
        match op with Pwrite | Append | Rename -> true | Open -> alloc | _ -> false)

  let errno_of cls (op : Storage_error.op) ~len : Storage_error.errno =
    match cls with
    | Enospc -> Storage_error.Enospc
    | Eio -> Storage_error.Eio
    | Eintr -> Storage_error.Eintr
    | Short -> (
        match op with
        | Pread -> Storage_error.Short_read { expected = len; got = 0 }
        | _ -> Storage_error.Short_write { expected = len; got = 0 })

  let wrap ?stats ~persistent ~fail_at ~cls vfs =
    if fail_at < 1 then invalid_arg "Vfs.Inject.wrap: fail_at must be >= 1";
    let h =
      { fail_at; n_syscalls = 0; n_injected = 0; fired = false; cls; persistent; stats }
    in
    (* Every counted syscall ticks [n_syscalls] — uniformly across
       classes, so fault point k names the same syscall whatever class
       is injected.  The fault fires on the first class-applicable
       syscall at index >= fail_at (on every one from there on when
       [persistent]).  A firing syscall performs NO side effect: the
       failure happens "before" the kernel touched anything, so a retry
       that re-issues the operation is exact. *)
    let hook ~op ~path ?(alloc = true) ?(len = 0) inner =
      h.n_syscalls <- h.n_syscalls + 1;
      let fire =
        h.n_syscalls >= h.fail_at
        && applicable h.cls op ~alloc
        && (h.persistent || not h.fired)
      in
      if fire then begin
        h.fired <- true;
        h.n_injected <- h.n_injected + 1;
        (match h.stats with Some s -> Io_stats.record_error_injected s | None -> ());
        raise
          (Storage_error.Io
             (Storage_error.v ~detail:"injected" ~op ~path (errno_of h.cls op ~len)))
      end
      else inner ()
    in
    let wrap_file path f =
      {
        f_pread =
          (fun off buf pos len ->
            hook ~op:Storage_error.Pread ~path ~len (fun () -> f.f_pread off buf pos len));
        f_pwrite =
          (fun off buf pos len ->
            hook ~op:Storage_error.Pwrite ~path ~len (fun () ->
                f.f_pwrite off buf pos len));
        f_append =
          (fun buf pos len ->
            hook ~op:Storage_error.Append ~path ~len (fun () -> f.f_append buf pos len));
        f_size = f.f_size;
        f_sync = (fun () -> hook ~op:Storage_error.Fsync ~path (fun () -> f.f_sync ()));
        f_truncate =
          (fun len -> hook ~op:Storage_error.Truncate ~path (fun () -> f.f_truncate len));
        f_close = f.f_close;
      }
    in
    let vfs' =
      {
        v_open =
          (fun mode path ->
            let alloc = mode <> `Reopen in
            let f = hook ~op:Storage_error.Open ~path ~alloc (fun () -> vfs.v_open mode path) in
            wrap_file path f);
        v_rename =
          (fun src dst ->
            hook ~op:Storage_error.Rename ~path:src (fun () -> vfs.v_rename src dst));
        v_remove =
          (fun path -> hook ~op:Storage_error.Remove ~path (fun () -> vfs.v_remove path));
        v_exists = vfs.v_exists;
        v_readdir = vfs.v_readdir;
        v_sync_dir =
          (fun dir -> hook ~op:Storage_error.Fsync_dir ~path:dir (fun () -> vfs.v_sync_dir dir));
      }
    in
    (h, vfs')
end

(* --- Transparent retry --------------------------------------------------------- *)

let with_retry ?stats ?(policy = Retry.default) vfs =
  let r f = Retry.run ?stats ~policy f in
  let wrap_file f =
    {
      f_pread = (fun off buf pos len -> r (fun () -> f.f_pread off buf pos len));
      f_pwrite = (fun off buf pos len -> r (fun () -> f.f_pwrite off buf pos len));
      f_append = (fun buf pos len -> r (fun () -> f.f_append buf pos len));
      f_size = (fun () -> r (fun () -> f.f_size ()));
      f_sync = (fun () -> r (fun () -> f.f_sync ()));
      f_truncate = (fun len -> r (fun () -> f.f_truncate len));
      (* Close is not retried: a failed close leaves the descriptor state
         unspecified, and retrying could close a recycled fd. *)
      f_close = f.f_close;
    }
  in
  {
    v_open = (fun mode path -> wrap_file (r (fun () -> vfs.v_open mode path)));
    v_rename = (fun src dst -> r (fun () -> vfs.v_rename src dst));
    v_remove = (fun path -> r (fun () -> vfs.v_remove path));
    v_exists = vfs.v_exists;
    v_readdir = vfs.v_readdir;
    v_sync_dir = (fun dir -> r (fun () -> vfs.v_sync_dir dir));
  }

(* --- Tracing --------------------------------------------------------------- *)

let with_telemetry tracer vfs =
  if not (Telemetry.Tracer.enabled tracer) then vfs
  else begin
    let span name ?(len = -1) path f =
      Telemetry.Tracer.with_span tracer ~level:`Debug name f ~attrs:(fun () ->
          let base = [ ("path", Telemetry.Tracer.Str path) ] in
          if len < 0 then base else ("len", Telemetry.Tracer.Int len) :: base)
    in
    let wrap_file path f =
      {
        f_pread =
          (fun off buf pos len ->
            span "vfs.pread" ~len path (fun () -> f.f_pread off buf pos len));
        f_pwrite =
          (fun off buf pos len ->
            span "vfs.pwrite" ~len path (fun () -> f.f_pwrite off buf pos len));
        f_append =
          (fun buf pos len ->
            span "vfs.append" ~len path (fun () -> f.f_append buf pos len));
        f_size = f.f_size;
        f_sync = (fun () -> span "vfs.fsync" path (fun () -> f.f_sync ()));
        f_truncate = (fun len -> span "vfs.truncate" path (fun () -> f.f_truncate len));
        f_close = f.f_close;
      }
    in
    {
      v_open =
        (fun mode path -> wrap_file path (span "vfs.open" path (fun () -> vfs.v_open mode path)));
      v_rename = (fun src dst -> span "vfs.rename" src (fun () -> vfs.v_rename src dst));
      v_remove = (fun path -> span "vfs.remove" path (fun () -> vfs.v_remove path));
      v_exists = vfs.v_exists;
      v_readdir = vfs.v_readdir;
      v_sync_dir = (fun dir -> span "vfs.sync_dir" dir (fun () -> vfs.v_sync_dir dir));
    }
  end
