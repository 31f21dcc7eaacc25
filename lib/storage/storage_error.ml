type op =
  | Open
  | Pread
  | Pwrite
  | Append
  | Fsync
  | Truncate
  | Close
  | Rename
  | Remove
  | Readdir
  | Fsync_dir

let op_name = function
  | Open -> "open"
  | Pread -> "pread"
  | Pwrite -> "pwrite"
  | Append -> "append"
  | Fsync -> "fsync"
  | Truncate -> "truncate"
  | Close -> "close"
  | Rename -> "rename"
  | Remove -> "remove"
  | Readdir -> "readdir"
  | Fsync_dir -> "fsync-dir"

let pp_op fmt op = Format.pp_print_string fmt (op_name op)

type errno =
  | Enospc
  | Eio
  | Eintr
  | Short_read of { expected : int; got : int }
  | Short_write of { expected : int; got : int }
  | Read_only_store
  | Wal_poisoned
  | Checksum_mismatch
  | Errno of string

let pp_errno fmt = function
  | Enospc -> Format.pp_print_string fmt "ENOSPC"
  | Eio -> Format.pp_print_string fmt "EIO"
  | Eintr -> Format.pp_print_string fmt "EINTR"
  | Short_read { expected; got } ->
      Format.fprintf fmt "short read (%d of %d bytes)" got expected
  | Short_write { expected; got } ->
      Format.fprintf fmt "short write (%d of %d bytes)" got expected
  | Read_only_store -> Format.pp_print_string fmt "store is read-only"
  | Wal_poisoned -> Format.pp_print_string fmt "log poisoned by failed repair"
  | Checksum_mismatch -> Format.pp_print_string fmt "stored checksum mismatch"
  | Errno e -> Format.pp_print_string fmt e

let transient_of_errno = function
  | Eintr | Eio | Short_read _ | Short_write _ -> true
  | Enospc | Read_only_store | Wal_poisoned | Checksum_mismatch | Errno _ -> false

type t = {
  op : op;
  path : string;
  errno : errno;
  transient : bool;
  detail : string option;
}

exception Io of t

let v ?detail ?transient ~op ~path errno =
  let transient =
    match transient with Some b -> b | None -> transient_of_errno errno
  in
  { op; path; errno; transient; detail }

let raise_io ?detail ?transient ~op ~path errno =
  raise (Io (v ?detail ?transient ~op ~path errno))

let of_unix ~op ~path (e : Unix.error) =
  match e with
  | Unix.ENOSPC -> v ~op ~path Enospc
  | Unix.EIO -> v ~op ~path Eio
  | Unix.EINTR -> v ~op ~path Eintr
  | e ->
      let name =
        match e with
        | Unix.EUNKNOWNERR n -> Printf.sprintf "errno(%d)" n
        | e -> Unix.error_message e
      in
      v ~op ~path (Errno name)

let protect f = try Ok (f ()) with Io e -> Error e
let ok_exn = function Ok v -> v | Error e -> raise (Io e)

let pp fmt t =
  Format.fprintf fmt "%a during %a on %s (%s)%t" pp_errno t.errno pp_op t.op
    t.path
    (if t.transient then "transient" else "permanent")
    (fun fmt ->
      match t.detail with
      | None -> ()
      | Some d -> Format.fprintf fmt ": %s" d)

let to_string t = Format.asprintf "%a" pp t

let () =
  Printexc.register_printer (function
    | Io t -> Some (Printf.sprintf "Storage_error.Io(%s)" (to_string t))
    | _ -> None)
