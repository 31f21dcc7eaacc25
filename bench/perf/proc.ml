(* Files, directories and the [rta_cli serve] child process. *)

let now () = Int64.to_float (Telemetry.Tracer.now_ns ()) *. 1e-9

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

let copy_file src dst =
  let buf = Bytes.create 65536 in
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let rec go () =
        match input ic buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            output oc buf 0 n;
            go ()
      in
      go ())

(* A fresh copy of a flat directory of regular files: each run starts from
   the same bytes whatever the store's file format is. *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

external allocated_bytes : string -> int = "perf_allocated_bytes"

(* Disk space allocated to the regular files under [dir]. *)
let rec dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      match (Unix.lstat p).Unix.st_kind with
      | Unix.S_REG -> acc + allocated_bytes p
      | Unix.S_DIR -> acc + dir_bytes p
      | _ -> acc)
    0 (Sys.readdir dir)

(* --- Children ------------------------------------------------------------------ *)

(* Every server still running, for [kill_all]. *)
let live : int list ref = ref []
let forget pid = live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

type server = { pid : int; sock : string; log : string }

(* Start [cli serve] over the store in [dir] ([dir]/wh is the warehouse
   prefix).  The socket and the server's output live beside [dir], so the
   directory holds only what the engine writes. *)
let spawn ~cli ~dir args =
  let sock = dir ^ ".sock" and log = dir ^ ".log" in
  (try Sys.remove sock with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let argv = cli :: "serve" :: "--wal" :: Filename.concat dir "wh" :: "--socket" :: sock :: args in
  let pid = Unix.create_process cli (Array.of_list argv) Unix.stdin out out in
  Unix.close out;
  live := pid :: !live;
  { pid; sock; log }

let fail_with_log s fmt =
  Printf.ksprintf
    (fun msg ->
      let tail =
        try
          let ic = open_in_bin s.log in
          let n = in_channel_length ic in
          let text = really_input_string ic n in
          close_in ic;
          text
        with Sys_error _ -> ""
      in
      failwith (Printf.sprintf "%s\n--- server output (%s) ---\n%s" msg s.log tail))
    fmt

(* Connect as soon as the socket accepts. *)
let rec await_socket ?(deadline = now () +. 120.) s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> (
      match Client.connect_unix ~timeout:60. ~path:s.sock () with
      | cli -> cli
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          if now () > deadline then fail_with_log s "serve did not listen in time";
          Unix.sleepf 0.001;
          await_socket ~deadline s)
  | _ ->
      forget s.pid;
      fail_with_log s "serve exited before listening"

(* The server's utime + stime, in seconds (Linux USER_HZ is 100). *)
let cpu_s s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, from field 3 (state). *)
  let i = String.rindex line ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line i (String.length line - i))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Wait for a server asked to shut down; it must drain and exit 0.  One
   that hangs stays in [live] and is killed on the way out. *)
let await_exit s =
  let deadline = now () +. 60. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then fail_with_log s "serve did not exit after shutdown";
        Unix.sleepf 0.002;
        go ()
    | _, st ->
        forget s.pid;
        if st <> Unix.WEXITED 0 then fail_with_log s "serve exited abnormally after shutdown"
  in
  go ()
