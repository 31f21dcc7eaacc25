module M = Storage.Vfs.Memory
module SM = Map.Make (String)

type kind = Durable | Applied | Torn | Reordered

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Durable -> "durable"
    | Applied -> "applied"
    | Torn -> "torn"
    | Reordered -> "reordered")

type image = {
  cut : int;
  kind : kind;
  files : (string * string) list;
}

(* --- The disk model ----------------------------------------------------------- *)

(* Each live file is a pair [(vol, syn)]: the volatile content (every
   operation applied) and the content at its last fsync.  The durable
   namespace [dur] tracks which dentries — and which content behind
   them — would survive a crash: [Sync p] commits both the data and the
   dentry (ext4-style), [Rename]/[Remove]/[Create] change only the
   volatile namespace until the parent directory is fsynced. *)

type state = {
  vol : (string * string) SM.t;  (* path -> (volatile, last-synced) *)
  dur : string SM.t;  (* durable namespace -> durable content *)
}

let empty = { vol = SM.empty; dur = SM.empty }

let splice base ~off ~data =
  let dlen = String.length data in
  let blen = String.length base in
  let b = Bytes.make (max blen (off + dlen)) '\000' in
  Bytes.blit_string base 0 b 0 blen;
  Bytes.blit_string data 0 b off dlen;
  Bytes.to_string b

let apply st (op : M.op) =
  match op with
  | Create p -> { st with vol = SM.add p ("", "") st.vol }
  | Pwrite { path; off; data } -> (
      match SM.find_opt path st.vol with
      | None -> st
      | Some (v, s) -> { st with vol = SM.add path (splice v ~off ~data, s) st.vol })
  | Truncate (p, len) -> (
      match SM.find_opt p st.vol with
      | None -> st
      | Some (v, s) ->
          let v' =
            if len <= String.length v then String.sub v 0 len
            else v ^ String.make (len - String.length v) '\000'
          in
          { st with vol = SM.add p (v', s) st.vol })
  | Sync p -> (
      match SM.find_opt p st.vol with
      | None -> st
      | Some (v, _) ->
          { vol = SM.add p (v, v) st.vol; dur = SM.add p v st.dur })
  | Rename (a, b) -> (
      match SM.find_opt a st.vol with
      | None -> st
      | Some pair -> { st with vol = SM.add b pair (SM.remove a st.vol) })
  | Remove p -> { st with vol = SM.remove p st.vol }
  | Sync_dir d ->
      (* The directory's dentries become durable: names removed or renamed
         away disappear from the durable namespace, names present point at
         their inode's last-synced content (possibly empty, if the file's
         data was never fsynced — metadata-journalling without data). *)
      let in_dir p = Filename.dirname p = d in
      let dur = SM.filter (fun p _ -> (not (in_dir p)) || SM.mem p st.vol) st.dur in
      let dur =
        SM.fold (fun p (_, s) acc -> if in_dir p then SM.add p s acc else acc) st.vol dur
      in
      { st with dur }

(* --- Enumeration -------------------------------------------------------------- *)

let durable_files st = SM.bindings st.dur
let applied_files st = SM.bindings st.vol |> List.map (fun (p, (v, _)) -> (p, v))

let digest files =
  let b = Buffer.create 256 in
  List.iter
    (fun (p, c) ->
      Buffer.add_string b p;
      Buffer.add_char b '\000';
      Buffer.add_string b (Digest.string c);
      Buffer.add_char b '\001')
    files;
  Digest.string (Buffer.contents b)

(* The distinct images of every cut ([all]) or of the final one only.
   At cut [k] (a crash immediately after op [k-1]) nothing volatile may
   survive, or everything may (the crash lost no cached state), or the
   write in flight may partly land on the durable image: torn (a prefix
   reached the platter) or reordered (the whole write jumped the queue
   ahead of earlier unsynced writes). *)
let images ~all ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let seen = Hashtbl.create 997 in
  let out = ref [] in
  let emit cut kind files =
    let d = digest files in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.add seen d ();
      out := { cut; kind; files } :: !out
    end
  in
  let st = ref empty in
  for k = 0 to n do
    if all || k = n then begin
      emit k Durable (durable_files !st);
      emit k Applied (applied_files !st);
      if k > 0 then
        match ops.(k - 1) with
        | M.Pwrite { path; off; data } -> (
            match SM.find_opt path !st.dur with
            | None -> ()
            | Some base ->
                let dlen = String.length data in
                if dlen >= 2 then begin
                  let half = String.sub data 0 (dlen / 2) in
                  emit k Torn (SM.bindings (SM.add path (splice base ~off ~data:half) !st.dur))
                end;
                emit k Reordered (SM.bindings (SM.add path (splice base ~off ~data) !st.dur)))
        | _ -> ()
    end;
    if k < n then st := apply !st ops.(k)
  done;
  List.rev !out

let enumerate = images ~all:true
let enumerate_at = images ~all:false

(* --- Loading an image back into a filesystem ---------------------------------- *)

let to_memory_fs img =
  let fs = M.create () in
  let vfs = M.vfs fs in
  List.iter
    (fun (p, c) ->
      let f = vfs.Storage.Vfs.v_open `Create p in
      let len = String.length c in
      if len > 0 then f.Storage.Vfs.f_pwrite 0 (Bytes.of_string c) 0 len;
      f.Storage.Vfs.f_close ())
    img.files;
  fs

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let materialize img ~dir =
  mkdir_p dir;
  List.iter
    (fun (p, c) ->
      let target = Filename.concat dir p in
      mkdir_p (Filename.dirname target);
      let oc = open_out_bin target in
      output_string oc c;
      close_out oc)
    img.files
