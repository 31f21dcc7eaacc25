exception Unavailable of string

type backing = [ `Map | `Buffered ]

external msync_range : Zcodec.buf -> int -> int -> unit = "rta_arena_msync"
external willneed_range : Zcodec.buf -> int -> int -> unit = "rta_arena_willneed"

type mapped = {
  fd : Unix.file_descr;
  mutable map : Zcodec.buf;
}

type buffered = {
  file : Vfs.file;
  mutable data : Zcodec.buf;
}

type impl = Mapped of mapped | Buffered of buffered

type t = {
  impl : impl;
  path : string;
  block_size : int;
  mutable cap_blocks : int;
  dirty : (int, unit) Hashtbl.t;
  mutable n_remaps : int;
  mutable n_msync_ranges : int;
  mutable closed : bool;
}

let forced_off () =
  match Sys.getenv_opt "RTA_FORCE_NO_MMAP" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let ba_create n =
  Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let map_fd fd ~bytes : Zcodec.buf =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| bytes |])

let round_cap ~initial_blocks blocks =
  let rec go c = if c >= blocks then c else go (2 * c) in
  go (max 1 initial_blocks)

let create ?(initial_blocks = 64) ?(vfs = Vfs.os) ~backing ~block_size ~path ~mode () =
  if block_size < 16 then invalid_arg "Arena.create: block_size too small";
  if initial_blocks < 1 then invalid_arg "Arena.create: initial_blocks must be >= 1";
  (* A new arena starts at [initial_blocks]; a reopened one covers the
     file's whole blocks and leaves the file as it is.  A crash can leave
     a torn trailing partial block, which the rounding drops. *)
  let capacity size =
    match mode with `Create -> initial_blocks | `Reopen -> size / block_size
  in
  let try_map () =
    if forced_off () then failwith "mmap disabled by RTA_FORCE_NO_MMAP";
    let flags =
      match mode with
      | `Create -> [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      | `Reopen -> [ Unix.O_RDWR; Unix.O_CLOEXEC ]
    in
    let fd = Unix.openfile path flags 0o644 in
    match
      let cap_blocks = capacity ((Unix.fstat fd).Unix.st_size) in
      let bytes = cap_blocks * block_size in
      if mode = `Create then Unix.ftruncate fd bytes;
      let map = map_fd fd ~bytes in
      (* Prove the mapping is actually usable (some filesystems hand out
         a mapping that faults on first touch). *)
      if bytes > 0 then ignore (Zcodec.get_u8 map 0);
      (cap_blocks, map)
    with
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    | cap_blocks, map -> (Mapped { fd; map }, cap_blocks)
  in
  let buffered () =
    let file = vfs.Vfs.v_open (mode :> Vfs.open_mode) path in
    let size = file.Vfs.f_size () in
    let cap_blocks = capacity size in
    let bytes = cap_blocks * block_size in
    let data = ba_create bytes in
    Bigarray.Array1.fill data '\000';
    (* Pull the durable image into the RAM "mapping", up to the whole
       blocks it covers. *)
    let limit = min size bytes in
    let buf = Bytes.create 65536 in
    let rec pull off =
      if off < limit then begin
        let n = file.Vfs.f_pread off buf 0 (min 65536 (limit - off)) in
        if n > 0 then begin
          Zcodec.blit_of_bytes buf 0 data off n;
          pull (off + n)
        end
      end
    in
    pull 0;
    if mode = `Create then file.Vfs.f_truncate bytes;
    (Buffered { file; data }, cap_blocks)
  in
  let impl, cap_blocks =
    match backing with
    | `Buffered -> buffered ()
    | `Map -> (
        try try_map ()
        with e -> raise (Unavailable (Printexc.to_string e)))
    | `Auto -> ( try try_map () with _ -> buffered ())
  in
  {
    impl;
    path;
    block_size;
    cap_blocks;
    dirty = Hashtbl.create 256;
    n_remaps = 0;
    n_msync_ranges = 0;
    closed = false;
  }

let backing t = match t.impl with Mapped _ -> `Map | Buffered _ -> `Buffered
let block_size t = t.block_size
let capacity_blocks t = t.cap_blocks
let remaps t = t.n_remaps
let msync_ranges t = t.n_msync_ranges
let file_size_bytes t = t.cap_blocks * t.block_size

let buffer t =
  match t.impl with Mapped m -> m.map | Buffered b -> b.data

let check_open t op =
  if t.closed then
    Storage_error.raise_io ~detail:"arena is closed" ~op ~path:t.path
      (Storage_error.Errno "EBADF")

let ensure t ~blocks =
  check_open t Storage_error.Pwrite;
  if blocks > t.cap_blocks then begin
    let cap = round_cap ~initial_blocks:t.cap_blocks blocks in
    let bytes = cap * t.block_size in
    (match t.impl with
    | Mapped m ->
        Unix.ftruncate m.fd bytes;
        m.map <- map_fd m.fd ~bytes;
        t.n_remaps <- t.n_remaps + 1
    | Buffered b ->
        let data = ba_create bytes in
        Bigarray.Array1.fill data '\000';
        Bigarray.Array1.blit b.data
          (Bigarray.Array1.sub data 0 (Bigarray.Array1.dim b.data));
        b.data <- data;
        b.file.Vfs.f_truncate bytes);
    t.cap_blocks <- cap
  end

let mark_dirty t ~block =
  if block < 0 || block >= t.cap_blocks then
    invalid_arg "Arena.mark_dirty: block outside arena";
  Hashtbl.replace t.dirty block ()

let dirty_blocks t = Hashtbl.length t.dirty

(* Dirty blocks, coalesced into maximal [ (first, count) ] runs. *)
let dirty_ranges t =
  let blocks =
    Hashtbl.fold (fun b () acc -> b :: acc) t.dirty [] |> List.sort Int.compare
  in
  let rec go acc = function
    | [] -> List.rev acc
    | b :: rest -> (
        match acc with
        | (first, count) :: acc' when first + count = b ->
            go ((first, count + 1) :: acc') rest
        | _ -> go ((b, 1) :: acc) rest)
  in
  go [] blocks

(* One [pwrite] per dirty block of the RAM image. *)
let write_back t b ranges =
  let scratch = Bytes.create t.block_size in
  List.iter
    (fun (first, count) ->
      for blk = first to first + count - 1 do
        Zcodec.blit_to_bytes b.data (blk * t.block_size) scratch 0 t.block_size;
        b.file.Vfs.f_pwrite (blk * t.block_size) scratch 0 t.block_size
      done)
    ranges

let sync t =
  check_open t Storage_error.Fsync;
  let ranges = dirty_ranges t in
  (match t.impl with
  | Mapped m ->
      (try
         List.iter
           (fun (first, count) ->
             msync_range m.map (first * t.block_size) (count * t.block_size))
           ranges;
         Unix.fsync m.fd
       with
      | Failure msg ->
          Storage_error.raise_io ~detail:msg ~op:Storage_error.Fsync ~path:t.path
            (Storage_error.Errno "MSYNC")
      | Unix.Unix_error (errno, _, _) ->
          raise
            (Storage_error.Io
               (Storage_error.of_unix ~op:Storage_error.Fsync ~path:t.path errno)))
  | Buffered b ->
      write_back t b ranges;
      b.file.Vfs.f_sync ());
  t.n_msync_ranges <- t.n_msync_ranges + List.length ranges;
  Hashtbl.reset t.dirty

let willneed t ~block ~count =
  if count > 0 && block >= 0 && block < t.cap_blocks then
    let count = min count (t.cap_blocks - block) in
    match t.impl with
    | Mapped m -> willneed_range m.map (block * t.block_size) (count * t.block_size)
    | Buffered _ -> ()

(* Close means the same on both backings: every write made so far is
   handed to the file, none is forced to the platter.  A mapping's
   stores are in the page cache already; the RAM image writes back its
   dirty blocks.  Dropping the buffer as well as the descriptor lets the
   GC unmap the mapping (or free the RAM image) even while the closed
   handle is still referenced. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.impl with
    | Mapped m ->
        m.map <- ba_create 0;
        (try Unix.close m.fd with Unix.Unix_error _ -> ())
    | Buffered b ->
        let ranges = dirty_ranges t in
        Hashtbl.reset t.dirty;
        Fun.protect
          ~finally:(fun () ->
            b.data <- ba_create 0;
            b.file.Vfs.f_close ())
          (fun () -> write_back t b ranges)
  end
