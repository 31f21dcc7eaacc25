exception Unavailable of string

type backing = [ `Map | `Buffered ]

external willneed_range : Zcodec.buf -> int -> int -> unit = "rta_arena_willneed"

type impl = Mapped of Unix.file_descr | Buffered

type t = {
  impl : impl;
  path : string;
  block_size : int;
  mutable buf : Zcodec.buf;
  mutable cap_blocks : int;
  mutable n_remaps : int;
  mutable closed : bool;
}

let forced_off () =
  match Sys.getenv_opt "RTA_FORCE_NO_MMAP" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let ba_create n =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  Bigarray.Array1.fill b '\000';
  b

let map_fd fd ~bytes : Zcodec.buf =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| bytes |])

let round_cap ~initial_blocks blocks =
  let rec go c = if c >= blocks then c else go (2 * c) in
  go (max 1 initial_blocks)

let create ?(initial_blocks = 64) ~backing ~block_size ~path () =
  if block_size < 16 then invalid_arg "Arena.create: block_size too small";
  if initial_blocks < 1 then invalid_arg "Arena.create: initial_blocks must be >= 1";
  let bytes = initial_blocks * block_size in
  let try_map () =
    if forced_off () then failwith "mmap disabled by RTA_FORCE_NO_MMAP";
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    match
      Unix.ftruncate fd bytes;
      let map = map_fd fd ~bytes in
      (* Prove the mapping is actually usable (some filesystems hand out
         a mapping that faults on first touch). *)
      ignore (Zcodec.get_u8 map 0);
      map
    with
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    | map -> (Mapped fd, map)
  in
  let impl, buf =
    match backing with
    | `Buffered -> (Buffered, ba_create bytes)
    | `Map -> (
        try try_map () with e -> raise (Unavailable (Printexc.to_string e)))
    | `Auto -> ( try try_map () with _ -> (Buffered, ba_create bytes))
  in
  { impl; path; block_size; buf; cap_blocks = initial_blocks; n_remaps = 0; closed = false }

let backing t = match t.impl with Mapped _ -> `Map | Buffered -> `Buffered
let block_size t = t.block_size
let capacity_blocks t = t.cap_blocks
let remaps t = t.n_remaps
let file_size_bytes t = t.cap_blocks * t.block_size
let buffer t = t.buf

let ensure t ~blocks =
  if t.closed then
    Storage_error.raise_io ~detail:"arena is closed" ~op:Storage_error.Pwrite ~path:t.path
      (Storage_error.Errno "EBADF");
  if blocks > t.cap_blocks then begin
    let cap = round_cap ~initial_blocks:t.cap_blocks blocks in
    let bytes = cap * t.block_size in
    (match t.impl with
    | Mapped fd ->
        Unix.ftruncate fd bytes;
        t.buf <- map_fd fd ~bytes;
        t.n_remaps <- t.n_remaps + 1
    | Buffered ->
        let data = ba_create bytes in
        Bigarray.Array1.blit t.buf (Bigarray.Array1.sub data 0 (Bigarray.Array1.dim t.buf));
        t.buf <- data);
    t.cap_blocks <- cap
  end

let willneed t ~block ~count =
  if count > 0 && block >= 0 && block < t.cap_blocks then
    let count = min count (t.cap_blocks - block) in
    match t.impl with
    | Mapped _ -> willneed_range t.buf (block * t.block_size) (count * t.block_size)
    | Buffered -> ()

(* Dropping the buffer as well as the descriptor lets the GC unmap the
   mapping (or free the RAM image) even while the closed handle is still
   referenced. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    t.buf <- ba_create 0;
    match t.impl with
    | Mapped fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | Buffered -> ()
  end
