exception Unavailable of string

type backing = [ `Map | `Buffered ]

external willneed_range : Zcodec.buf -> int -> int -> unit = "rta_arena_willneed"
external unmap : Zcodec.buf -> bool = "rta_arena_unmap"

type impl = Mapped of Unix.file_descr | Buffered

type t = {
  impl : impl;
  path : string;
  block_size : int;
  initial_blocks : int;
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
  { impl; path; block_size; initial_blocks; buf; cap_blocks = initial_blocks; n_remaps = 0;
    closed = false }

let backing t = match t.impl with Mapped _ -> `Map | Buffered -> `Buffered
let block_size t = t.block_size
let capacity_blocks t = t.cap_blocks
let remaps t = t.n_remaps
let file_size_bytes t = t.cap_blocks * t.block_size
let buffer t = t.buf

let check_open t =
  if t.closed then
    Storage_error.raise_io ~detail:"arena is closed" ~op:Storage_error.Pwrite ~path:t.path
      (Storage_error.Errno "EBADF")

let ensure t ~blocks =
  check_open t;
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

(* The view is dropped before the file shrinks, so no mapping ever
   covers bytes past its end; if the shrink fails, the arena is left
   empty and the next [ensure] regrows it. *)
let reset t =
  check_open t;
  match t.impl with
  | Mapped fd ->
      t.buf <- ba_create 0;
      t.cap_blocks <- 0;
      Unix.ftruncate fd 0;
      ensure t ~blocks:t.initial_blocks
  | Buffered ->
      t.buf <- ba_create (t.initial_blocks * t.block_size);
      t.cap_blocks <- t.initial_blocks

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

(* --- Images of committed files ------------------------------------------------ *)

module Image = struct
  type t = { mutable buf : Zcodec.buf; mapped : bool; mutable used : int }

  let empty () = { buf = ba_create 0; mapped = false; used = 0 }

  (* A private view: nothing writes through it, so every page of it is the
     page cache's, and a write made through another descriptor — a scrub
     repair — shows in it. *)
  let map ~path =
    match
      if forced_off () then failwith "mmap disabled by RTA_FORCE_NO_MMAP";
      let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
    with
    | buf -> { buf; mapped = true; used = Bigarray.Array1.dim buf }
    | exception e -> raise (Unavailable (Printexc.to_string e))

  let ram ?(capacity = 65536) () =
    { buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (max 1 capacity);
      mapped = false; used = 0 }

  let append t src ~pos ~len =
    if t.mapped then invalid_arg "Arena.Image.append: a mapped image is read-only";
    let off = t.used in
    if off + len > Bigarray.Array1.dim t.buf then begin
      let rec cap c = if c >= off + len then c else cap (2 * c) in
      let data =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout
          (cap (max 1 (Bigarray.Array1.dim t.buf)))
      in
      Bigarray.Array1.blit (Bigarray.Array1.sub t.buf 0 off) (Bigarray.Array1.sub data 0 off);
      t.buf <- data
    end;
    Zcodec.blit_of_bytes src pos t.buf off len;
    t.used <- off + len;
    off

  let buffer t = t.buf
  let mapped t = t.mapped

  let willneed t ~off ~len =
    let len = min len (Bigarray.Array1.dim t.buf - off) in
    if t.mapped && len > 0 && off >= 0 then willneed_range t.buf off len

  let release t =
    if t.mapped then ignore (unmap t.buf);
    t.buf <- ba_create 0;
    t.used <- 0
end
