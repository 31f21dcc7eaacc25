exception Unavailable of string

type backing = [ `Map | `Buffered ]

external willneed_range : Zcodec.buf -> int -> int -> unit = "rta_arena_willneed"
external unmap : Zcodec.buf -> bool = "rta_arena_unmap"

(* A mapped arena is one buffer over the whole file.  A RAM arena is a
   run of chunks of [initial_blocks] blocks each, so it grows by adding a
   chunk and never copies a block it holds. *)
type impl = Mapped of Unix.file_descr | Buffered

type t = {
  impl : impl;
  path : string;
  block_size : int;
  initial_blocks : int;
  mutable buf : Zcodec.buf; (* [Mapped]: the mapping *)
  mutable chunks : Zcodec.buf array; (* [Buffered] *)
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
    | `Buffered -> (Buffered, ba_create 0)
    | `Map -> (
        try try_map () with e -> raise (Unavailable (Printexc.to_string e)))
    | `Auto -> ( try try_map () with _ -> (Buffered, ba_create 0))
  in
  let chunks = match impl with Buffered -> [| ba_create bytes |] | Mapped _ -> [||] in
  { impl; path; block_size; initial_blocks; buf; chunks; cap_blocks = initial_blocks;
    n_remaps = 0; closed = false }

let backing t = match t.impl with Mapped _ -> `Map | Buffered -> `Buffered
let block_size t = t.block_size
let capacity_blocks t = t.cap_blocks
let remaps t = t.n_remaps
let file_size_bytes t = t.cap_blocks * t.block_size

let block t b =
  if b < 0 || b >= t.cap_blocks then invalid_arg "Arena.block: block outside the arena";
  match t.impl with
  | Mapped _ -> (t.buf, b * t.block_size)
  | Buffered -> (t.chunks.(b / t.initial_blocks), b mod t.initial_blocks * t.block_size)

let check_open t =
  if t.closed then
    Storage_error.raise_io ~detail:"arena is closed" ~op:Storage_error.Pwrite ~path:t.path
      (Storage_error.Errno "EBADF")

let ensure t ~blocks =
  check_open t;
  if blocks > t.cap_blocks then
    match t.impl with
    | Mapped fd ->
        let cap = round_cap ~initial_blocks:t.cap_blocks blocks in
        let bytes = cap * t.block_size in
        Unix.ftruncate fd bytes;
        t.buf <- map_fd fd ~bytes;
        t.n_remaps <- t.n_remaps + 1;
        t.cap_blocks <- cap
    | Buffered ->
        let n = (blocks + t.initial_blocks - 1) / t.initial_blocks in
        let old = Array.length t.chunks in
        t.chunks <-
          Array.init n (fun i ->
              if i < old then t.chunks.(i) else ba_create (t.initial_blocks * t.block_size));
        t.cap_blocks <- n * t.initial_blocks

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
      t.chunks <- [| ba_create (t.initial_blocks * t.block_size) |];
      t.cap_blocks <- t.initial_blocks

(* Dropping the buffer as well as the descriptor lets the GC unmap the
   mapping (or free the RAM image) even while the closed handle is still
   referenced. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    t.buf <- ba_create 0;
    t.chunks <- [||];
    match t.impl with
    | Mapped fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | Buffered -> ()
  end

(* --- Images of committed files ------------------------------------------------ *)

module Image = struct
  (* A mapped image is one buffer over the whole file.  A RAM image is a
     run of chunks of [chunk] bytes, each range appended whole into one,
     so the image grows by adding a chunk and never copies what it holds;
     an offset into it is [chunk * index + offset in the chunk]. *)
  type t = {
    mutable chunks : Zcodec.buf array;
    mapped : bool;
    chunk : int;
    mutable used : int; (* bytes of the last chunk *)
  }

  let empty () = { chunks = [||]; mapped = false; chunk = 1; used = 0 }

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
    | buf ->
        let size = Bigarray.Array1.dim buf in
        { chunks = [| buf |]; mapped = true; chunk = max 1 size; used = size }
    | exception e -> raise (Unavailable (Printexc.to_string e))

  let ram ~chunk () =
    if chunk < 1 then invalid_arg "Arena.Image.ram: chunk must be >= 1";
    { chunks = [||]; mapped = false; chunk; used = 0 }

  let append t src ~pos ~len =
    if t.mapped then invalid_arg "Arena.Image.append: a mapped image is read-only";
    if len > t.chunk then invalid_arg "Arena.Image.append: range longer than a chunk";
    if Array.length t.chunks = 0 || t.used + len > t.chunk then begin
      let fresh = Bigarray.Array1.create Bigarray.char Bigarray.c_layout t.chunk in
      t.chunks <- Array.append t.chunks [| fresh |];
      t.used <- 0
    end;
    let last = Array.length t.chunks - 1 in
    Zcodec.blit_of_bytes src pos t.chunks.(last) t.used len;
    t.used <- t.used + len;
    (last * t.chunk) + t.used - len

  let locate t off =
    let i = off / t.chunk in
    if off < 0 || i >= Array.length t.chunks then
      invalid_arg "Arena.Image.locate: offset outside the image";
    (t.chunks.(i), off mod t.chunk)

  let mapped t = t.mapped

  let willneed t =
    if t.mapped && t.used > 0 then willneed_range t.chunks.(0) 0 t.used

  let release t =
    if t.mapped then Array.iter (fun buf -> ignore (unmap buf)) t.chunks;
    t.chunks <- [||];
    t.used <- 0
end
