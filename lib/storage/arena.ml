exception Unavailable of string

type backing = [ `Map | `Buffered ]

external willneed_range : Zcodec.buf -> int -> int -> unit = "rta_arena_willneed"
external unmap : Zcodec.buf -> bool = "rta_arena_unmap"

(* A RAM chunk: an anonymous mapping, so [unmap] gives it back too. *)
external ram_chunk : int -> Zcodec.buf = "rta_arena_ram"

let forced_off () =
  match Sys.getenv_opt "RTA_FORCE_NO_MMAP" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let map_fd fd ~shared ~bytes : Zcodec.buf =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout shared [| bytes |])

(* --- Images: a mapping, or chunks of RAM ------------------------------------- *)

module Image = struct
  (* A mapped image is one buffer over the whole file, a chunk no offset
     leaves.  A RAM image is a run of chunks of [chunk] bytes, each range
     written whole into one, so the image grows by adding a chunk and
     never copies what it holds; an offset into it is [chunk * index +
     offset in the chunk].  Either way every buffer is a mapping, which
     [release] unmaps. *)
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
      map_fd fd ~shared:false ~bytes:(Unix.fstat fd).Unix.st_size
    with
    | buf ->
        { chunks = [| buf |]; mapped = true; chunk = max_int; used = Bigarray.Array1.dim buf }
    | exception e -> raise (Unavailable (Printexc.to_string e))

  let ram ~chunk () =
    if chunk < 1 then invalid_arg "Arena.Image.ram: chunk must be >= 1";
    { chunks = [||]; mapped = false; chunk; used = 0 }

  let size t = (max 0 (Array.length t.chunks - 1) * t.chunk) + t.used

  (* [write buf off] puts at most [room] bytes at the tail and says how
     many: in the last chunk, or, in RAM, in a fresh one if [room] bytes
     might not fit there.  A mapping must have the room already. *)
  let put t ~room write =
    if (not t.mapped) && (Array.length t.chunks = 0 || t.used + room > t.chunk) then begin
      t.chunks <- Array.append t.chunks [| ram_chunk t.chunk |];
      t.used <- 0
    end;
    let last = Array.length t.chunks - 1 in
    let n = write t.chunks.(last) t.used in
    if n < 0 || n > room then invalid_arg "Arena.append: wrote past its room";
    t.used <- t.used + n;
    (last * t.chunk) + t.used - n

  let append t src ~pos ~len =
    if t.mapped then invalid_arg "Arena.Image.append: a mapped image is read-only";
    if len > t.chunk then invalid_arg "Arena.Image.append: range longer than a chunk";
    put t ~room:len (fun buf off ->
        Zcodec.blit_of_bytes src pos buf off len;
        len)

  let locate t off =
    if off < 0 || off >= size t then invalid_arg "Arena.Image.locate: offset outside the image";
    (t.chunks.(off / t.chunk), off mod t.chunk)

  let mapped t = t.mapped

  let willneed t =
    if t.mapped && t.used > 0 then willneed_range t.chunks.(0) 0 t.used

  let release t =
    Array.iter (fun buf -> ignore (unmap buf)) t.chunks;
    t.chunks <- [||];
    t.used <- 0
end

(* --- Arenas ------------------------------------------------------------------- *)

(* An arena is an image it appends to: under [`Map] one shared mapping of
   the file [fd], regrown in doubling steps, under [`Buffered] RAM chunks. *)
type t = {
  path : string;
  chunk : int;
  fd : Unix.file_descr option;
  img : Image.t;
  mutable closed : bool;
}

(* The file grows (or shrinks) to [bytes] and is mapped afresh; the old
   view is unmapped now, its writes being the file's. *)
let remap t fd ~bytes =
  Unix.ftruncate fd bytes;
  let buf = map_fd fd ~shared:true ~bytes in
  Array.iter (fun old -> ignore (unmap old)) t.img.chunks;
  t.img.chunks <- [| buf |]

let create ~backing ~chunk ~path () =
  if chunk < 1 then invalid_arg "Arena.create: chunk must be >= 1";
  let try_map () =
    if forced_off () then failwith "mmap disabled by RTA_FORCE_NO_MMAP";
    let fd =
      Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    let img = { Image.chunks = [||]; mapped = true; chunk = max_int; used = 0 } in
    let t = { path; chunk; fd = Some fd; img; closed = false } in
    match
      remap t fd ~bytes:chunk;
      (* Prove the mapping is actually usable (some filesystems hand out
         a mapping that faults on first touch). *)
      ignore (Zcodec.get_u8 img.chunks.(0) 0)
    with
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    | () -> t
  in
  let ram () = { path; chunk; fd = None; img = Image.ram ~chunk (); closed = false } in
  match backing with
  | `Buffered -> ram ()
  | `Map -> ( try try_map () with e -> raise (Unavailable (Printexc.to_string e)))
  | `Auto -> ( try try_map () with _ -> ram ())

let backing t = match t.fd with Some _ -> `Map | None -> `Buffered
let used t = Image.size t.img
let locate t off = Image.locate t.img off

let check_open t =
  if t.closed then
    Storage_error.raise_io ~detail:"arena is closed" ~op:Storage_error.Pwrite ~path:t.path
      (Storage_error.Errno "EBADF")

let append t ~room write =
  check_open t;
  if room > t.chunk then invalid_arg "Arena.append: room larger than a chunk";
  (match t.fd with
  | Some fd ->
      let need = t.img.used + room and chunks = t.img.chunks in
      let cap = if Array.length chunks = 0 then 0 else Bigarray.Array1.dim chunks.(0) in
      let rec double c = if c >= need then c else double (2 * c) in
      if need > cap then remap t fd ~bytes:(double (max t.chunk cap))
  | None -> ());
  Image.put t.img ~room write

(* The view goes before the file shrinks, so no mapping ever covers bytes
   past its end; if the shrink fails, the arena is left empty and the
   next [append] regrows it. *)
let reset t =
  check_open t;
  Image.release t.img;
  Option.iter
    (fun fd ->
      Unix.ftruncate fd 0;
      remap t fd ~bytes:t.chunk)
    t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    Image.release t.img;
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fd
  end
