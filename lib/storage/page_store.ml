exception Corrupt_page of { path : string; page : Page_id.t }

let protect f =
  try Storage_error.protect f
  with Corrupt_page { path; page } ->
    Error
      (Storage_error.v ~op:Storage_error.Pread ~path
         ~detail:(Printf.sprintf "page %d" (Page_id.to_int page))
         Storage_error.Checksum_mismatch)

module type S = sig
  type payload
  type t

  val stats : t -> Io_stats.t
  val alloc : t -> Page_id.t
  val read : t -> Page_id.t -> payload
  val write : t -> Page_id.t -> payload -> unit
  val free : t -> Page_id.t -> unit
  val mem : t -> Page_id.t -> bool
  val live_pages : t -> int
end

module Mem (P : sig
  type t
end) =
struct
  type payload = P.t

  type t = {
    pages : payload Page_id.Tbl.t;
    mutable next_id : int;
    mutable live : int;
    stats : Io_stats.t;
  }

  let create ?(stats = Io_stats.create ()) () =
    { pages = Page_id.Tbl.create 1024; next_id = 0; live = 0; stats }

  let stats t = t.stats

  (* Ids are never reused: a freed page's id stays dangling forever, so a
     stale historical reference to a disposed page is detectably missing
     instead of silently pointing into an unrelated page. *)
  let alloc t =
    Io_stats.record_alloc t.stats;
    t.live <- t.live + 1;
    let id = Page_id.of_int t.next_id in
    t.next_id <- t.next_id + 1;
    id

  let read t id =
    Io_stats.record_read t.stats;
    Page_id.Tbl.find t.pages id

  let write t id payload =
    Io_stats.record_write t.stats;
    Page_id.Tbl.replace t.pages id payload

  let free t id =
    Io_stats.record_free t.stats;
    Page_id.Tbl.remove t.pages id;
    t.live <- t.live - 1

  let mem t id = Page_id.Tbl.mem t.pages id
  let live_pages t = t.live
end

module type PAGE_CODEC = sig
  type t

  val encode : Zcodec.buf -> off:int -> len:int -> t -> int
  val sealed : t -> bool
end

type 'a view = Decoded of 'a | Framed

module Mmap (C : PAGE_CODEC) = struct
  type payload = C.t view

  (* Where a page is: its frame at an offset of the base, the image of
     the committed checkpoint the store was last based on, or at an
     offset of the overlay if it was sealed since; or, written since and
     not sealed, the page itself, decoded. *)
  type loc = Base of int | Overlay of int | Live of C.t

  type t = {
    overlay : Arena.t;
    path : string;
    page_size : int;
    backing : [ `Auto | `Map | `Buffered ];
    mutable map_base : bool; (* bases are mapped files, not RAM images *)
    mutable base : Arena.Image.t;
    mutable base_path : string;
    mutable where : loc Page_id.Tbl.t;
    mutable next_id : int;
    mutable live : int;
    stats : Io_stats.t;
    tracer : Telemetry.Tracer.t;
  }

  (* A frame, in a base or the overlay, is framed so bit-rot anywhere is
     detected at read time, not silently decoded — the frame of WAL
     records and checkpoint chunks:

       | len 4B | crc 4B | payload (len bytes) |

     The overlay holds them back to back, each from an 8-byte boundary.
     The CRC covers the payload only; [len] is validated against the page
     size and the buffer before the checksum runs, so a corrupt length
     cannot read out of bounds. *)
  let block_overhead = 8

  let create ?(stats = Io_stats.create ()) ?(page_size = 4096)
      ?(tracer = Telemetry.Tracer.noop) ?(backing = `Auto) ~path () =
    if page_size < 32 + block_overhead then
      invalid_arg "Page_store.Mmap: page_size too small";
    let overlay = Arena.create ~backing ~chunk:(64 * page_size) ~path () in
    { overlay; path; page_size; backing; map_base = Arena.backing overlay = `Map;
      base = Arena.Image.empty (); base_path = path; where = Page_id.Tbl.create 1024;
      next_id = 0; live = 0; stats; tracer }

  let stats t = t.stats
  let page_size t = t.page_size
  let backing t = Arena.backing t.overlay

  (* As in {!Mem}: ids are never reused. *)
  let alloc t =
    Io_stats.record_alloc t.stats;
    t.live <- t.live + 1;
    let id = Page_id.of_int t.next_id in
    t.next_id <- t.next_id + 1;
    id

  let page_attr id () = [ ("page", Telemetry.Tracer.Int (Page_id.to_int id)) ]

  let find t id =
    match Page_id.Tbl.find_opt t.where id with None -> raise Not_found | Some loc -> loc

  (* Where a framed page is: the buffer that holds it, the offset of its
     frame and the file it belongs to.  The buffer is fetched afresh on
     every call: a mapped overlay's is replaced when it grows, and a
     rebase releases the base's. *)
  let place t = function
    | Base off ->
        let buf, off = Arena.Image.locate t.base off in
        (buf, off, t.base_path)
    | Overlay off ->
        let buf, off = Arena.locate t.overlay off in
        (buf, off, t.path)
    | Live _ -> invalid_arg "Page_store.Mmap: the page is held decoded"

  (* The payload length of the frame at [off] of [buf]; [Corrupt_page]
     when its length field runs past the page size or the buffer, checked
     before anything reads the payload. *)
  let frame_len t buf off ~path id =
    let room = Bigarray.Array1.dim buf - off - block_overhead in
    let len = if room < 0 || off < 0 then -1 else Zcodec.get_i32 buf off in
    if len < 0 || len > min room (t.page_size - block_overhead) then begin
      Io_stats.record_crc_failure t.stats;
      raise (Corrupt_page { path; page = id })
    end;
    len

  (* The payload of the framed page at [loc], as [(buf, off, len)], its
     CRC checked — on every call, not once per fault: a mapped base shows
     the file's current bytes, so a frame the pool has held since it was
     verified can have rotted since, and a scan of it must fail as a
     fault would. *)
  let checked_frame t id loc =
    let buf, off, path = place t loc in
    let len = frame_len t buf off ~path id in
    let pos = off + block_overhead in
    if Zcodec.crc32 buf ~pos ~len <> Zcodec.get_i32 buf (off + 4) land 0xFFFFFFFF then begin
      Io_stats.record_crc_failure t.stats;
      raise (Corrupt_page { path; page = id })
    end;
    (buf, pos, len)

  (* One charged page read.  Still one logical page transfer — the
     quantity the cost model and the Theorem-1/2 bound checker count —
     even though no syscall runs, and even for a page held decoded;
     [mapped_reads] isolates the zero-copy share. *)
  let charged t id f =
    let loc = find t id in
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.read" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_read t.stats;
    Io_stats.record_mapped_read t.stats;
    f loc

  let read t id =
    charged t id @@ function
    | Live p -> Decoded p
    | loc ->
        ignore (checked_frame t id loc);
        Framed

  (* Not charged: the read that made the page resident was. *)
  let frame t id = checked_frame t id (find t id)

  (* Encode [p] as a frame at [off] of [buf], which has room for a page. *)
  let encode_frame t buf off p =
    let len = C.encode buf ~off:(off + block_overhead) ~len:(t.page_size - block_overhead) p in
    Zcodec.set_i32 buf off len;
    Zcodec.set_i32 buf (off + 4) (Zcodec.crc32 buf ~pos:(off + block_overhead) ~len);
    len

  let read_frame t id =
    charged t id @@ function
    | Live p ->
        let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout t.page_size in
        let len = encode_frame t buf 0 p in
        let out = Bytes.create (block_overhead + len) in
        Zcodec.blit_to_bytes buf 0 out 0 (block_overhead + len);
        out
    | loc ->
        let buf, pos, len = checked_frame t id loc in
        let out = Bytes.create (block_overhead + len) in
        Zcodec.blit_to_bytes buf (pos - block_overhead) out 0 (block_overhead + len);
        out

  (* A sealed page is encoded at the overlay's tail, from an 8-byte
     boundary: the overlay grows by the bytes of the pages sealed, not by
     their ids or a page size.  A frame the page had there before, or
     that a freed page leaves, is dead until the next rebase empties the
     overlay.  A page that can still change is kept as it is, and encoded
     only once it seals, or by the checkpoint that copies it into the
     next base. *)
  let write t id = function
    | Framed -> invalid_arg "Page_store.Mmap.write: a page is written decoded"
    | Decoded p ->
        Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.write" ~attrs:(page_attr id)
        @@ fun () ->
        Io_stats.record_write t.stats;
        Io_stats.record_mapped_write t.stats;
        if not (C.sealed p) then Page_id.Tbl.replace t.where id (Live p)
        else
          let align8 n = (n + 7) land lnot 7 in
          let off =
            Arena.append t.overlay ~room:(align8 t.page_size) (fun buf off ->
                align8 (block_overhead + encode_frame t buf off p))
          in
          Page_id.Tbl.replace t.where id (Overlay off)

  let free t id =
    Io_stats.record_free t.stats;
    Page_id.Tbl.remove t.where id;
    t.live <- t.live - 1

  let mem t id = Page_id.Tbl.mem t.where id
  let live_pages t = t.live

  let written_ids t =
    Page_id.Tbl.fold (fun id _ acc -> id :: acc) t.where []
    |> List.sort (fun a b -> compare (Page_id.to_int a) (Page_id.to_int b))

  let overlay_bytes t = Arena.used t.overlay

  let close t =
    Arena.close t.overlay;
    Arena.Image.release t.base

  (* --- Bases ------------------------------------------------------------------- *)

  type staged = {
    file : string;
    image : Arena.Image.t option; (* [None]: map [file] when committed *)
    offsets : loc Page_id.Tbl.t;
    mutable top : int; (* one past the highest id *)
  }

  let stage t ~file ?size () =
    (* A file that exists goes into one chunk of its size; one being
       written grows by chunks of 256 pages' room, so a RAM base never
       holds more than a chunk it does not use, and is never copied to
       grow. *)
    let ram () =
      t.map_base <- false;
      Some (Arena.Image.ram ~chunk:(Option.value size ~default:(256 * t.page_size)) ())
    in
    let image =
      if not t.map_base then ram ()
      else
        match size with
        | None -> None
        | Some _ -> (
            (* A file that exists is mapped now, so that where it cannot be
               the frames are copied as they stream past instead. *)
            match Arena.Image.map ~path:file with
            | img -> Some img
            | exception Arena.Unavailable _ when t.backing <> `Map -> ram ())
    in
    { file; image; offsets = Page_id.Tbl.create 1024; top = 0 }

  let stage_frame s id ~offset src ~pos ~len =
    (not (Page_id.Tbl.mem s.offsets id))
    && begin
         let off =
           match s.image with
           | Some img when not (Arena.Image.mapped img) ->
               Arena.Image.append img src ~pos ~len
           | _ -> offset
         in
         Page_id.Tbl.replace s.offsets id (Base off);
         s.top <- max s.top (Page_id.to_int id + 1);
         true
       end

  (* Mapping the new file is the one step that can fail, and it comes
     first: a failed rebase leaves the old base and the overlay, which
     together still hold every page.  The overlay is emptied, dead frames
     and all, best-effort: a file that will not shrink costs space, and
     is written again from its start. *)
  let rebase t s =
    let image =
      match s.image with Some img -> img | None -> Arena.Image.map ~path:s.file
    in
    (* The whole file is hinted once, when it is installed: a hint per
       fault costs a query more than it saves while the file sits in the
       page cache. *)
    if Arena.Image.mapped image then begin
      Arena.Image.willneed image;
      Io_stats.record_readaheads t.stats (Page_id.Tbl.length s.offsets)
    end;
    Arena.Image.release t.base;
    t.base <- image;
    t.base_path <- s.file;
    t.where <- s.offsets;
    t.live <- Page_id.Tbl.length s.offsets;
    t.next_id <- max t.next_id s.top;
    try Arena.reset t.overlay with Unix.Unix_error _ -> ()
end
