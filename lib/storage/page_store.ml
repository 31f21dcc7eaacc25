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

  val prefetch : t -> Page_id.t list -> unit
  (** Advisory: hint that these pages are about to be read.  No-op for
      {!Mem}, which has nothing to warm; {!Mmap} forwards the hint to the
      kernel.  Never charged as I/O. *)
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
  let prefetch _ _ = ()

  let ids t =
    Page_id.Tbl.fold (fun id _ acc -> id :: acc) t.pages []
    |> List.sort (fun a b -> Int.compare (Page_id.to_int a) (Page_id.to_int b))

  let reserve t ~next = if next > t.next_id then t.next_id <- next

  let install t id payload =
    if not (Page_id.Tbl.mem t.pages id) then t.live <- t.live + 1;
    Page_id.Tbl.replace t.pages id payload;
    reserve t ~next:(Page_id.to_int id + 1)
end

module type PAGE_CODEC = sig
  type t

  val encode : Zcodec.Writer.t -> t -> unit
  val decode : Zcodec.Reader.t -> t
end

module Mmap (C : PAGE_CODEC) = struct
  type payload = C.t

  (* Where a page's frame is: at an offset of the base, the image of the
     committed checkpoint the store was last based on, or in a slot of
     the overlay if the page was written since. *)
  type loc = Base of int | Slot of int

  type t = {
    overlay : Arena.t;
    path : string;
    page_size : int;
    backing : [ `Auto | `Map | `Buffered ];
    mutable map_base : bool; (* bases are mapped files, not RAM images *)
    mutable base : Arena.Image.t;
    mutable base_path : string;
    mutable where : loc Page_id.Tbl.t;
    mutable free_slots : int list;
    mutable slots : int; (* overlay slots handed out since the last rebase *)
    mutable next_id : int;
    mutable live : int;
    stats : Io_stats.t;
    tracer : Telemetry.Tracer.t;
  }

  (* A frame, in a base or an overlay slot, is framed so bit-rot anywhere
     is detected at read time, not silently decoded — the frame of WAL
     records and checkpoint chunks:

       | len 4B | crc 4B | payload (len bytes) |

     An overlay slot is [page_size] bytes, the frame then padding.  The
     CRC covers the payload only; [len] is validated against the block
     and the buffer before the checksum runs, so a corrupt length cannot
     read out of bounds. *)
  let block_overhead = 8

  let create ?(stats = Io_stats.create ()) ?(page_size = 4096)
      ?(tracer = Telemetry.Tracer.noop) ?(backing = `Auto) ~path () =
    if page_size < 32 + block_overhead then
      invalid_arg "Page_store.Mmap: page_size too small";
    let overlay = Arena.create ~backing ~block_size:page_size ~path () in
    { overlay; path; page_size; backing; map_base = Arena.backing overlay = `Map;
      base = Arena.Image.empty (); base_path = path; where = Page_id.Tbl.create 1024;
      free_slots = []; slots = 0; next_id = 0; live = 0; stats; tracer }

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

  (* One charged page read: the buffer, the frame's offset in it
     (CRC-checked) and its payload length. *)
  let read_checked t id =
    let buf, off, path =
      match Page_id.Tbl.find_opt t.where id with
      | None -> raise Not_found
      | Some (Base off) -> (Arena.Image.buffer t.base, off, t.base_path)
      | Some (Slot s) -> (Arena.buffer t.overlay, s * t.page_size, t.path)
    in
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.read" ~attrs:(page_attr id)
    @@ fun () ->
    (* Still one logical page transfer — the quantity the cost model and
       the Theorem-1/2 bound checker count — even though no syscall runs;
       [mapped_reads] isolates the zero-copy share. *)
    Io_stats.record_read t.stats;
    Io_stats.record_mapped_read t.stats;
    let room = Bigarray.Array1.dim buf - off - block_overhead in
    let len = if room < 0 then -1 else Zcodec.get_i32 buf off in
    if
      len < 0
      || len > min room (t.page_size - block_overhead)
      || Zcodec.crc32 buf ~pos:(off + block_overhead) ~len
         <> Zcodec.get_i32 buf (off + 4) land 0xFFFFFFFF
    then begin
      Io_stats.record_crc_failure t.stats;
      raise (Corrupt_page { path; page = id })
    end;
    (buf, off, len)

  let read t id =
    let buf, off, len = read_checked t id in
    C.decode (Zcodec.Reader.create buf ~off:(off + block_overhead) ~len)

  let read_frame t id =
    let buf, off, len = read_checked t id in
    let out = Bytes.create (block_overhead + len) in
    Zcodec.blit_to_bytes buf off out 0 (block_overhead + len);
    out

  (* A page written since the last rebase keeps its overlay slot; a page
     written for the first time takes a freed slot or the next one, so
     the overlay grows with the pages written, not with their ids. *)
  let write t id payload =
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.write" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_write t.stats;
    Io_stats.record_mapped_write t.stats;
    let slot =
      match (Page_id.Tbl.find_opt t.where id, t.free_slots) with
      | Some (Slot s), _ -> s
      | _, s :: rest ->
          t.free_slots <- rest;
          s
      | _, [] ->
          t.slots <- t.slots + 1;
          t.slots - 1
    in
    Arena.ensure t.overlay ~blocks:(slot + 1);
    let buf = Arena.buffer t.overlay and off = slot * t.page_size in
    let w =
      Zcodec.Writer.create buf ~off:(off + block_overhead) ~len:(t.page_size - block_overhead)
    in
    C.encode w payload;
    let len = Zcodec.Writer.pos w in
    Zcodec.set_i32 buf off len;
    Zcodec.set_i32 buf (off + 4) (Zcodec.crc32 buf ~pos:(off + block_overhead) ~len);
    Page_id.Tbl.replace t.where id (Slot slot)

  let free t id =
    Io_stats.record_free t.stats;
    (match Page_id.Tbl.find_opt t.where id with
    | Some (Slot s) -> t.free_slots <- s :: t.free_slots
    | Some (Base _) | None -> ());
    Page_id.Tbl.remove t.where id;
    t.live <- t.live - 1

  let mem t id = Page_id.Tbl.mem t.where id
  let live_pages t = t.live

  let written_ids t =
    Page_id.Tbl.fold (fun id _ acc -> id :: acc) t.where []
    |> List.sort (fun a b -> compare (Page_id.to_int a) (Page_id.to_int b))

  (* A base frame's length is not known without touching it, so the hint
     covers a block's worth. *)
  let prefetch t ids =
    List.iter
      (fun id ->
        match Page_id.Tbl.find_opt t.where id with
        | Some (Slot s) -> Arena.willneed t.overlay ~block:s ~count:1
        | Some (Base off) -> Arena.Image.willneed t.base ~off ~len:t.page_size
        | None -> ())
      ids

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
    let ram () =
      t.map_base <- false;
      Some (Arena.Image.ram ?capacity:size ())
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
     together still hold every page.  The overlay is emptied best-effort:
     a file that will not shrink costs space, and its slots are handed
     out again from the first. *)
  let rebase t s =
    let image =
      match s.image with Some img -> img | None -> Arena.Image.map ~path:s.file
    in
    Arena.Image.release t.base;
    t.base <- image;
    t.base_path <- s.file;
    t.where <- s.offsets;
    t.live <- Page_id.Tbl.length s.offsets;
    t.next_id <- max t.next_id s.top;
    t.free_slots <- [];
    t.slots <- 0;
    try Arena.reset t.overlay with Unix.Unix_error _ -> ()
end
