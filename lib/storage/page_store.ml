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

  type t = {
    arena : Arena.t;
    path : string;
    page_size : int;
    mutable next_id : int;
    written : unit Page_id.Tbl.t;
    mutable live : int;
    stats : Io_stats.t;
    tracer : Telemetry.Tracer.t;
  }

  (* Page [id] occupies block [id], framed so bit-rot anywhere in the
     file is detected at read time, not silently decoded — the frame of
     WAL records and checkpoint chunks:

       offset 0        4        8                      page_size
              | len 4B | crc 4B | payload (len bytes) | padding |

     The CRC covers the payload only; [len] is validated against the block
     geometry before the checksum runs, so a corrupt length cannot read
     out of bounds. *)
  let block_overhead = 8

  let create ?(stats = Io_stats.create ()) ?(page_size = 4096)
      ?(tracer = Telemetry.Tracer.noop) ?(backing = `Auto) ~path () =
    if page_size < 32 + block_overhead then
      invalid_arg "Page_store.Mmap: page_size too small";
    { arena = Arena.create ~backing ~block_size:page_size ~path ();
      path; page_size; next_id = 0; written = Page_id.Tbl.create 1024; live = 0;
      stats; tracer }

  let stats t = t.stats
  let page_size t = t.page_size
  let backing t = Arena.backing t.arena

  (* As in {!Mem}: ids are never reused. *)
  let alloc t =
    Io_stats.record_alloc t.stats;
    t.live <- t.live + 1;
    let id = Page_id.of_int t.next_id in
    t.next_id <- t.next_id + 1;
    id

  let offset t id = Page_id.to_int id * t.page_size

  let page_attr id () = [ ("page", Telemetry.Tracer.Int (Page_id.to_int id)) ]

  (* One charged page read: the mapping, the frame's offset in it
     (CRC-checked) and its payload length. *)
  let read_checked t id =
    if not (Page_id.Tbl.mem t.written id) then raise Not_found;
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.read" ~attrs:(page_attr id)
    @@ fun () ->
    (* Still one logical page transfer — the quantity the cost model and
       the Theorem-1/2 bound checker count — even though no syscall runs;
       [mapped_reads] isolates the zero-copy share. *)
    Io_stats.record_read t.stats;
    Io_stats.record_mapped_read t.stats;
    let buf = Arena.buffer t.arena in
    let off = offset t id in
    let len = Zcodec.get_i32 buf off in
    if
      len < 0
      || len > t.page_size - block_overhead
      || Zcodec.crc32 buf ~pos:(off + block_overhead) ~len
         <> Zcodec.get_i32 buf (off + 4) land 0xFFFFFFFF
    then begin
      Io_stats.record_crc_failure t.stats;
      raise (Corrupt_page { path = t.path; page = id })
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

  (* One charged page write: [fill] puts the frame into the block at the
     offset it is given. *)
  let write_framed t id fill =
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.write" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_write t.stats;
    Io_stats.record_mapped_write t.stats;
    Arena.ensure t.arena ~blocks:(Page_id.to_int id + 1);
    fill (Arena.buffer t.arena) (offset t id);
    Page_id.Tbl.replace t.written id ()

  let write t id payload =
    write_framed t id @@ fun buf off ->
    let w =
      Zcodec.Writer.create buf ~off:(off + block_overhead) ~len:(t.page_size - block_overhead)
    in
    C.encode w payload;
    let len = Zcodec.Writer.pos w in
    Zcodec.set_i32 buf off len;
    Zcodec.set_i32 buf (off + 4) (Zcodec.crc32 buf ~pos:(off + block_overhead) ~len)

  let free t id =
    Io_stats.record_free t.stats;
    Page_id.Tbl.remove t.written id;
    t.live <- t.live - 1

  let mem t id = Page_id.Tbl.mem t.written id
  let live_pages t = t.live

  let written_ids t =
    Page_id.Tbl.fold (fun id () acc -> id :: acc) t.written []
    |> List.sort (fun a b -> compare (Page_id.to_int a) (Page_id.to_int b))

  let prefetch t ids =
    List.iter
      (fun id ->
        if Page_id.Tbl.mem t.written id then
          Arena.willneed t.arena ~block:(Page_id.to_int id) ~count:1)
      ids

  let close t = Arena.close t.arena
  let file_size_bytes t = t.next_id * t.page_size

  (* Install a frame under an explicit id — building a page file from a
     checkpoint.  Unlike {!Mem.install} the physical write is real and
     charged; what is skipped is the alloc (the id was allocated in a
     previous life and must stay fixed).  The frame was not built here,
     so the bound an encoder would have hit is enforced; its CRC is the
     caller's to have verified. *)
  let install_raw t id src ~pos ~len =
    if
      len < block_overhead
      || len > t.page_size
      || Int32.to_int (Bytes.get_int32_le src pos) <> len - block_overhead
    then
      raise
        (Codec.Overflow
           (Printf.sprintf
              "Page_store.Mmap.install_raw: a %d-byte frame does not fit a %d-byte block"
              len t.page_size));
    if not (Page_id.Tbl.mem t.written id) then t.live <- t.live + 1;
    write_framed t id (fun buf off -> Zcodec.blit_of_bytes src pos buf off len);
    if Page_id.to_int id + 1 > t.next_id then t.next_id <- Page_id.to_int id + 1
end
