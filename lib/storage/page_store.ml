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

(* Freed page ids are persisted to a small sidecar ([path ^ ".free"],
   CRC-framed, rewritten atomically on every [sync] and on [close]) so a
   reopen does not resurrect pages freed before the restart.  The sidecar
   is a hint, not a ledger: if it is stale (crash after frees but before
   the next sync) or torn, reopen degrades {e conservatively} — some
   freed pages come back as written and [live_pages] overcounts — but a
   reopen after a clean [sync]/[close] restores liveness exactly. *)
module Freed_sidecar = struct
  let magic = "PGSTFREE"
  let path_of path = path ^ ".free"

  let save ~vfs ~path freed =
    let n = Page_id.Tbl.length freed in
    let len = String.length magic + 4 + (n * 8) in
    let w = Codec.Writer.create (len + 4) in
    String.iter (fun ch -> Codec.Writer.u8 w (Char.code ch)) magic;
    Codec.Writer.i32 w n;
    Page_id.Tbl.iter (fun id () -> Codec.Writer.i64 w (Page_id.to_int id)) freed;
    let buf = Codec.Writer.contents w in
    (* Unsigned 32-bit CRC: splice raw rather than through Writer.i32. *)
    Bytes.set_int32_le buf len (Int32.of_int (Codec.crc32 buf ~pos:0 ~len));
    Vfs.write_file_atomic vfs ~path:(path_of path) buf ~len:(len + 4)

  let load ~vfs ~path =
    let freed = Page_id.Tbl.create 64 in
    let file = path_of path in
    (try
       let buf = Vfs.read_file vfs file in
       let size = Bytes.length buf in
       let rd = Codec.Reader.create buf in
       let got_magic =
         String.init (String.length magic) (fun _ -> Char.chr (Codec.Reader.u8 rd))
       in
       let n = Codec.Reader.i32 rd in
       let payload = String.length magic + 4 + (n * 8) in
       if got_magic <> magic || n < 0 || size <> payload + 4 then raise Exit;
       let ids = List.init n (fun _ -> Codec.Reader.i64 rd) in
       let crc = Codec.Reader.i32 rd land 0xFFFFFFFF in
       if Codec.crc32 buf ~pos:0 ~len:payload <> crc then raise Exit;
       List.iter (fun id -> Page_id.Tbl.replace freed (Page_id.of_int id) ()) ids
     with _ -> Page_id.Tbl.reset freed (* absent or torn: conservative *));
    freed

  let remove ~vfs ~path =
    try vfs.Vfs.v_remove (path_of path)
    with Sys_error _ | Storage_error.Io _ -> ()
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
    vfs : Vfs.t;
    path : string;
    page_size : int;
    mutable next_id : int;
    mutable committed_next_id : int;
    written : unit Page_id.Tbl.t;
    freed : unit Page_id.Tbl.t;
    mutable live : int;
    stats : Io_stats.t;
    tracer : Telemetry.Tracer.t;
  }

  (* Block 0 of the file is a CRC-framed header; page [id] occupies
     block [1 + id], framed so bit-rot anywhere in the file is detected
     at read time, not silently decoded:

       offset 0        4        8                      page_size
              | len 4B | crc 4B | payload (len bytes) | padding |

     The CRC covers the payload only; [len] is validated against the block
     geometry before the checksum runs, so a corrupt length cannot read
     out of bounds.  The arena grows by doubling, so the file's physical
     length runs ahead of the used prefix; the header therefore carries
     the committed page count, rewritten on every {!sync} ({e after} the
     data ranges are flushed — a crash between the two leaves the old
     header pointing at the old, fully-flushed prefix). *)
  let block_overhead = 8
  let header_magic = "PGSTORM1"
  let header_payload_bytes = String.length header_magic + 4 + 8

  let write_header t =
    let buf = Arena.buffer t.arena in
    let w = Zcodec.Writer.create buf ~off:8 ~len:(t.page_size - 8) in
    String.iter (fun ch -> Zcodec.Writer.u8 w (Char.code ch)) header_magic;
    Zcodec.Writer.i32 w t.page_size;
    Zcodec.Writer.i64 w t.next_id;
    Zcodec.set_i32 buf 0 header_payload_bytes;
    Zcodec.set_i32 buf 4 (Zcodec.crc32 buf ~pos:8 ~len:header_payload_bytes);
    Arena.mark_dirty t.arena ~block:0

  let read_header arena ~page_size ~path =
    let buf = Arena.buffer arena in
    if Bigarray.Array1.dim buf < page_size then
      failwith "Page_store.Mmap: truncated header";
    let len = Zcodec.get_i32 buf 0 in
    let crc = Zcodec.get_i32 buf 4 land 0xFFFFFFFF in
    if len <> header_payload_bytes then failwith "Page_store.Mmap: bad header length";
    if Zcodec.crc32 buf ~pos:8 ~len <> crc then
      failwith "Page_store.Mmap: header checksum mismatch";
    let rd = Zcodec.Reader.create buf ~off:8 ~len in
    let magic =
      String.init (String.length header_magic) (fun _ -> Char.chr (Zcodec.Reader.u8 rd))
    in
    if magic <> header_magic then failwith "Page_store.Mmap: bad header magic";
    let stored = Zcodec.Reader.i32 rd in
    if stored <> page_size then
      failwith
        (Printf.sprintf "Page_store.Mmap: page size mismatch (file has %d, asked for %d)"
           stored page_size);
    let next_id = Zcodec.Reader.i64 rd in
    if next_id < 0 then failwith (Printf.sprintf "Page_store.Mmap: bad page count in %s" path);
    next_id

  let create ?(stats = Io_stats.create ()) ?(page_size = 4096) ?(mode = `Create)
      ?(vfs = Vfs.os) ?(tracer = Telemetry.Tracer.noop) ?(backing = `Auto) ~path () =
    if page_size < 32 + block_overhead then
      invalid_arg "Page_store.Mmap: page_size too small";
    (* A reopen maps the file as it is, so a foreign or mismatched file is
       rejected below before anything can extend it. *)
    let arena = Arena.create ~vfs ~backing ~block_size:page_size ~path ~mode () in
    match mode with
    | `Create ->
        let t =
          { arena; vfs; path; page_size; next_id = 0; committed_next_id = 0;
            written = Page_id.Tbl.create 1024; freed = Page_id.Tbl.create 64; live = 0;
            stats; tracer }
        in
        Freed_sidecar.remove ~vfs ~path;
        write_header t;
        Arena.sync arena;
        t
    | `Reopen ->
        let next_id =
          try read_header arena ~page_size ~path
          with e ->
            Arena.close arena;
            raise e
        in
        let freed = Freed_sidecar.load ~vfs ~path in
        (* Ids at or past next_id were not committed; drop them so the
           sidecar of a longer previous incarnation cannot mask new pages. *)
        Page_id.Tbl.fold
          (fun id () acc -> if Page_id.to_int id >= next_id then id :: acc else acc)
          freed []
        |> List.iter (Page_id.Tbl.remove freed);
        let written = Page_id.Tbl.create 1024 in
        for i = 0 to next_id - 1 do
          let id = Page_id.of_int i in
          if not (Page_id.Tbl.mem freed id) then Page_id.Tbl.replace written id ()
        done;
        { arena; vfs; path; page_size; next_id; committed_next_id = next_id; written;
          freed; live = Page_id.Tbl.length written; stats; tracer }

  let stats t = t.stats
  let page_size t = t.page_size
  let backing t = Arena.backing t.arena
  let remaps t = Arena.remaps t.arena

  (* As in {!Mem}: ids are never reused. *)
  let alloc t =
    Io_stats.record_alloc t.stats;
    t.live <- t.live + 1;
    let id = Page_id.of_int t.next_id in
    t.next_id <- t.next_id + 1;
    id

  let block_of id = 1 + Page_id.to_int id
  let offset t id = block_of id * t.page_size

  let check_block t buf ~off =
    (* A committed id whose block lies beyond the mapped capacity (file
       truncated out from under the header) is corruption, not a codec
       range error. *)
    if off < 0 || off + t.page_size > Bigarray.Array1.dim buf then false
    else
      let len = Zcodec.get_i32 buf off in
      if len < 0 || len > t.page_size - block_overhead then false
      else
        let crc = Zcodec.get_i32 buf (off + 4) land 0xFFFFFFFF in
        Zcodec.crc32 buf ~pos:(off + block_overhead) ~len = crc

  let page_attr id () = [ ("page", Telemetry.Tracer.Int (Page_id.to_int id)) ]

  (* One charged page read: the mapping, the payload's offset in it
     (CRC-checked) and its length. *)
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
    if not (check_block t buf ~off) then begin
      Io_stats.record_crc_failure t.stats;
      raise (Corrupt_page { path = t.path; page = id })
    end;
    (buf, off + block_overhead, Zcodec.get_i32 buf off)

  let read t id =
    let buf, off, len = read_checked t id in
    C.decode (Zcodec.Reader.create buf ~off ~len)

  let read_payload t id =
    let buf, off, len = read_checked t id in
    let out = Bytes.create len in
    Zcodec.blit_to_bytes buf off out 0 len;
    out

  (* One charged page write: [fill] puts the payload after the block's
     frame and returns its length; the frame and dirty mark follow. *)
  let write_framed t id fill =
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.write" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_write t.stats;
    Io_stats.record_mapped_write t.stats;
    Arena.ensure t.arena ~blocks:(block_of id + 1);
    let buf = Arena.buffer t.arena in
    let off = offset t id in
    let len = fill buf (off + block_overhead) in
    Zcodec.set_i32 buf off len;
    Zcodec.set_i32 buf (off + 4) (Zcodec.crc32 buf ~pos:(off + block_overhead) ~len);
    Arena.mark_dirty t.arena ~block:(block_of id);
    Page_id.Tbl.remove t.freed id;
    Page_id.Tbl.replace t.written id ()

  let write t id payload =
    write_framed t id @@ fun buf off ->
    let w = Zcodec.Writer.create buf ~off ~len:(t.page_size - block_overhead) in
    C.encode w payload;
    Zcodec.Writer.pos w

  let read_block t id =
    let buf = Bytes.create t.page_size in
    Zcodec.blit_to_bytes (Arena.buffer t.arena) (offset t id) buf 0 t.page_size;
    buf

  let write_block t id buf =
    if Bytes.length buf <> t.page_size then
      invalid_arg "Page_store.Mmap: write_block needs exactly one page";
    Arena.ensure t.arena ~blocks:(block_of id + 1);
    Zcodec.blit_of_bytes buf 0 (Arena.buffer t.arena) (offset t id) t.page_size;
    Arena.mark_dirty t.arena ~block:(block_of id)

  let verify t id =
    if not (Page_id.Tbl.mem t.written id) then raise Not_found;
    let ok = check_block t (Arena.buffer t.arena) ~off:(offset t id) in
    if not ok then Io_stats.record_crc_failure t.stats;
    ok

  (* The page-disposal "punch": besides retiring the id, the block's
     frame is zeroed in the mapping so a disposed page cannot be
     resurrected by a stale sidecar into decodable-looking bytes — a
     resurrected zeroed block fails its CRC frame loudly instead. *)
  let free t id =
    Io_stats.record_free t.stats;
    Page_id.Tbl.remove t.written id;
    Page_id.Tbl.replace t.freed id ();
    t.live <- t.live - 1;
    if block_of id < Arena.capacity_blocks t.arena then begin
      let buf = Arena.buffer t.arena in
      let off = offset t id in
      Zcodec.set_i32 buf off (-1) (* an invalid length: never CRC-valid *);
      Zcodec.set_i32 buf (off + 4) 0;
      Arena.mark_dirty t.arena ~block:(block_of id)
    end

  let mem t id = Page_id.Tbl.mem t.written id
  let live_pages t = t.live

  let written_ids t =
    Page_id.Tbl.fold (fun id () acc -> id :: acc) t.written []
    |> List.sort (fun a b -> compare (Page_id.to_int a) (Page_id.to_int b))

  (* Durability order: data ranges first, then the header naming the new
     committed prefix, then the freed sidecar.  A crash after the first
     barrier but before the second leaves the old header over fully
     flushed data — the reopened store just sees the shorter committed
     prefix, which recovery replay rewrites. *)
  let sync t =
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.sync" @@ fun () ->
    Io_stats.record_sync t.stats;
    let before = Arena.msync_ranges t.arena in
    Arena.sync t.arena;
    if t.committed_next_id <> t.next_id then begin
      write_header t;
      Arena.sync t.arena;
      t.committed_next_id <- t.next_id
    end;
    Io_stats.record_msync_ranges t.stats (Arena.msync_ranges t.arena - before);
    Freed_sidecar.save ~vfs:t.vfs ~path:t.path t.freed

  let prefetch t ids =
    List.iter
      (fun id ->
        if Page_id.Tbl.mem t.written id then
          Arena.willneed t.arena ~block:(block_of id) ~count:1)
      ids

  let close t =
    (try Freed_sidecar.save ~vfs:t.vfs ~path:t.path t.freed with _ -> ());
    Arena.close t.arena

  let file_size_bytes t = (1 + t.next_id) * t.page_size
  let mapped_capacity_bytes t = Arena.file_size_bytes t.arena

  (* Install an encoded page under an explicit id — building a page file
     from a snapshot.  Unlike {!Mem.install} the physical write is real
     and charged; what is skipped is the alloc (the id was allocated in a
     previous life and must stay fixed).  The bytes were not encoded
     here, so the bound an encoder would have hit is enforced. *)
  let install_raw t id src ~pos ~len =
    if len < 0 || len > t.page_size - block_overhead then
      raise
        (Codec.Overflow
           (Printf.sprintf
              "Page_store.Mmap.install_raw: %d-byte payload does not fit a %d-byte block"
              len t.page_size));
    let fresh = not (Page_id.Tbl.mem t.written id) in
    write_framed t id (fun buf off ->
        Zcodec.blit_of_bytes src pos buf off len;
        len);
    if fresh then t.live <- t.live + 1;
    if Page_id.to_int id + 1 > t.next_id then t.next_id <- Page_id.to_int id + 1
end
