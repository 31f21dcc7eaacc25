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
  val sealed : Zcodec.buf -> int -> bool
  val length : Zcodec.buf -> int -> int
  val narrow : Zcodec.buf -> int -> Zcodec.buf -> int -> int
end

(* A page table: an int per page id, 0 for none, in chunks of 32 ids.
   A chunk is made when an id in it is first set and dropped when its
   last id is removed, and the chunks held are found by bisecting their
   ascending numbers: the table holds about a word per live page where
   ids are dense, a chunk per page at worst, and nothing for ids retired
   long ago or for one far past the rest in a snapshot. *)
module Table = struct
  let bits = 5
  let mask = (1 lsl bits) - 1

  type t = {
    mutable nums : int array; (* the chunks' numbers, ascending, in [0, n) *)
    mutable chunks : int array array;
    mutable held : int array; (* ids each chunk holds *)
    mutable n : int;
    mutable count : int;
  }

  let create () = { nums = [||]; chunks = [||]; held = [||]; n = 0; count = 0 }

  (* The index of chunk [c], or of where it would go. *)
  let seek t c =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get t.nums mid < c then lo := mid + 1 else hi := mid
    done;
    !lo

  let get t id =
    let c = id asr bits in
    let i = seek t c in
    if i < t.n && Array.unsafe_get t.nums i = c then
      Array.unsafe_get (Array.unsafe_get t.chunks i) (id land mask)
    else 0

  let set t id v =
    let c = id lsr bits in
    let i = seek t c in
    if not (i < t.n && t.nums.(i) = c) then begin
      if t.n = Array.length t.nums then begin
        let grow a fill = Array.append a (Array.make (max 8 t.n) fill) in
        t.nums <- grow t.nums 0;
        t.chunks <- grow t.chunks [||];
        t.held <- grow t.held 0
      end;
      let shift a = Array.blit a i a (i + 1) (t.n - i) in
      shift t.nums;
      shift t.chunks;
      shift t.held;
      t.nums.(i) <- c;
      t.chunks.(i) <- Array.make (mask + 1) 0;
      t.held.(i) <- 0;
      t.n <- t.n + 1
    end;
    let a = t.chunks.(i) in
    if a.(id land mask) = 0 then begin
      t.held.(i) <- t.held.(i) + 1;
      t.count <- t.count + 1
    end;
    a.(id land mask) <- v

  let remove t id =
    let c = id asr bits in
    let i = seek t c in
    if i < t.n && t.nums.(i) = c && t.chunks.(i).(id land mask) <> 0 then begin
      t.chunks.(i).(id land mask) <- 0;
      t.held.(i) <- t.held.(i) - 1;
      t.count <- t.count - 1;
      if t.held.(i) = 0 then begin
        let shift a = Array.blit a (i + 1) a i (t.n - i - 1) in
        shift t.nums;
        shift t.chunks;
        shift t.held;
        t.n <- t.n - 1;
        t.chunks.(t.n) <- [||]
      end
    end

  (* Ascending by id. *)
  let iter f t =
    for i = 0 to t.n - 1 do
      Array.iteri (fun j v -> if v <> 0 then f ((t.nums.(i) lsl bits) lor j) v) t.chunks.(i)
    done

  (* Where the id [id], if held, falls among the ids the chunks cover,
     in [0, 32 n); -1 if it is not held.  A bitmap over these places is
     as sparse as the table, for as long as no chunk is made or dropped. *)
  let place t id =
    let c = id asr bits in
    let i = seek t c in
    if i < t.n && t.nums.(i) = c && t.chunks.(i).(id land mask) <> 0 then
      (i lsl bits) lor (id land mask)
    else -1
end

module Mmap (C : PAGE_CODEC) = struct
  type payload = unit

  (* Where a page is, as one int of the page table: its frame at an
     offset of the base, the image of the committed checkpoint the store
     was last based on, or at an offset of the overlay if it was sealed
     since; or, written since and not sealed, in a RAM slot, edited in
     place. *)
  let base off = (off lsl 2) lor 1
  let overlay off = (off lsl 2) lor 2
  let slot s = (s lsl 2) lor 3
  let[@inline] kind loc = loc land 3
  let[@inline] at loc = loc lsr 2

  type t = {
    overlay : Arena.t;
    slots : Arena.Slots.t;
    path : string;
    page_size : int;
    backing : [ `Auto | `Map | `Buffered ];
    mutable map_base : bool; (* bases are mapped files, not RAM images *)
    mutable base : Arena.Image.t;
    mutable base_path : string;
    mutable table : Table.t;
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
     cannot read out of bounds.  A slot holds a payload alone, from its
     first byte: it is never written out as it is. *)
  let block_overhead = 8

  let create ?(stats = Io_stats.create ()) ?(page_size = 4096)
      ?(tracer = Telemetry.Tracer.noop) ?(backing = `Auto) ~path () =
    if page_size < 32 + block_overhead then
      invalid_arg "Page_store.Mmap: page_size too small";
    let overlay = Arena.create ~backing ~chunk:(64 * page_size) ~path () in
    { overlay; slots = Arena.Slots.create ~size:page_size (); path; page_size; backing;
      map_base = Arena.backing overlay = `Map; base = Arena.Image.empty ();
      base_path = path; table = Table.create (); next_id = 0; live = 0; stats; tracer }

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
    let loc = Table.get t.table (Page_id.to_int id) in
    if loc = 0 then raise Not_found;
    loc

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

  (* The payload of the page at [loc], as [(buf, off, len)]: a slot's as
     it stands, a frame's with its CRC checked — on every call, not once
     per fault: a mapped base shows the file's current bytes, so a frame
     the pool has held since it was verified can have rotted since, and
     a scan of it must fail as a fault would.  The buffer is fetched
     afresh on every call: a mapped overlay's is replaced when it grows,
     and a rebase releases the base's. *)
  let located t id loc =
    if kind loc = 3 then begin
      let buf, off = Arena.Slots.locate t.slots (at loc) in
      (buf, off, C.length buf off)
    end
    else begin
      let (buf, off), path =
        if kind loc = 1 then (Arena.Image.locate t.base (at loc), t.base_path)
        else (Arena.locate t.overlay (at loc), t.path)
      in
      let len = frame_len t buf off ~path id in
      let pos = off + block_overhead in
      if Zcodec.crc32 buf ~pos ~len <> Zcodec.get_i32 buf (off + 4) land 0xFFFFFFFF then begin
        Io_stats.record_crc_failure t.stats;
        raise (Corrupt_page { path; page = id })
      end;
      (buf, pos, len)
    end

  (* One charged page read.  Still one logical page transfer — the
     quantity the cost model and the Theorem-1/2 bound checker count —
     even though no syscall runs, and even for a page in a slot;
     [mapped_reads] isolates the zero-copy share. *)
  let charged t id f =
    let loc = find t id in
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.read" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_read t.stats;
    Io_stats.record_mapped_read t.stats;
    f loc

  let read t id = charged t id @@ fun loc -> if kind loc <> 3 then ignore (located t id loc)

  (* Not charged: the read that made the page resident was. *)
  let frame t id = located t id (find t id)

  let fresh t id =
    let id = Page_id.to_int id in
    if id >= t.next_id || Table.get t.table id <> 0 then
      invalid_arg "Page_store.Mmap.fresh: not a new page";
    let s = Arena.Slots.alloc t.slots in
    Table.set t.table id (slot s);
    Arena.Slots.locate t.slots s

  let edit t id ~widen =
    let loc = find t id in
    if kind loc = 3 then Arena.Slots.locate t.slots (at loc)
    else begin
      let buf, pos, len = located t id loc in
      let s = Arena.Slots.alloc t.slots in
      let dst, off = Arena.Slots.locate t.slots s in
      (match widen buf pos len dst off with
      | () -> ()
      | exception e ->
          Arena.Slots.free t.slots s;
          raise e);
      Table.set t.table (Page_id.to_int id) (slot s);
      (dst, off)
    end

  (* Narrow the page in slot [s] into a frame at [off] of [buf], which
     has room for a page. *)
  let seal_into t s buf off =
    let src, src_off = Arena.Slots.locate t.slots s in
    let len = C.narrow src src_off buf (off + block_overhead) in
    if len > t.page_size - block_overhead then
      invalid_arg "Page_store.Mmap: a sealed page outgrew its room";
    Zcodec.set_i32 buf off len;
    Zcodec.set_i32 buf (off + 4) (Zcodec.crc32 buf ~pos:(off + block_overhead) ~len);
    len

  let read_frame t id =
    charged t id @@ fun loc ->
    if kind loc = 3 then begin
      let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout t.page_size in
      let len = seal_into t (at loc) buf 0 in
      let out = Bytes.create (block_overhead + len) in
      Zcodec.blit_to_bytes buf 0 out 0 (block_overhead + len);
      out
    end
    else begin
      let buf, pos, len = located t id loc in
      let out = Bytes.create (block_overhead + len) in
      Zcodec.blit_to_bytes buf (pos - block_overhead) out 0 (block_overhead + len);
      out
    end

  (* A page in a slot that has sealed is narrowed to the overlay's tail,
     from an 8-byte boundary, and its slot freed: the overlay grows by the
     bytes of the pages sealed, not by their ids or a page size.  A frame
     the page had there before, or that a freed page leaves, is dead
     until the next rebase empties the overlay.  A page that can still
     change stays in its slot, and is narrowed only once it seals, or by
     the checkpoint that copies it into the next base. *)
  let write t id () =
    Telemetry.Tracer.with_span t.tracer ~level:`Debug "page.write" ~attrs:(page_attr id)
    @@ fun () ->
    Io_stats.record_write t.stats;
    Io_stats.record_mapped_write t.stats;
    let loc = Table.get t.table (Page_id.to_int id) in
    if kind loc = 3 then begin
      let src, src_off = Arena.Slots.locate t.slots (at loc) in
      if C.sealed src src_off then begin
        let align8 n = (n + 7) land lnot 7 in
        let off =
          Arena.append t.overlay ~room:(align8 t.page_size) (fun buf off ->
              align8 (block_overhead + seal_into t (at loc) buf off))
        in
        Arena.Slots.free t.slots (at loc);
        Table.set t.table (Page_id.to_int id) (overlay off)
      end
    end

  let free t id =
    Io_stats.record_free t.stats;
    let loc = Table.get t.table (Page_id.to_int id) in
    if kind loc = 3 then Arena.Slots.free t.slots (at loc);
    Table.remove t.table (Page_id.to_int id);
    t.live <- t.live - 1

  let mem t id = Table.get t.table (Page_id.to_int id) <> 0
  let live_pages t = t.live

  let iter_ids t f = Table.iter (fun id _ -> f (Page_id.of_int id)) t.table

  (* A bit for each id the table's chunks cover, in the table's own
     places. *)
  type marks = { covered : Table.t; bits : Bytes.t }

  let marks t =
    { covered = t.table; bits = Bytes.make (((t.table.n lsl Table.bits) + 7) / 8) '\000' }

  let mark m id =
    let p = Table.place m.covered (Page_id.to_int id) in
    if p < 0 then raise Not_found;
    let byte = Char.code (Bytes.get m.bits (p lsr 3)) and bit = 1 lsl (p land 7) in
    byte land bit = 0
    && begin
         Bytes.set m.bits (p lsr 3) (Char.chr (byte lor bit));
         true
       end

  let marked m id =
    let p = Table.place m.covered (Page_id.to_int id) in
    p >= 0 && Char.code (Bytes.get m.bits (p lsr 3)) land (1 lsl (p land 7)) <> 0

  let overlay_bytes t = Arena.used t.overlay
  let slots_used t = Arena.Slots.used t.slots

  let close t =
    Arena.close t.overlay;
    Arena.Slots.release t.slots;
    Arena.Image.release t.base

  (* --- Bases ------------------------------------------------------------------- *)

  type staged = {
    file : string;
    image : Arena.Image.t option; (* [None]: map [file] when committed *)
    offsets : Table.t;
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
    { file; image; offsets = Table.create (); top = 0 }

  let stage_frame s id ~offset src ~pos ~len =
    let id = Page_id.to_int id in
    Table.get s.offsets id = 0
    && begin
         let off =
           match s.image with
           | Some img when not (Arena.Image.mapped img) ->
               Arena.Image.append img src ~pos ~len
           | _ -> offset
         in
         Table.set s.offsets id (base off);
         s.top <- max s.top (id + 1);
         true
       end

  (* Mapping the new file is the one step that can fail, and it comes
     first: a failed rebase leaves the old base, the overlay and the
     slots, which together still hold every page.  The overlay is
     emptied, dead frames and all, best-effort: a file that will not
     shrink costs space, and is written again from its start.  The slots
     go too: every page they held is in the new base, or left out of
     it. *)
  let rebase t s =
    let image =
      match s.image with Some img -> img | None -> Arena.Image.map ~path:s.file
    in
    (* The whole file is hinted once, when it is installed: a hint per
       fault costs a query more than it saves while the file sits in the
       page cache. *)
    if Arena.Image.mapped image then begin
      Arena.Image.willneed image;
      Io_stats.record_readaheads t.stats s.offsets.count
    end;
    Arena.Image.release t.base;
    t.base <- image;
    t.base_path <- s.file;
    t.table <- s.offsets;
    t.live <- s.offsets.count;
    t.next_id <- max t.next_id s.top;
    Arena.Slots.release t.slots;
    try Arena.reset t.overlay with Unix.Unix_error _ -> ()
end
