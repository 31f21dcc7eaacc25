let forever = max_int

(* Raised (not returned) so the refusal propagates through every query
   entry point — point query, dominance sum, wire handler — without
   widening each return type; callers that can answer it catch it. *)
exception Below_horizon of { at : int; horizon : int }

(* A stored page whose bytes its layout cannot read: only a frame built
   outside the program, its CRC intact, can raise it. *)
exception Malformed_frame of { page : int; detail : string }

let () =
  Printexc.register_printer (function
    | Malformed_frame { page; detail } ->
        Some (Printf.sprintf "Mvsbt.Malformed_frame: page %d: %s" page detail)
    | _ -> None)

type variant = Plain | Logical

type config = {
  b : int;
  f : float;
  variant : variant;
  merging : bool;
  disposal : bool;
  root_star_btree : bool;
}

let default_config ~b =
  { b; f = 0.9; variant = Logical; merging = true; disposal = true;
    root_star_btree = false }

(* Checkpoint files: a magic naming the format, then chunks framed
   [len u32][crc32 u32][payload] — the frame of WAL records and page
   blocks.  Chunks are written with one [f_append] for the frame header
   and one for the payload, so [Vfs.Memory] journals each as a disk
   operation.  The reader streams through one buffer, refilled by large
   preads and grown only for a chunk larger than itself, so reading never
   holds more than a buffer of the file. *)
module Chunks = struct
  let frame_bytes = 8
  let max_len = 1 lsl 30 (* of a payload: a length past it is corrupt *)

  let writer n =
    let w = Storage.Codec.Writer.create (frame_bytes + n) in
    Storage.Codec.Writer.i64 w 0;
    w

  let append_frame out buf =
    let len = Bytes.length buf - frame_bytes in
    out.Storage.Vfs.f_append buf 0 frame_bytes;
    out.Storage.Vfs.f_append buf frame_bytes len

  (* Fill in the header of the frame whose [len]-byte payload follows it
     in [buf]. *)
  let seal buf ~len =
    Bytes.set_int32_le buf 0 (Int32.of_int len);
    Bytes.set_int32_le buf 4
      (Int32.of_int (Storage.Codec.crc32 buf ~pos:frame_bytes ~len))

  let append out w =
    let buf = Storage.Codec.Writer.contents w in
    let len = Storage.Codec.Writer.pos w - frame_bytes in
    seal buf ~len;
    out.Storage.Vfs.f_append buf 0 frame_bytes;
    out.Storage.Vfs.f_append buf frame_bytes len

  type reader = {
    file : Storage.Vfs.file;
    path : string;
    size : int;
    mutable buf : bytes;
    mutable pos : int; (* next unread byte of [buf] *)
    mutable lim : int; (* end of the bytes read into [buf] *)
    mutable file_pos : int; (* file offset of [buf]'s byte [lim] *)
    mutable index : int; (* of the next chunk *)
  }

  type frame = { offset : int; index : int; buf : bytes; pos : int; len : int; ok : bool }

  let fail (rd : reader) msg = failwith (Printf.sprintf "Mvsbt.Chunks: %s: %s" rd.path msg)

  (* Make the next [n] bytes contiguous in [rd.buf] from [rd.pos].  A
     request past the end of the file fails before any buffer is grown
     for it. *)
  let fill (rd : reader) n =
    let have = rd.lim - rd.pos in
    if have < n then begin
      if have + (rd.size - rd.file_pos) < n then fail rd "truncated file";
      let dst =
        if n <= Bytes.length rd.buf then rd.buf
        else Bytes.create (max n (2 * Bytes.length rd.buf))
      in
      Bytes.blit rd.buf rd.pos dst 0 have;
      rd.buf <- dst;
      rd.pos <- 0;
      rd.lim <- have;
      let want = min (Bytes.length dst - have) (rd.size - rd.file_pos) in
      while rd.lim < have + want do
        let got =
          rd.file.Storage.Vfs.f_pread rd.file_pos dst rd.lim (have + want - rd.lim)
        in
        if got <= 0 then fail rd "truncated file";
        rd.lim <- rd.lim + got;
        rd.file_pos <- rd.file_pos + got
      done
    end

  let at_end (rd : reader) = rd.pos = rd.lim && rd.file_pos = rd.size

  let next (rd : reader) =
    if at_end rd then None
    else begin
      fill rd frame_bytes;
      let len = Int32.to_int (Bytes.get_int32_le rd.buf rd.pos) land 0xFFFFFFFF in
      if len > max_len then fail rd "corrupt chunk length";
      let crc = Int32.to_int (Bytes.get_int32_le rd.buf (rd.pos + 4)) land 0xFFFFFFFF in
      fill rd (frame_bytes + len);
      let pos = rd.pos and index = rd.index in
      rd.pos <- pos + frame_bytes + len;
      rd.index <- index + 1;
      Some
        { offset = rd.file_pos - (rd.lim - pos); index; buf = rd.buf; pos; len;
          ok = Storage.Codec.crc32 rd.buf ~pos:(pos + frame_bytes) ~len = crc }
    end

  let frame rd =
    match next rd with
    | None -> fail rd "truncated file"
    | Some f when f.ok -> f
    | Some f ->
        Storage.Storage_error.raise_io ~op:Storage.Storage_error.Pread ~path:rd.path
          ~detail:(Printf.sprintf "chunk %d" f.index) Storage.Storage_error.Checksum_mismatch

  let chunk rd =
    let f = frame rd in
    Storage.Codec.Reader.create ~pos:(f.pos + frame_bytes) ~len:f.len f.buf

  (* A file of another format — including this one's predecessors, whose
     chunks carry no CRC — is refused by name; there is no second reader. *)
  let with_file vfs ~path ~magic k =
    let file = vfs.Storage.Vfs.v_open `Reopen path in
    Fun.protect ~finally:(fun () -> file.Storage.Vfs.f_close ()) @@ fun () ->
    let rd =
      { file; path; size = file.Storage.Vfs.f_size (); buf = Bytes.create 65536; pos = 0;
        lim = 0; file_pos = 0; index = 0 }
    in
    let n = String.length magic in
    let got =
      if rd.size < n then ""
      else begin
        fill rd n;
        rd.pos <- n;
        Bytes.sub_string rd.buf 0 n
      end
    in
    if got <> magic then begin
      let family = String.sub magic 0 (String.rindex magic '-' + 1) in
      if String.starts_with ~prefix:family got then
        fail rd (Printf.sprintf "format %s is not readable (this build reads %s)" got magic)
      else fail rd "bad magic"
    end;
    k rd
end

(* A snapshot ({!Make.save}) is this magic, then {!Chunks}: the
   state, the page count, then one chunk per page — the page's frame
   exactly as the tree stores it, and reads it in place. *)
let snapshot_magic = "MVSBT-SNAPSHOT-5"

module type VALUE_CODEC = sig
  type t

  val words : int
  val encode : (int -> unit) -> t -> unit
  val decode : (unit -> int) -> t
end

module Make (G : Aggregate.Group.S) (V : VALUE_CODEC with type t = G.t) = struct
  (* A point query's state as it descends: the point, the sum so far,
     and the child the record containing the point names in the page
     just scanned — [leaf] at a leaf, [missing] if none does. *)
  type cursor = {
    key : int;
    at : int;
    logical : bool; (* sum every alive record at or below the key, not just the one *)
    mutable sum : G.t;
    mutable next : int;
  }

  let leaf = -1
  let missing = -2

  (* A page's payload, one layout for every page, stored, sealed or
     still changing, and for snapshots.  A header:

       id i64 | level i32 | low key i64 | high key i64 | created i64
       | closed i64 | record count i32                      (48 bytes)
       | the key and the time dictionary's sizes, an i32 each
       | their entry widths, a byte each (0-8)
       | a width byte (0-8) per column | an i64 base per value word,
       then one for the child

     then the key dictionary, the time dictionary, the records, [stride]
     bytes each, and [pad] zero bytes.  The key dictionary holds the
     page's key boundaries, every record's low and high key, less the
     page's low key; the time dictionary its instants, every start and
     end but [forever], less [created].  Each ascends and holds an entry
     once.  A record has one field per column: its low key, high key,
     start and end as ranks into the dictionaries, a time rank equal to
     the time dictionary's size standing for [forever]; each word of its
     value, and its child, less the column's base.  A field is at one
     offset in every record, so any field reads as one unaligned 64-bit
     load and a mask, and a value word or child one add more.  A column
     of width 0 reads at offset 0, masked to nothing, a dictionary of
     width 0 is not read at all, and the pad keeps every load inside the
     payload.  Ranks order as the keys and times they stand for, so a
     scan ranks its point in each dictionary once and tests every record
     on ranks alone.  The level says whether records have children: at a
     leaf the child column is empty, of width 0 and base -1, so every
     child there reads as -1, no page id.

     A page comes in two widths.  A page that can still change is kept
     {e wide}, in a RAM slot of {!max_payload} bytes, where its writer
     edits it in place: every entry, value word and child 8 bytes, every
     base 0, each rank in the bytes of [2 b].  A page is {e narrowed}
     when it seals, and when a checkpoint copies it: each dictionary
     entry and column then takes the fewest bytes that hold all of its
     codes, each value word and child relative to the page's least.  A
     writer {e widens} a stored page back into a slot.  Either width
     scans alike, and narrowing a wide page gives the same bytes
     whatever edits led to it: its dictionaries hold exactly the keys
     and instants its records name, in order, once each. *)
  module Record_codec = struct
    module Z = Storage.Zcodec

    let level_at = 8
    let low_at = 12
    let high_at = 20
    let created_at = 28
    let closed_at = 36
    let count_at = 44
    let keys_at = 48
    let times_at = 52
    let key_width_at = 56
    let time_width_at = 57
    let widths_at = 58
    let lo_col = 0
    let hi_col = 1
    let start_col = 2
    let end_col = 3
    let value_col = 4
    let child_col = value_col + V.words
    let columns = child_col + 1
    let bases_at = widths_at + columns
    let header_bytes = bases_at + (8 * (V.words + 1))
    let pad = 7
    let mask w = if w >= 8 then -1 else (1 lsl (8 * w)) - 1

    (* The fewest bytes that hold [code], unsigned: a negative code is a
       difference that wrapped, and takes all 8. *)
    let width code =
      let rec go w = if w = 8 || code lsr (8 * w) = 0 then w else go (w + 1) in
      if code < 0 then 8 else go 0

    (* [b] records have at most [2 b] key boundaries and [2 b] instants:
       each entry takes at most 8 bytes, and each rank the bytes of [2 b]. *)
    let max_payload ~b =
      header_bytes + (2 * 2 * b * 8) + (b * ((4 * width (2 * b)) + (8 * (V.words + 1)))) + pad

    (* The word at [i] of a buffer whose bounds the caller has checked. *)
    let[@inline] load buf i =
      let v = Z.load64 buf i in
      Int64.to_int (if Sys.big_endian then Z.bswap64 v else v)

    let[@inline] store buf i code =
      let v = Int64.of_int code in
      Z.store64 buf i (if Sys.big_endian then Z.bswap64 v else v)

    (* The [w]-byte code at [i]; one of width 0 is not loaded, so that it
       may sit at the end of the payload. *)
    let[@inline] code buf i w = if w = 0 then 0 else load buf i land mask w

    (* Header fields: a byte by a checked access, a word by an unchecked
       load once the payload is known to hold the header.  They are this
       module's own so that they inline: where modules are compiled
       opaque, another module's accessor is a call. *)
    let[@inline] u8 (buf : Z.buf) i = Char.code (Bigarray.Array1.get buf i)
    let[@inline] i32 buf i = (load buf i lsl 31) asr 31
    let[@inline] col_width buf off c = u8 buf (off + widths_at + c)
    let[@inline] level buf off = i32 buf (off + level_at)
    let[@inline] low buf off = load buf (off + low_at)
    let[@inline] high buf off = load buf (off + high_at)
    let[@inline] created buf off = load buf (off + created_at)
    let[@inline] closed buf off = load buf (off + closed_at)
    let[@inline] count buf off = i32 buf (off + count_at)
    let[@inline] n_keys buf off = i32 buf (off + keys_at)
    let[@inline] n_times buf off = i32 buf (off + times_at)

    (* Column [c]'s offset in a record: 0 at width 0. *)
    let col_at buf off c =
      if col_width buf off c = 0 then 0
      else begin
        let at = ref 0 in
        for i = 0 to c - 1 do
          at := !at + col_width buf off i
        done;
        !at
      end

    (* The sum of the column widths: a record's length. *)
    let record_bytes buf off =
      let s = ref 0 in
      for c = 0 to columns - 1 do
        s := !s + col_width buf off c
      done;
      !s

    (* The record stride of the [len]-byte payload at [off] of [buf], read
       from its header alone; -1 unless every width is at most 8, no count
       is negative, and the dictionaries, the records and the pad fill the
       payload exactly, one byte or more per record.  Every scan runs it,
       so it allocates nothing. *)
    let stride buf off len =
      if len < header_bytes then -1
      else begin
        let kw = u8 buf (off + key_width_at) and tw = u8 buf (off + time_width_at) in
        let stride = ref 0 and wide = ref (kw > 8 || tw > 8) in
        for c = 0 to columns - 1 do
          let w = col_width buf off c in
          if w > 8 then wide := true;
          stride := !stride + w
        done;
        let stride = !stride and count = count buf off in
        let nk = n_keys buf off and nt = n_times buf off in
        if (not !wide) && count >= 0 && nk >= 0 && nt >= 0 && (count = 0 || stride > 0)
           && header_bytes + (nk * kw) + (nt * tw) + (count * stride) + pad = len
        then stride
        else -1
      end

    (* How many of the [n] entries of the dictionary at [at], [w] bytes
       each, lie at or below [x] once [base] is added: a bisection, since
       the entries ascend. *)
    let rank buf at w n base x =
      if w = 0 then if base <= x then n else 0
      else begin
        let m = mask w and lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if base + (load buf (at + (mid * w)) land m) <= x then lo := mid + 1 else hi := mid
        done;
        !lo
      end

    (* [value_reader buf off] decodes the value of the record at [r]: each
       call of [next] reads the next value column, from the first past
       the four rank columns. *)
    let value_reader buf off =
      let ranks = ref 0 in
      for c = lo_col to end_col do
        ranks := !ranks + col_width buf off c
      done;
      let ranks = !ranks and at = ref 0 and j = ref 0 in
      let next () =
        let c = !j and r = !at in
        let w = col_width buf off (value_col + c) in
        j := c + 1;
        at := r + w;
        load buf (off + bases_at + (8 * c)) + code buf r w
      in
      fun record ->
        at := record + ranks;
        j := 0;
        V.decode next

    let malformed buf off len detail =
      raise (Malformed_frame { page = (if len >= 8 then Z.get_i64 buf off else -1); detail })

    (* {!stride}, for a payload that must have one. *)
    let checked_stride buf off len =
      let stride = stride buf off len in
      if stride < 0 then
        malformed buf off len (Printf.sprintf "its %d bytes disagree with its header" len);
      stride

    (* Where the time dictionary and the records of the payload at [off]
       begin, once its header is checked. *)
    let[@inline] times_at_of buf off =
      off + header_bytes + (i32 buf (off + keys_at) * u8 buf (off + key_width_at))

    let[@inline] records_at_of buf off =
      times_at_of buf off + (i32 buf (off + times_at) * u8 buf (off + time_width_at))

    (* The length of a payload, from its header. *)
    let length buf off = records_at_of buf off + (count buf off * record_bytes buf off) + pad - off

    let sealed buf off = closed buf off <> forever

    (* Whether the [len]-byte payload at [off] holds a page of at most
       [b] records that a scan and {!widen} read as they expect, checked
       without building the page: a header that agrees with the length, a
       level, both dictionaries strictly ascending (a scan bisects them),
       a pad of zeros, an empty child column at a leaf, and at an index
       level children that are page ids (a negative one would read as a
       scan's [leaf] sentinel, and end a descent early with a partial
       sum).  Ranks are left to {!widen}: a scan indexes nothing by them. *)
    let well_formed buf off len ~b =
      let stride = stride buf off len in
      stride >= 0
      &&
      let keys = off + header_bytes and times = times_at_of buf off
      and records = records_at_of buf off in
      let level = level buf off and count = count buf off in
      let ascending at w n base =
        let rec from i prev =
          i = n || (let x = base + code buf (at + (i * w)) w in x > prev && from (i + 1) x)
        in
        n = 0 || from 1 (base + code buf at w)
      in
      let rec zeros i = i >= off + len || (u8 buf i = 0 && zeros (i + 1)) in
      let cw = col_width buf off child_col and cat = col_at buf off child_col in
      let child_base = load buf (off + bases_at + (8 * V.words)) in
      let rec children i =
        i = count || (child_base + code buf (records + (i * stride) + cat) cw >= 0 && children (i + 1))
      in
      level >= 0 && count <= b
      && ascending keys (u8 buf (off + key_width_at)) (n_keys buf off) (low buf off)
      && ascending times (u8 buf (off + time_width_at)) (n_times buf off) (created buf off)
      && zeros (records + (count * stride))
      && if level = 0 then cw = 0 && child_base = -1 else children 0

    (* One page's share of a point query, by one pass over its payload in
       place, decoding nothing but the values it adds: the point is
       ranked in each dictionary once, and each record's test is three or
       four loads of ranks.  A record alive at [at] whose low key is at
       or below [key] adds its value under logical splitting, and the one
       containing [key] adds it under either variant and names the child
       (Appendix A).  [sum] plus what the pass adds, and the child it
       names, go to [k env]: the header is parsed into locals, and the
       value reader is made at the first value added, so a pass that adds
       nothing allocates nothing. *)
    let scan buf off len ~key ~at ~logical sum env k =
      let stride = checked_stride buf off len in
      let keys = off + header_bytes and times = times_at_of buf off
      and records = records_at_of buf off in
      let level = level buf off and count = count buf off in
      let nt = n_times buf off in
      (* The point's ranks: a record holds it where [lo < uk <= hi] and
         [start < ut <= end], [forever] ranking past every instant. *)
      let uk = rank buf keys (u8 buf (off + key_width_at)) (n_keys buf off) (low buf off) key
      and ut =
        if at = forever then nt + 1
        else rank buf times (u8 buf (off + time_width_at)) nt (created buf off) at
      in
      let w_lo = col_width buf off lo_col and w_hi = col_width buf off hi_col in
      let w_start = col_width buf off start_col and w_end = col_width buf off end_col in
      let lo_mask = mask w_lo and hi_mask = mask w_hi in
      let start_mask = mask w_start and end_mask = mask w_end in
      let hi_at = if w_hi = 0 then 0 else w_lo in
      let start_at = if w_start = 0 then 0 else w_lo + w_hi in
      let end_at = if w_end = 0 then 0 else w_lo + w_hi + w_start in
      let child_width = col_width buf off child_col in
      let child_at = stride - child_width and child_base = load buf (off + bases_at + (8 * V.words)) in
      let sum = ref sum and next = ref missing and reader = ref None in
      (* The records lie inside the payload, and the payload inside [buf]
         ({!Storage.Page_store.Mmap.frame}), so the loads go unchecked.
         Loop invariants are hoisted by hand: the compiler does not. *)
      let r = ref records in
      for _ = 1 to count do
        let rc = !r in
        if load buf (rc + start_at) land start_mask < ut
           && ut <= load buf (rc + end_at) land end_mask
           && load buf rc land lo_mask < uk
        then begin
          let holds = uk <= load buf (rc + hi_at) land hi_mask in
          if holds || logical then begin
            let value =
              match !reader with
              | Some value -> value
              | None ->
                  let value = value_reader buf off in
                  reader := Some value;
                  value
            in
            sum := G.add !sum (value rc)
          end;
          if holds then
            next := if level = 0 then leaf else child_base + code buf (rc + child_at) child_width
        end;
        r := rc + stride
      done;
      k env !sum !next

    let set_cursor q sum next =
      q.sum <- sum;
      q.next <- next

    let scan_frame q (buf, off, len) =
      scan buf off len ~key:q.key ~at:q.at ~logical:q.logical q.sum q set_cursor

    let pair () sum next = (sum, next)
    let point ~logical ~key ~at (buf, off, len) = scan buf off len ~key ~at ~logical G.zero () pair

    (* --- Narrowing ---------------------------------------------------------- *)

    (* The bytes of the wide page at [off] of [src] as it seals, at
       [doff] of [dst]: each dictionary entry in the width of its
       dictionary's last, each column in the width of its largest code,
       a value word or child less its column's least, every store a 64-bit
       one in offset order, so the bytes a store writes past its field are
       overwritten by the next field's, or are the pad.  Its length. *)
    let narrow src off dst doff =
      let n = count src off and level = level src off in
      let nk = n_keys src off and nt = n_times src off in
      let keys = off + header_bytes and times = times_at_of src off in
      let r0 = records_at_of src off and wstride = record_bytes src off in
      let rw = col_width src off lo_col in
      let last at k = if k = 0 then 0 else load src (at + (8 * (k - 1))) in
      let kw = width (last keys nk) and tw = width (last times nt) in
      (* Per column: the width, the base and the offset in a record. *)
      let w = Array.make columns 0 and base = Array.make columns 0 in
      for c = lo_col to end_col do
        let top = ref 0 in
        for i = 0 to n - 1 do
          top := Int.max !top (code src (r0 + (i * wstride) + (c * rw)) rw)
        done;
        w.(c) <- width !top
      done;
      let spread c at =
        let least = ref max_int and most = ref min_int in
        for i = 0 to n - 1 do
          let x = load src (r0 + (i * wstride) + at) in
          least := Int.min !least x;
          most := Int.max !most x
        done;
        if !least <= !most then begin
          base.(c) <- !least;
          w.(c) <- width (!most - !least)
        end
      in
      for j = 0 to V.words - 1 do
        spread (value_col + j) ((4 * rw) + (8 * j))
      done;
      if level = 0 then base.(child_col) <- -1 else spread child_col ((4 * rw) + (8 * V.words));
      let at = Array.make columns 0 and stride = ref 0 in
      for c = 0 to columns - 1 do
        at.(c) <- !stride;
        stride := !stride + w.(c)
      done;
      let stride = !stride in
      let records = header_bytes + (nk * kw) + (nt * tw) in
      let total = records + (n * stride) + pad in
      if doff < 0 || doff > Bigarray.Array1.dim dst - total then
        invalid_arg "Mvsbt.Record_codec.narrow: no room";
      Z.set_i64 dst doff (load src off);
      Z.set_i32 dst (doff + level_at) level;
      Z.set_i64 dst (doff + low_at) (low src off);
      Z.set_i64 dst (doff + high_at) (high src off);
      Z.set_i64 dst (doff + created_at) (created src off);
      Z.set_i64 dst (doff + closed_at) (closed src off);
      Z.set_i32 dst (doff + count_at) n;
      Z.set_i32 dst (doff + keys_at) nk;
      Z.set_i32 dst (doff + times_at) nt;
      Z.set_u8 dst (doff + key_width_at) kw;
      Z.set_u8 dst (doff + time_width_at) tw;
      for c = 0 to columns - 1 do
        Z.set_u8 dst (doff + widths_at + c) w.(c)
      done;
      for c = value_col to child_col do
        Z.set_i64 dst (doff + bases_at + (8 * (c - value_col))) base.(c)
      done;
      (* Every store lies inside [total]: the last one starts at least a
         byte before the pad, which is 7 bytes long. *)
      let entries from w k to_ =
        if w > 0 then
          for i = 0 to k - 1 do
            store dst (to_ + (i * w)) (load src (from + (8 * i)))
          done
      in
      entries keys kw nk (doff + header_bytes);
      entries times tw nt (doff + header_bytes + (nk * kw));
      for i = 0 to n - 1 do
        let s = r0 + (i * wstride) and d = doff + records + (i * stride) in
        for c = lo_col to end_col do
          if w.(c) > 0 then store dst (d + at.(c)) (code src (s + (c * rw)) rw)
        done;
        for c = value_col to columns - 1 do
          if w.(c) > 0 then
            store dst (d + at.(c)) (load src (s + (4 * rw) + (8 * (c - value_col))) - base.(c))
        done
      done;
      for i = total - pad to total - 1 do
        Z.set_u8 dst (doff + i) 0
      done;
      total

    (* --- Wide pages ----------------------------------------------------------- *)

    (* The width of a rank in a wide page of up to [b] records. *)
    let rank_width ~b = width (2 * b)

    let close buf off t = Z.set_i64 buf (off + closed_at) t

    (* The empty wide page [id], for up to [b] records. *)
    let init buf off ~b ~id ~level ~low ~high ~created =
      if level < 0 || high < low then invalid_arg "Mvsbt.Record_codec.init: a page no tree makes";
      let rw = rank_width ~b in
      Z.set_i64 buf off id;
      Z.set_i32 buf (off + level_at) level;
      Z.set_i64 buf (off + low_at) low;
      Z.set_i64 buf (off + high_at) high;
      Z.set_i64 buf (off + created_at) created;
      Z.set_i64 buf (off + closed_at) forever;
      Z.set_i32 buf (off + count_at) 0;
      Z.set_i32 buf (off + keys_at) 0;
      Z.set_i32 buf (off + times_at) 0;
      Z.set_u8 buf (off + key_width_at) 8;
      Z.set_u8 buf (off + time_width_at) 8;
      for c = 0 to columns - 1 do
        Z.set_u8 buf (off + widths_at + c)
          (if c <= end_col then rw else if c < child_col || level > 0 then 8 else 0)
      done;
      for j = 0 to V.words do
        Z.set_i64 buf (off + bases_at + (8 * j)) (if j = V.words && level = 0 then -1 else 0)
      done;
      for i = 0 to pad - 1 do
        Z.set_u8 buf (off + header_bytes + i) 0
      done

    (* A wide page open for editing: its shape, read from its header once
       and kept in step by every edit, which writes what changes back to
       the header.  Within one page, equal ranks stand for equal keys or
       instants: each dictionary holds an entry once. *)
    module Wide = struct
      type t = {
        mutable buf : Z.buf;
        mutable off : int;
        mutable rw : int; (* a rank's width *)
        mutable rmask : int;
        mutable stride : int;
        mutable index : bool; (* above the leaves *)
        mutable low : int;
        mutable created : int;
        mutable nk : int;
        mutable nt : int; (* also [forever]'s rank *)
        mutable count : int;
        mutable times : int; (* where the time dictionary begins *)
        mutable recs : int; (* where the records begin *)
      }

      let make () =
        { buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0; off = 0; rw = 1;
          rmask = 0xff; stride = 0; index = false; low = 0; created = 0; nk = 0; nt = 0;
          count = 0; times = 0; recs = 0 }

      let place v =
        v.times <- v.off + header_bytes + (8 * v.nk);
        v.recs <- v.times + (8 * v.nt)

      let open_ v buf off =
        let rw = col_width buf off lo_col and index = level buf off > 0 in
        v.buf <- buf;
        v.off <- off;
        v.rw <- rw;
        v.rmask <- mask rw;
        v.index <- index;
        v.stride <- (4 * rw) + (8 * V.words) + if index then 8 else 0;
        v.low <- low buf off;
        v.created <- created buf off;
        v.nk <- n_keys buf off;
        v.nt <- n_times buf off;
        v.count <- count buf off;
        place v

      let[@inline] at v i c = v.recs + (i * v.stride) + (c * v.rw)
      let[@inline] rank v i c = load v.buf (at v i c) land v.rmask
      let[@inline] alive v i = rank v i end_col = v.nt
      let[@inline] key v k = v.low + load v.buf (v.off + header_bytes + (8 * k))
      let[@inline] time v k = if k = v.nt then forever else v.created + load v.buf (v.times + (8 * k))

      (* A rank, a byte at a time: the bytes past it are the next field's. *)
      let put v p k =
        if v.rw = 1 then Bigarray.Array1.unsafe_set v.buf p (Char.unsafe_chr (k land 0xff))
        else
          for j = 0 to v.rw - 1 do
            Bigarray.Array1.unsafe_set v.buf (p + j) (Char.unsafe_chr ((k lsr (8 * j)) land 0xff))
          done

      let value v i =
        let at = ref (at v i value_col) in
        V.decode (fun () ->
            let x = load v.buf !at in
            at := !at + 8;
            x)

      let set_value v i x =
        let at = ref (at v i value_col) in
        V.encode
          (fun w ->
            store v.buf !at w;
            at := !at + 8)
          x

      let child v i = if v.index then load v.buf (at v i value_col + (8 * V.words)) else -1

      (* How many of the [n] entries at [d] over [base] lie below [x]. *)
      let below v d n base x =
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if base + load v.buf (d + (8 * mid)) < x then lo := mid + 1 else hi := mid
        done;
        !lo

      let keys_below v x = below v (v.off + header_bytes) v.nk v.low x
      let times_below v x = below v v.times v.nt v.created x

      (* [x]'s rank in the dictionary of [n] entries at [d], entered in
         its place if absent: the bytes after that place, to the end of
         the payload, move up 8, and every rank at or past it in the
         columns [c] and [c + 1] grows by one — for times [forever]'s
         too. *)
      let enter v d n base ~size_at ~c x =
        let p = below v d n base x in
        if p < n && base + load v.buf (d + (8 * p)) = x then p
        else begin
          let from = d + (8 * p) in
          Z.blit v.buf from v.buf (from + 8) (v.recs + (v.count * v.stride) + pad - from);
          store v.buf from (x - base);
          Z.set_i32 v.buf (v.off + size_at) (n + 1);
          if c = lo_col then v.nk <- n + 1 else v.nt <- n + 1;
          place v;
          for i = 0 to v.count - 1 do
            for col = c to c + 1 do
              let a = at v i col in
              let k = load v.buf a land v.rmask in
              if k >= p then put v a (k + 1)
            done
          done;
          p
        end

      let enter_key v x = enter v (v.off + header_bytes) v.nk v.low ~size_at:keys_at ~c:lo_col x

      let enter_time v x =
        if x = forever then v.nt
        else enter v v.times v.nt v.created ~size_at:times_at ~c:start_col x

      let set_rank v i c k = put v (at v i c) k

      (* Record [i]'s end, [forever] included. *)
      let set_stop v i t =
        let k = enter_time v t in
        set_rank v i end_col k

      let set_count v n =
        v.count <- n;
        Z.set_i32 v.buf (v.off + count_at) n

      (* Add a record after the last; the page must have room for it. *)
      let append v ~lo ~hi ~start ~stop value ~child =
        if lo < v.low then invalid_arg "Mvsbt.Record_codec.append: a key below the page's";
        if hi < lo then invalid_arg "Mvsbt.Record_codec.append: an inverted key range";
        if (start < v.created && start <> forever) || (stop < v.created && stop <> forever) then
          invalid_arg "Mvsbt.Record_codec.append: a time before the page's";
        if (child < 0) = v.index then
          invalid_arg "Mvsbt.Record_codec.append: a child the level contradicts";
        (* Each entry goes in at or past the ones before it, so no rank
           taken moves again. *)
        let kl = enter_key v lo in
        let kh = enter_key v hi in
        let ks = enter_time v start in
        let ke = enter_time v stop in
        let i = v.count in
        set_rank v i lo_col kl;
        set_rank v i hi_col kh;
        set_rank v i start_col ks;
        set_rank v i end_col ke;
        set_value v i value;
        if v.index then store v.buf (at v i value_col + (8 * V.words)) child;
        set_count v (i + 1)

      (* Drop record [i], the records after it moving down. *)
      let remove v i =
        let r = at v i 0 in
        Z.blit v.buf (r + v.stride) v.buf r ((v.count - 1 - i) * v.stride);
        set_count v (v.count - 1)

      (* Drop every dictionary entry no record names, renumbering the
         ranks past it, with [marks] (room for either dictionary's
         entries and one more) as scratch. *)
      let sweep v (marks : int array) =
        let one d k ~size_at ~c =
          Array.fill marks 0 (k + 1) 0;
          for i = 0 to v.count - 1 do
            marks.(rank v i c) <- 1;
            marks.(rank v i (c + 1)) <- 1
          done;
          let kept = ref 0 in
          for j = 0 to k - 1 do
            if marks.(j) = 1 then begin
              store v.buf (d + (8 * !kept)) (load v.buf (d + (8 * j)));
              marks.(j) <- !kept;
              incr kept
            end
          done;
          let kept = !kept in
          if kept < k then begin
            marks.(k) <- kept;
            for i = 0 to v.count - 1 do
              set_rank v i c marks.(rank v i c);
              set_rank v i (c + 1) marks.(rank v i (c + 1))
            done;
            let from = d + (8 * k) in
            Z.blit v.buf from v.buf (from - (8 * (k - kept)))
              (v.recs + (v.count * v.stride) + pad - from);
            Z.set_i32 v.buf (v.off + size_at) kept;
            if c = lo_col then v.nk <- kept else v.nt <- kept;
            place v
          end
        in
        one (v.off + header_bytes) v.nk ~size_at:keys_at ~c:lo_col;
        one v.times v.nt ~size_at:times_at ~c:start_col
    end

    let append buf off ~lo ~hi ~start ~stop value ~child =
      let v = Wide.make () in
      Wide.open_ v buf off;
      Wide.append v ~lo ~hi ~start ~stop value ~child

    (* The wide form of the narrow page [(buf, off, len)], for up to [b]
       records, at [doff] of [dst], a column at a time: every rank
       checked against its dictionary before anything indexes by it. *)
    let widen ~b buf off len dst doff =
      let stride = checked_stride buf off len in
      let n = count buf off and level = level buf off in
      let nk = n_keys buf off and nt = n_times buf off in
      if n > b || nk > 2 * b || nt > 2 * b || high buf off < low buf off then
        malformed buf off len (Printf.sprintf "it is not a page of at most %d records" b);
      init dst doff ~b ~id:(load buf off) ~level ~low:(low buf off) ~high:(high buf off)
        ~created:(created buf off);
      close dst doff (closed buf off);
      let kw = u8 buf (off + key_width_at) and tw = u8 buf (off + time_width_at) in
      let times = times_at_of buf off and records = records_at_of buf off in
      for i = 0 to nk - 1 do
        store dst (doff + header_bytes + (8 * i)) (code buf (off + header_bytes + (i * kw)) kw)
      done;
      for i = 0 to nt - 1 do
        store dst (doff + header_bytes + (8 * nk) + (8 * i)) (code buf (times + (i * tw)) tw)
      done;
      Z.set_i32 dst (doff + keys_at) nk;
      Z.set_i32 dst (doff + times_at) nt;
      Z.set_i32 dst (doff + count_at) n;
      let v = Wide.make () in
      Wide.open_ v dst doff;
      let last = if level > 0 then child_col else child_col - 1 in
      for c = lo_col to last do
        let w = col_width buf off c and at = records + col_at buf off c in
        let m = mask w in
        if c <= end_col then begin
          let dict = if c <= hi_col then nk else nt + 1 in
          for i = 0 to n - 1 do
            let x = if w = 0 then 0 else load buf (at + (i * stride)) land m in
            if x < 0 || x >= dict then
              malformed buf off len
                (Printf.sprintf "the record at byte %d names entry %d of a %d-entry dictionary"
                   (at + (i * stride) - col_at buf off c - off) x dict);
            Wide.set_rank v i c x
          done
        end
        else begin
          let base = load buf (off + bases_at + (8 * (c - value_col))) in
          for i = 0 to n - 1 do
            store dst (Wide.at v i value_col + (8 * (c - value_col)))
              (base + if w = 0 then 0 else load buf (at + (i * stride)) land m)
          done
        end
      done
  end

  module R = Record_codec

  (* --- The frame store ---------------------------------------------------------- *)

  (* A page is sealed once it closes: only vacuum changes it after. *)
  module Mmap_store = Storage.Page_store.Mmap (struct
    let sealed = R.sealed
    let length = R.length
    let narrow = R.narrow
  end)

  module Mmap_pool = Storage.Buffer_pool.Make (Mmap_store)

  (* Every page is a frame in the store: a writer edits one that can
     still change in its slot, wide, and the pool keeps only residency,
     dirtiness and pins, so every read and write is charged as if pages
     moved.  The current root is pinned in the pool: every descent starts
     there, and the pin moves when the tree moves its root. *)
  type t = {
    store : Mmap_store.t;
    pool : Mmap_pool.t;
    widen : Storage.Zcodec.buf -> int -> int -> Storage.Zcodec.buf -> int -> unit;
    page : R.Wide.t; (* the page open for editing or reading *)
    scratch : Storage.Zcodec.buf; (* a page widened for reading *)
    marks : int array; (* a sweep's scratch, [2 b + 1] entries *)
    mutable work : int array; (* the merge pass's worklist *)
    io_stats : Storage.Io_stats.t;
    cfg : config;
    key_space : int;
    root_star : Root_star.t;
    mutable cur_root : Storage.Page_id.t;
    mutable height : int;
    mutable now_ : int;
    mutable horizon : int; (* queries below this time are refused *)
    mutable touches : int; (* logical page accesses; see [page_touches] *)
    mutable tel : Telemetry.Tracer.t;
  }

  let strong_cap cfg = int_of_float (cfg.f *. float_of_int cfg.b)

  let validate_create cfg key_space =
    if cfg.b < 4 then invalid_arg "Mvsbt.create: b must be >= 4";
    if not (cfg.f > 0. && cfg.f <= 1.) then invalid_arg "Mvsbt.create: f must be in (0, 1]";
    if strong_cap cfg < 2 then
      invalid_arg "Mvsbt.create: f*b must be >= 2 (fan-out of at least 2)";
    if key_space < 1 then invalid_arg "Mvsbt.create: key_space must be >= 1"

  (* The room a page may take: [b] records in the wide layout.  A sealed
     page's frame takes only the bytes it narrows to. *)
  let min_page_size cfg = Mmap_store.block_overhead + R.max_payload ~b:cfg.b

  (* A tree without a path keeps its overlay in RAM and names no file. *)
  let overlay_at ?(backing = `Auto) path =
    match path with
    | Some path -> (backing, path)
    | None when backing = `Map -> invalid_arg "Mvsbt: a mapped overlay needs a path"
    | None -> (`Buffered, "(ram)")

  let handle ~cfg ~key_space ~io_stats ~root_star ~policy ~pool_capacity store ~root =
    { store; pool = Mmap_pool.create ~capacity:pool_capacity ~policy store;
      widen = R.widen ~b:cfg.b; page = R.Wide.make ();
      scratch = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (min_page_size cfg);
      marks = Array.make ((2 * cfg.b) + 1) 0;
      work = Array.make ((2 * cfg.b) + 2) 0; io_stats; cfg; key_space; root_star;
      cur_root = root; height = 1; now_ = 0; horizon = 0; touches = 0;
      tel = Telemetry.Tracer.noop }

  let config t = t.cfg
  let key_space t = t.key_space
  let stats t = t.io_stats
  let now t = t.now_
  let horizon t = t.horizon
  let page_count t = Mmap_store.live_pages t.store
  let overlay_bytes t = Mmap_store.overlay_bytes t.store
  let height t = t.height
  let root_count t = Root_star.count t.root_star

  let drop_cache t =
    Mmap_pool.drop_cache t.pool;
    Root_star.drop_cache t.root_star

  let close t = Mmap_store.close t.store

  (* A charged read: the page is then resident, and {!frame} or {!edit}
     reaches it. *)
  let read t pid =
    t.touches <- t.touches + 1;
    Mmap_pool.read t.pool pid

  let frame t pid = Mmap_store.frame t.store pid
  let edit t pid = Mmap_store.edit t.store pid ~widen:t.widen

  let touch t pid =
    t.touches <- t.touches + 1;
    Mmap_pool.write t.pool pid ()

  let set_root t pid =
    if Mmap_pool.pin_count t.pool t.cur_root > 0 then Mmap_pool.unpin t.pool t.cur_root;
    Mmap_pool.pin t.pool pid;
    t.cur_root <- pid

  let page_touches t = t.touches
  let telemetry t = t.tel
  let set_telemetry t tel = t.tel <- tel
  let page_exists t pid = Mmap_pool.mem t.pool pid

  (* A record a writer adds: it starts now and is alive. *)
  type fresh = { lo : int; hi : int; mutable value : G.t; child : int }

  (* [records] laid out in a fresh slot as page [pid] at [level] over
     [low, high), created [now], and written. *)
  let lay_out t pid ~level ~low ~high ~now records =
    let buf, off = Mmap_store.fresh t.store pid in
    R.init buf off ~b:t.cfg.b ~id:(Storage.Page_id.to_int pid) ~level ~low ~high ~created:now;
    R.Wide.open_ t.page buf off;
    List.iter
      (fun f ->
        R.Wide.append t.page ~lo:f.lo ~hi:f.hi ~start:now ~stop:forever f.value ~child:f.child)
      records;
    touch t pid

  (* Allocate the initial root (one all-covering zero record) and assemble
     the handle. *)
  let boot ~cfg ~key_space ~io_stats ~policy ~pool_capacity store =
    let root_star = Root_star.create ~btree:cfg.root_star_btree ~stats:io_stats () in
    let pid = Mmap_store.alloc store in
    let t = handle ~cfg ~key_space ~io_stats ~root_star ~policy ~pool_capacity store ~root:pid in
    let buf, off = Mmap_store.fresh store pid in
    R.init buf off ~b:cfg.b ~id:(Storage.Page_id.to_int pid) ~level:0 ~low:0 ~high:key_space
      ~created:0;
    R.append buf off ~lo:0 ~hi:key_space ~start:0 ~stop:forever G.zero ~child:(-1);
    Mmap_pool.write t.pool pid ();
    Mmap_pool.pin t.pool pid;
    Root_star.register root_star ~at:0 pid;
    t

  (* --- Insertion ---------------------------------------------------------- *)

  module W = R.Wide

  (* Page [pid] open for editing in [t.page], brought into a slot if it
     is not in one. *)
  let open_page t pid =
    let buf, off = edit t pid in
    W.open_ t.page buf off;
    t.page

  (* Page [pid] open in [t.page] for reading, widened from wherever it is
     into [t.scratch], so that what the store does next leaves it be. *)
  let view t pid =
    let buf, off, len = frame t pid in
    t.widen buf off len t.scratch 0;
    W.open_ t.page t.scratch 0;
    t.page

  (* The first record, in page order, that [p] holds of, or -1. *)
  let find_record (v : W.t) p =
    let rec go i = if i = v.count then -1 else if p i then i else go (i + 1) in
    go 0

  (* Partly-covered record: intersects [k, maxkey) without being contained
     in it, i.e. it contains [k] with its low end strictly below: its low
     key's rank is below the keys under [k], its high key's at or past
     those up to [k]. *)
  let partly_covered (v : W.t) k =
    let under = W.keys_below v k and upto = W.keys_below v (k + 1) in
    find_record v (fun i ->
        W.alive v i && W.rank v i R.lo_col < under && upto <= W.rank v i R.hi_col)

  (* Fully-covered records, ascending by range. *)
  let fully_covered (v : W.t) k =
    let under = W.keys_below v k in
    List.init v.count Fun.id
    |> List.filter (fun i -> W.alive v i && W.rank v i R.lo_col >= under)
    |> List.sort (fun a b -> Int.compare (W.rank v a R.lo_col) (W.rank v b R.lo_col))

  let first_fully_covered (v : W.t) k =
    let under = W.keys_below v k and best = ref (-1) in
    for i = 0 to v.count - 1 do
      if W.alive v i && W.rank v i R.lo_col >= under
         && (!best < 0 || W.rank v i R.lo_col < W.rank v !best R.lo_col)
      then best := i
    done;
    !best

  (* What an insertion does to one page: the records it ends, by index,
     and those it adds. *)
  type op = { killed : int list; added : fresh list }

  let copy_of (v : W.t) i value =
    { lo = W.key v (W.rank v i R.lo_col); hi = W.key v (W.rank v i R.hi_col); value;
      child = W.child v i }

  (* Vertical split of record [i] at the current time, adding [x]. *)
  let plus_v_copy v x i = copy_of v i (G.add (W.value v i) x)

  (* The records receiving [x] by vertical split at this page, lowest page
     case — the single "representative" under logical splitting, all
     fully-covered records under the plain algorithm. *)
  let covered_targets t v k =
    match t.cfg.variant with
    | Plain -> fully_covered v k
    | Logical -> ( match first_fully_covered v k with -1 -> [] | i -> [ i ])

  let op_for_lowest t (v : W.t) k x : op =
    if not v.index then
      match partly_covered v k with
      | -1 ->
          let targets = covered_targets t v k in
          { killed = targets; added = List.map (plus_v_copy v x) targets }
      | rc ->
          (* Split into three: vertically at [now], horizontally at [k].
             Under logical splitting the top-right piece carries just the
             delta [x]; under the plain algorithm values are absolute. *)
          let value = W.value v rc in
          let high_value = match t.cfg.variant with Logical -> x | Plain -> G.add value x in
          let extra = match t.cfg.variant with Logical -> [] | Plain -> fully_covered v k in
          {
            killed = rc :: extra;
            added =
              { lo = W.key v (W.rank v rc R.lo_col); hi = k; value; child = -1 }
              :: { lo = k; hi = W.key v (W.rank v rc R.hi_col); value = high_value; child = -1 }
              :: List.map (plus_v_copy v x) extra;
          }
    else begin
      (* Index page without a partly-covered record. *)
      let targets = covered_targets t v k in
      { killed = targets; added = List.map (plus_v_copy v x) targets }
    end

  (* Op for a path page whose partly-covered record is [partly];
     [child_descs] are the replacement pages when the child was split. *)
  let op_for_path t (v : W.t) k x ~partly ~child_descs : op =
    let targets = covered_targets t v k in
    let from_child =
      match child_descs with
      | [] -> []
      | descs ->
          let value = W.value v partly in
          List.mapi
            (fun i ((range : Interval.t), pid) ->
              let value =
                match t.cfg.variant with Plain -> value | Logical -> if i = 0 then value else G.zero
              in
              { lo = range.lo; hi = range.hi; value; child = Storage.Page_id.to_int pid })
            descs
    in
    {
      killed = (if child_descs <> [] then [ partly ] else []) @ targets;
      added = from_child @ List.map (plus_v_copy v x) targets;
    }

  (* Record merging (section 4.2.2), over the records from [first] on,
     those just added.  Time merge: an alive record whose dead
     predecessor has the same rectangle sides, value and child is folded
     back into it.  Key merge: under logical splitting an alive
     zero-valued record is absorbed by its alive left neighbour when both
     started together (the zero delta contributes nothing); under the
     plain algorithm values are absolute, so the neighbours must carry
     equal values instead.  Only freshly added (or just-merged) records
     can take part in a new merge, so the worklist stays tiny and the
     pass is O(|added| * b).  The worklist holds record indices: one
     names a record until the record goes, or a merge replaces it.
     Whether anything merged. *)
  let merge_pass t (v : W.t) ~first =
    let key_mergeable m n =
      match t.cfg.variant with
      | Logical -> G.equal (W.value v n) G.zero
      | Plain -> G.equal (W.value v m) (W.value v n)
    in
    let head = ref 0 and tail = ref 0 and merged = ref false in
    let push i =
      if !tail = Array.length t.work then t.work <- Array.append t.work t.work;
      t.work.(!tail) <- i;
      incr tail
    in
    let forget j =
      for q = !head to !tail - 1 do
        if t.work.(q) = j then t.work.(q) <- -1
      done
    in
    (* Drop record [j]: the worklist's indices past it move down. *)
    let drop j =
      forget j;
      W.remove v j;
      merged := true;
      for q = !head to !tail - 1 do
        if t.work.(q) > j then t.work.(q) <- t.work.(q) - 1
      done
    in
    for i = first to v.count - 1 do
      push i
    done;
    while !head < !tail do
      let a = t.work.(!head) in
      incr head;
      if a >= 0 && W.alive v a then begin
        let a_lo = W.rank v a R.lo_col and a_hi = W.rank v a R.hi_col in
        let a_start = W.rank v a R.start_col in
        (* Time merge: fold [a] back into a dead twin ending where [a]
           starts. *)
        match
          find_record v (fun d ->
              d <> a
              && W.rank v d R.end_col = a_start
              && W.rank v d R.lo_col = a_lo
              && W.rank v d R.hi_col = a_hi
              && G.equal (W.value v d) (W.value v a)
              && W.child v d = W.child v a)
        with
        | d when d >= 0 ->
            W.set_rank v d R.end_col v.nt;
            drop a;
            push (if d > a then d - 1 else d)
        | _ -> (
            (* Key merge with the alive neighbour above or below: [m]
               takes [n]'s range. *)
            let try_pair m n =
              if
                W.rank v n R.lo_col = W.rank v m R.hi_col
                && W.rank v n R.start_col = W.rank v m R.start_col
                && W.rank v n R.end_col = W.rank v m R.end_col
                && key_mergeable m n
                && W.child v n = W.child v m
              then begin
                W.set_rank v m R.hi_col (W.rank v n R.hi_col);
                forget m;
                drop n;
                push (if n < m then m - 1 else m);
                true
              end
              else false
            in
            let above = find_record v (fun n -> n <> a && W.alive v n && W.rank v n R.lo_col = a_hi) in
            if not (above >= 0 && try_pair a above) then
              match
                find_record v (fun m -> m <> a && W.alive v m && W.rank v m R.hi_col = a_lo)
              with
              | -1 -> ()
              | m -> ignore (try_pair m a))
      end
    done;
    !merged

  (* Split [buffer] (alive records of an overflowing page, restarted at the
     current time) into chunks obeying the strong condition. *)
  let distribute t buffer =
    let n = List.length buffer in
    let cap = strong_cap t.cfg in
    if n <= cap then [ buffer ]
    else begin
      let m = (n + cap - 1) / cap in
      let base = n / m and extra = n mod m in
      let rec take k xs =
        if k = 0 then ([], xs)
        else
          match xs with
          | x :: rest ->
              let taken, left = take (k - 1) rest in
              (x :: taken, left)
          | [] -> assert false
      in
      let rec go i xs =
        if xs = [] then []
        else
          let size = base + if i < extra then 1 else 0 in
          let chunk, rest = take size xs in
          chunk :: go (i + 1) rest
      in
      go 0 buffer
    end

  let chunk_span chunk =
    List.fold_left (fun acc f -> Interval.hull acc (Interval.make f.lo f.hi)) Interval.empty chunk

  (* Apply the op [plan] makes for page [pid] at time [now], editing the
     page in its slot.  Returns the replacement descriptors when the page
     had to be time split (possibly key split), or [] when the op fit in
     place. *)
  let apply_op t pid ~now plan : (Interval.t * Storage.Page_id.t) list =
    let v = open_page t pid in
    let op = plan v in
    (* A record the op ends that started now is disposed of: no query
       can see it. *)
    let started_now =
      let k = W.times_below v now in
      if k < v.nt && W.time v k = now then k else -1
    in
    let disposed i = t.cfg.disposal && W.rank v i R.start_col = started_now in
    let gone = List.filter disposed op.killed in
    let kill () = List.iter (fun i -> if not (disposed i) then W.set_stop v i now) op.killed in
    if v.count - List.length gone + List.length op.added <= t.cfg.b then begin
      kill ();
      List.iter (W.remove v) (List.sort (fun a b -> Int.compare b a) gone);
      let first = v.count in
      List.iter
        (fun f -> W.append v ~lo:f.lo ~hi:f.hi ~start:now ~stop:forever f.value ~child:f.child)
        op.added;
      let merged = t.cfg.merging && merge_pass t v ~first in
      if gone <> [] || merged then W.sweep v t.marks;
      touch t pid;
      []
    end
    else begin
      (* Time split: alive records restart at [now] in fresh pages.  A
         record the op disposes of stays in the closed page as it was. *)
      kill ();
      let survivors =
        List.init v.count Fun.id
        |> List.filter (fun i -> W.alive v i && not (List.mem i op.killed))
        |> List.map (fun i -> copy_of v i (W.value v i))
      in
      let buffer = List.sort (fun a b -> Int.compare a.lo b.lo) (survivors @ op.added) in
      let level = R.level v.buf v.off and created = v.created in
      R.close v.buf v.off now;
      (* The page is sealed: it may leave its slot from here on. *)
      touch t pid;
      let chunks = distribute t buffer in
      Telemetry.Tracer.event t.tel "mvsbt.time_split"
        ~attrs:
          [
            ("page", Telemetry.Tracer.Int (Storage.Page_id.to_int pid));
            ("level", Telemetry.Tracer.Int level);
          ];
      if List.length chunks > 1 then
        Telemetry.Tracer.event t.tel "mvsbt.key_split"
          ~attrs:
            [
              ("page", Telemetry.Tracer.Int (Storage.Page_id.to_int pid));
              ("chunks", Telemetry.Tracer.Int (List.length chunks));
            ];
      (* Key-split value adjustment under logical splitting: queries in a
         higher chunk must still see the mass of the lower chunks, so the
         lowest record of chunk j gains the sum of chunks 1..j-1. *)
      (match (t.cfg.variant, chunks) with
      | Logical, _ :: _ :: _ ->
          let prefix = ref G.zero in
          List.iter
            (fun chunk ->
              let chunk_sum = List.fold_left (fun acc f -> G.add acc f.value) G.zero chunk in
              (match chunk with
              | lowest :: _ ->
                  if not (G.equal !prefix G.zero) then
                    lowest.value <- G.add lowest.value !prefix
              | [] -> assert false);
              prefix := G.add !prefix chunk_sum)
            chunks
      | _ -> ());
      let descs =
        List.map
          (fun chunk ->
            let span = chunk_span chunk in
            let p = Mmap_pool.alloc t.pool in
            lay_out t p ~level ~low:span.Interval.lo ~high:span.Interval.hi ~now chunk;
            (span, p))
          chunks
      in
      if t.cfg.disposal && created = now then Mmap_pool.free t.pool pid;
      descs
    end

  (* Install a fresh root covering the whole key space above [descs]. *)
  let grow_root t descs ~now =
    match descs with
    | [] -> ()
    | [ (_, pid) ] ->
        (* A pure time split of the root: the copy is the new root of the
           same height. *)
        set_root t pid;
        Root_star.register t.root_star ~at:now pid
    | pieces ->
        let pid = Mmap_pool.alloc t.pool in
        let first = snd (List.hd pieces) in
        read t first;
        let level =
          let buf, off, _ = frame t first in
          R.level buf off + 1
        in
        lay_out t pid ~level ~low:0 ~high:t.key_space ~now
          (List.map
             (fun ((range : Interval.t), child) ->
               { lo = range.lo; hi = range.hi; value = G.zero;
                 child = Storage.Page_id.to_int child })
             pieces);
        set_root t pid;
        t.height <- t.height + 1;
        Telemetry.Tracer.event t.tel "mvsbt.root_grow"
          ~attrs:[ ("height", Telemetry.Tracer.Int t.height) ];
        Root_star.register t.root_star ~at:now pid

  let insert t ~key ~at v =
    if key < 0 || key >= t.key_space then
      invalid_arg "Mvsbt.insert: key outside key domain";
    if at < t.now_ then
      invalid_arg
        (Printf.sprintf
           "Mvsbt.insert: time %d precedes current time %d (transaction time is monotone)"
           at t.now_);
    Telemetry.Tracer.with_span t.tel ~level:`Debug "mvsbt.insert" @@ fun () ->
    t.now_ <- at;
    (* Phase 1: descend along partly-covered records, keeping the chain of
       (page, partly-covered record), nearest ancestor first.  Every page
       on it is edited below, so each is brought into a slot. *)
    let rec descend pid path =
      read t pid;
      let page = open_page t pid in
      if not page.index then (pid, path)
      else
        match partly_covered page key with
        | -1 -> (pid, path)
        | r -> descend (Storage.Page_id.of_int (W.child page r)) ((pid, r) :: path)
    in
    let lowest, path = descend t.cur_root [] in
    (* Phase 2: handle the lowest page. *)
    let descs = apply_op t lowest ~now:at (fun page -> op_for_lowest t page key v) in
    (* Phase 3: walk back up the partly-covered chain. *)
    let descs =
      List.fold_left
        (fun child_descs (pid, partly) ->
          apply_op t pid ~now:at (fun page -> op_for_path t page key v ~partly ~child_descs))
        descs path
    in
    (* Phase 4: the root itself was split. *)
    grow_root t descs ~now:at

  (* --- Point query ---------------------------------------------------------- *)

  let query t ~key ~at =
    if key < 0 || key >= t.key_space then
      invalid_arg "Mvsbt.query: key outside key domain";
    if at < 0 then invalid_arg "Mvsbt.query: negative time";
    if at < t.horizon then raise (Below_horizon { at; horizon = t.horizon });
    Telemetry.Tracer.with_span t.tel ~level:`Debug "mvsbt.query" @@ fun () ->
    let root = if at >= t.now_ then t.cur_root else Root_star.find t.root_star ~at in
    let q = { key; at; logical = t.cfg.variant = Logical; sum = G.zero; next = missing } in
    let rec go pid =
      read t pid;
      R.scan_frame q (frame t pid);
      if q.next = missing then
        Format.kasprintf failwith "Mvsbt: no record containing (%d, %d) in page %d" key at
          (Storage.Page_id.to_int pid);
      if q.next <> leaf then go (Storage.Page_id.of_int q.next)
    in
    go root;
    q.sum

  (* --- Vacuum (retention) ---------------------------------------------------- *)

  (* Partial persistence gives vacuum its correctness argument for free:
     a page with [closed <= h] is invisible to every query at a time
     [>= h] (nothing in it is alive there), and inside a still-visible
     page a record with [rt_end <= h] is equally invisible, so it can be
     dropped *in place* — no copying into fresh pages, no parent-pointer
     rewrites.  Conversely any page with [closed > h] stays reachable at
     some time in [h, now], so pruning can never orphan a live page. *)

  let set_horizon t h =
    if h < 0 then invalid_arg "Mvsbt.set_horizon: negative horizon";
    if h < t.horizon then
      invalid_arg
        (Printf.sprintf "Mvsbt.set_horizon: horizon moves backwards (%d < %d)" h t.horizon);
    (* A horizon past [now] is legal here — alive records ([rt_end =
       forever]) survive any horizon, so the tree stays well-formed; it
       just refuses more queries.  The warehouse ([Rta]) bounds the
       horizon by its own clock, which can run ahead of either tree's
       (the LKLT side only ticks on deletes). *)
    t.horizon <- h;
    (* Tenures wholly below the horizon would keep traversals anchored on
       root pages vacuum is about to free. *)
    ignore (Root_star.prune t.root_star ~below:h)

  type vacuum_action = Free_page | Prune_records

  let ended_by (v : W.t) i h = W.time v (W.rank v i R.end_col) <= h

  (* How many records of the open page ended by [h]. *)
  let count_ended (v : W.t) h =
    let n = ref 0 in
    for i = 0 to v.count - 1 do
      if ended_by v i h then incr n
    done;
    !n

  (* Deterministic scan of the whole store (not just the reachable graph:
     a crash between tenure pruning and page freeing leaves dead pages
     that are no longer reachable, and re-vacuum must still find them). *)
  let vacuum_scan t =
    let h = t.horizon in
    Mmap_pool.flush t.pool;
    let actions = ref [] in
    Mmap_store.iter_ids t.store (fun pid ->
        Mmap_pool.read t.pool pid;
        let v = view t pid in
        if R.closed v.buf v.off <= h then actions := (pid, Free_page) :: !actions
        else if count_ended v h > 0 then actions := (pid, Prune_records) :: !actions);
    List.rev !actions

  (* Appliers are tolerant of already-done work (missing page, nothing to
     drop), so replaying an action is idempotent.  A checkpoint taken
     mid-vacuum holds the dead pages yet to be freed ({!write} writes
     every page held), and the replayed actions free them; a snapshot of
     this format that holds only the pages root* reaches, as earlier
     writers wrote, lacks them. *)
  let vacuum_free t pid =
    if page_exists t pid then begin
      Mmap_pool.free t.pool pid;
      Storage.Io_stats.record_pages_reclaimed t.io_stats 1;
      true
    end
    else false

  let vacuum_prune t pid =
    if not (page_exists t pid) then 0
    else begin
      read t pid;
      let h = t.horizon in
      let dropped = count_ended (view t pid) h in
      (* At least one record stays: a page with [closed > h] had records
         alive just below its close time, and their [rt_end >= closed > h]. *)
      if dropped > 0 then begin
        let v = open_page t pid in
        for i = v.count - 1 downto 0 do
          if ended_by v i h then W.remove v i
        done;
        W.sweep v t.marks;
        touch t pid
      end;
      dropped
    end

  (* --- Whole-graph traversal ------------------------------------------------ *)

  (* Preorder walk from the root tenures, each page once, marked in the
     store's bitmap over its page table, as sparse as the table however
     far apart the ids.  [f pid] runs as each page is reached, and, but
     for a leaf reached from its parent under [~leaves:false] (its level
     is known, so it is not read), the page is read and [visit pid page]
     runs on its {!view}.  Children come from the page's child column,
     through a stack of ids, a leaf's flagged in the low bit: a child
     that does not exist is skipped (dead record copies may reference
     disposed pages; queries can never follow them).  Whether each page
     was reached goes back to the caller. *)
  let walk t ~leaves ?(visit = fun _ _ -> ()) f =
    let seen = Mmap_store.marks t.store in
    let stack = ref (Array.make 64 0) and top = ref 0 in
    let push x =
      if !top = Array.length !stack then stack := Array.append !stack !stack;
      !stack.(!top) <- x;
      incr top
    in
    let roots = Root_star.tenures t.root_star in
    List.iter (fun (_, pid) -> push (Storage.Page_id.to_int pid lsl 1)) (List.rev roots);
    while !top > 0 do
      decr top;
      let x = !stack.(!top) in
      let pid = Storage.Page_id.of_int (x lsr 1) and is_leaf = x land 1 = 1 in
      if Mmap_store.mark seen pid then begin
        f pid;
        if leaves || not is_leaf then begin
          read t pid;
          let v = view t pid in
          let level = R.level v.buf v.off in
          visit pid v;
          if level > 0 then
            for i = v.count - 1 downto 0 do
              let c = W.child v i in
              if page_exists t (Storage.Page_id.of_int c) then
                push ((c lsl 1) lor if level = 1 then 1 else 0)
            done
        end
      end
    done;
    Mmap_store.marked seen

  let iter_pages t visit =
    let (_ : Storage.Page_id.t -> bool) = walk t ~leaves:true ~visit ignore in
    ()

  let record_count t =
    let n = ref 0 in
    iter_pages t (fun _ v -> n := !n + v.count);
    !n

  (* --- Invariant checking ---------------------------------------------------- *)

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let root_pids = List.map snd (Root_star.tenures t.root_star) in
    iter_pages t (fun page v ->
        let pid = Storage.Page_id.to_int page in
        let n = v.count and level = R.level v.buf v.off in
        let prange = Interval.make v.low (R.high v.buf v.off) in
        let created = v.created and closed = R.closed v.buf v.off in
        let records =
          List.init n (fun i ->
              ( Interval.make (W.key v (W.rank v i R.lo_col)) (W.key v (W.rank v i R.hi_col)),
                W.time v (W.rank v i R.start_col),
                W.time v (W.rank v i R.end_col),
                W.child v i ))
        in
        if n = 0 then fail "Mvsbt: page %d empty" pid;
        if n > t.cfg.b then fail "Mvsbt: page %d over-full" pid;
        let lifetime_hi = min closed (t.now_ + 1) in
        List.iter
          (fun (range, rt_start, rt_end, child) ->
            if Interval.is_empty range then fail "Mvsbt: empty record range";
            if not (Interval.subset range prange) then
              fail "Mvsbt: record range escapes page %d" pid;
            if rt_start > rt_end then fail "Mvsbt: inverted record interval";
            if rt_start < created then
              fail "Mvsbt: record starts before page %d was created" pid;
            if level = 0 && child <> -1 then fail "Mvsbt: leaf record with child in page %d" pid;
            if level > 0 && child < 0 then fail "Mvsbt: index record without child in page %d" pid;
            if level > 0 then begin
              let slice =
                Interval.inter
                  (Interval.make rt_start (min rt_end lifetime_hi))
                  (Interval.make created lifetime_hi)
              in
              let visible =
                (* Queries below the horizon are refused, so only the
                   part of the slice at or above it must stay sound. *)
                Interval.inter slice (Interval.make t.horizon lifetime_hi)
              in
              let c = Storage.Page_id.of_int child in
              match read t c with
              | exception Not_found ->
                  (* A reference to a disposed page is legal only when no
                     query can follow it. *)
                  if not (Interval.is_empty visible) then
                    fail "Mvsbt: reachable record references a disposed page"
              | () ->
                  let cbuf, coff, _ = frame t c in
                  if R.level cbuf coff <> level - 1 then fail "Mvsbt: level mismatch";
                  if not (Interval.equal (Interval.make (R.low cbuf coff) (R.high cbuf coff)) range)
                  then fail "Mvsbt: record range differs from child page range";
                  if
                    not
                      (Interval.subset visible
                         (Interval.make (R.created cbuf coff)
                            (min (R.closed cbuf coff) (t.now_ + 1))))
                  then fail "Mvsbt: record refers to child page outside its lifetime"
            end)
          records;
        (* Property 1 at every interesting instant of the page lifetime.
           It is only promised at queryable instants: vacuum prunes
           records dead below the horizon, so coverage below it is
           deliberately full of holes. *)
        let times =
          created :: t.horizon
          :: List.concat_map (fun (_, s, e, _) -> [ s; e ]) records
          |> List.filter (fun x -> created <= x && t.horizon <= x && x < lifetime_hi)
          |> List.sort_uniq Int.compare
        in
        List.iter
          (fun tau ->
            let alive_recs =
              List.filter (fun (_, s, e, _) -> s <= tau && tau < e) records
              |> List.map (fun (range, _, _, _) -> range)
              |> List.sort (fun (a : Interval.t) (b : Interval.t) -> Int.compare a.lo b.lo)
            in
            let rec chain pos = function
              | [] ->
                  if pos <> prange.Interval.hi then
                    fail "Mvsbt: page %d not covered at time %d (stops at %d)" pid tau pos
              | (r : Interval.t) :: rest ->
                  if r.lo <> pos then
                    fail "Mvsbt: gap/overlap in page %d at time %d (key %d, expected %d)" pid
                      tau r.lo pos;
                  chain r.hi rest
            in
            chain prange.Interval.lo alive_recs;
            (* Lemma 3: without merging, non-root pages keep at least
               ceil(f*b/2) alive records. *)
            if
              (not t.cfg.merging)
              && (not (List.mem page root_pids))
              && List.length alive_recs < (strong_cap t.cfg + 1) / 2
            then
              fail "Mvsbt: page %d below Lemma-3 density at time %d (%d alive)" pid tau
                (List.length alive_recs))
          times);
    (* Root tenures partition the time axis from the horizon up (vacuum
       prunes tenures that end at or below it). *)
    let rec tenure_chain pos = function
      | [] -> if pos <> forever then fail "Mvsbt: root tenures do not reach maxtime"
      | (iv, _) :: rest ->
          if iv.Interval.lo <> pos then fail "Mvsbt: root tenure gap at %d" pos;
          tenure_chain iv.Interval.hi rest
    in
    match Root_star.tenures t.root_star with
    | [] -> fail "Mvsbt: no root tenures"
    | (iv0, _) :: _ as ts ->
        if iv0.Interval.lo > t.horizon then
          fail "Mvsbt: root tenures start at %d, above the horizon %d" iv0.Interval.lo
            t.horizon;
        tenure_chain iv0.Interval.lo ts

  (* --- On-disk formats ---------------------------------------------------------- *)

  (* The handle state — configuration, clock, current root, root*
     directory — as the snapshot's state chunk carries it. *)
  type state = {
    s_cfg : config;
    s_key_space : int;
    s_now : int;
    s_horizon : int;
    s_cur_root : Storage.Page_id.t;
    s_height : int;
    s_roots : (int * Storage.Page_id.t) list;
  }

  let state_bytes t = 128 + (List.length (Root_star.tenures t.root_star) * 16)

  let encode_state w t =
    let module W = Storage.Codec.Writer in
    let tenures = Root_star.tenures t.root_star in
    W.i32 w t.cfg.b;
    W.i64 w (Int64.to_int (Int64.bits_of_float t.cfg.f));
    W.u8 w (match t.cfg.variant with Plain -> 0 | Logical -> 1);
    W.bool w t.cfg.merging;
    W.bool w t.cfg.disposal;
    W.bool w t.cfg.root_star_btree;
    W.i64 w t.key_space;
    W.i64 w t.now_;
    W.i64 w t.horizon;
    W.i64 w (Storage.Page_id.to_int t.cur_root);
    W.i32 w t.height;
    W.i32 w (List.length tenures);
    List.iter
      (fun (iv, pid) ->
        W.i64 w iv.Interval.lo;
        W.i64 w (Storage.Page_id.to_int pid))
      tenures

  let decode_state ~who rd =
    let module R = Storage.Codec.Reader in
    let b = R.i32 rd in
    let f = Int64.float_of_bits (Int64.of_int (R.i64 rd)) in
    let variant =
      match R.u8 rd with
      | 0 -> Plain
      | 1 -> Logical
      | _ -> failwith (who ^ ": bad variant")
    in
    let merging = R.bool rd in
    let disposal = R.bool rd in
    let root_star_btree = R.bool rd in
    let s_key_space = R.i64 rd in
    let s_now = R.i64 rd in
    let s_horizon = R.i64 rd in
    let s_cur_root = Storage.Page_id.of_int (R.i64 rd) in
    let s_height = R.i32 rd in
    let n_roots = R.i32 rd in
    let s_roots =
      List.init n_roots (fun _ ->
          let ts = R.i64 rd in
          let pid = Storage.Page_id.of_int (R.i64 rd) in
          (ts, pid))
    in
    { s_cfg = { b; f; variant; merging; disposal; root_star_btree }; s_key_space;
      s_now; s_horizon; s_cur_root; s_height; s_roots }

  let of_state ~io_stats ~policy ~pool_capacity store st =
    let root_star = Root_star.create ~btree:st.s_cfg.root_star_btree ~stats:io_stats () in
    List.iter (fun (ts, pid) -> Root_star.register root_star ~at:ts pid) st.s_roots;
    let t =
      handle ~cfg:st.s_cfg ~key_space:st.s_key_space ~io_stats ~root_star ~policy ~pool_capacity
        store ~root:st.s_cur_root
    in
    Mmap_pool.pin t.pool st.s_cur_root;
    { t with height = st.s_height; now_ = st.s_now; horizon = st.s_horizon }

  let corrupt_chunk path what =
    failwith (Printf.sprintf "Mvsbt: %s: corrupt %s chunk" path what)

  (* Stream the snapshot at [path]: [k] gets its state, the file's size
     and a function that feeds each verified page frame to a consumer, as
     a slice of a reused buffer valid only during the call.  A short,
     misframed, overlong or checksum-failing file fails. *)
  let with_snapshot ~vfs ~path k =
    Chunks.with_file vfs ~path ~magic:snapshot_magic @@ fun rd ->
    let st = decode_state ~who:"Mvsbt.of_snapshot" (Chunks.chunk rd) in
    k st rd.Chunks.size (fun page ->
        let n_pages = Storage.Codec.Reader.i32 (Chunks.chunk rd) in
        for _ = 1 to n_pages do
          page (Chunks.frame rd)
        done;
        if not (Chunks.at_end rd) then Chunks.fail rd "bytes after the last page")

  let create ?config ?(pool_capacity = 64) ?(policy = Storage.Evict.Lru) ?stats ?backing ?path
      ~key_space () =
    let cfg = match config with Some c -> c | None -> default_config ~b:64 in
    validate_create cfg key_space;
    let backing, path = overlay_at ?backing path in
    let io_stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
    let store =
      Mmap_store.create ~stats:io_stats ~page_size:(min_page_size cfg) ~backing ~path ()
    in
    boot ~cfg ~key_space ~io_stats ~policy ~pool_capacity store

  (* A state chunk brings in only what {!create} accepts: a configuration
     that passes {!validate_create}, and a [b] whose largest page payload
     fits a chunk, so a snapshot's config can never size its pages past
     what a snapshot can hold. *)
  let check_state ~path st =
    match validate_create st.s_cfg st.s_key_space with
    | () when R.max_payload ~b:st.s_cfg.b <= Chunks.max_len -> ()
    | () | (exception Invalid_argument _) -> corrupt_chunk path "state"

  (* A page chunk's structure ({!Record_codec}'s [well_formed], a record
     count within [b] among its rules), checked on a copy of its payload
     in [scratch], which grows to fit it, so that the rules read the bytes
     as a scan does.  {!of_snapshot} runs it before it stages a frame into
     a base.  The CRC only catches bit rot; these rules check input from
     outside the program. *)
  let check_page_chunk ~b ~path ~scratch (f : Chunks.frame) =
    if Bigarray.Array1.dim !scratch < f.len then
      scratch :=
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout
          (Int.max f.len (2 * Bigarray.Array1.dim !scratch));
    Storage.Zcodec.blit_of_bytes f.buf (f.pos + Chunks.frame_bytes) !scratch 0 f.len;
    if not (R.well_formed !scratch 0 f.len ~b) then corrupt_chunk path "page"

  (* Open a tree over a snapshot without decoding a page: each verified
     chunk frame already is the page's frame, CRC included, so the base
     records where it is — mapped, or copied into a RAM image — and the
     overlay starts empty.  The snapshot's config, checked before any
     store exists, sizes the pages.  A loaded tree is a served one, so
     its pool runs clock eviction: with queries scanning frames in place,
     eviction is pure bookkeeping, and the cheaper approximation beats
     exact LRU's list surgery per touch. *)
  let of_snapshot ?(pool_capacity = 64) ?stats ?(vfs = Storage.Vfs.os) ?backing ?path ~snapshot
      () =
    let backing, path = overlay_at ?backing path in
    let io_stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
    with_snapshot ~vfs ~path:snapshot @@ fun st size pages ->
    check_state ~path:snapshot st;
    let store =
      Mmap_store.create ~stats:io_stats ~page_size:(min_page_size st.s_cfg) ~backing ~path ()
    in
    try
      let staged = Mmap_store.stage store ~file:snapshot ~size () in
      let scratch = ref (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 4096) in
      pages (fun f ->
          check_page_chunk ~b:st.s_cfg.b ~path:snapshot ~scratch f;
          let id = Int64.to_int (Bytes.get_int64_le f.buf (f.pos + Chunks.frame_bytes)) in
          if
            id < 0
            || not
                 (Mmap_store.stage_frame staged (Storage.Page_id.of_int id)
                    ~offset:f.offset f.buf ~pos:f.pos ~len:(Chunks.frame_bytes + f.len))
          then corrupt_chunk snapshot "page");
      Mmap_store.rebase store staged;
      (* The root is pinned now, so it must be a page of the base. *)
      if not (Mmap_store.mem store st.s_cur_root) then corrupt_chunk snapshot "state";
      of_state ~io_stats ~policy:Storage.Evict.Second_chance ~pool_capacity store st
    with e ->
      Mmap_store.close store;
      raise e

  (* --- Snapshot persistence --------------------------------------------------- *)

  let write ~stage ~vfs t ~path =
    let file = vfs.Storage.Vfs.v_open `Create path in
    Fun.protect ~finally:(fun () -> file.Storage.Vfs.f_close ()) @@ fun () ->
    (* Counting what is appended gives each frame's offset in the file. *)
    let written = ref 0 in
    let oc =
      { file with
        Storage.Vfs.f_append =
          (fun buf pos len ->
            file.Storage.Vfs.f_append buf pos len;
            written := !written + len) }
    in
    let magic = Bytes.of_string snapshot_magic in
    oc.Storage.Vfs.f_append magic 0 (Bytes.length magic);
    let w = Chunks.writer (state_bytes t) in
    encode_state w t;
    Chunks.append oc w;
    (* Pages in the reverse of the walk's preorder, one frame each, the
       walk holding only ids: a bitmap of those reached and an array of
       them in order.  Then, ascending, from the same array, the pages no
       root* tenure reaches (without disposal, a root that root* replaced
       at the instant it was registered; mid-vacuum, the dead pages yet to
       be freed), so that a load holds every page the tree counts.
       The store already holds each page's frame, so every frame is
       copied as stored, its CRC verified on the way out, and a page in a
       slot is narrowed.  When [stage], each copied frame is staged, at
       its offset, into the base the tree moves onto once the file is
       durable. *)
    let order = ref (Array.make 256 0) and n = ref 0 in
    let add pid =
      if !n = Array.length !order then order := Array.append !order !order;
      !order.(!n) <- Storage.Page_id.to_int pid;
      incr n
    in
    let reached = walk t ~leaves:false add in
    let n_reached = !n in
    Mmap_store.iter_ids t.store (fun pid -> if not (reached pid) then add pid);
    let staged = if stage then Some (Mmap_store.stage t.store ~file:path ()) else None in
    let w = Chunks.writer 4 in
    Storage.Codec.Writer.i32 w !n;
    Chunks.append oc w;
    let copy pid =
      Mmap_pool.clean t.pool pid;
      let frame = Mmap_store.read_frame t.store pid in
      Option.iter
        (fun s ->
          ignore
            (Mmap_store.stage_frame s pid ~offset:!written frame ~pos:0
               ~len:(Bytes.length frame)))
        staged;
      Chunks.append_frame oc frame
    in
    for i = n_reached - 1 downto 0 do
      copy (Storage.Page_id.of_int !order.(i))
    done;
    for i = n_reached to !n - 1 do
      copy (Storage.Page_id.of_int !order.(i))
    done;
    match staged with
    | None -> ignore
    | Some s -> fun () -> Mmap_store.rebase t.store s

  let save ?(vfs = Storage.Vfs.os) t ~path =
    let (_ : unit -> unit) = write ~stage:false ~vfs t ~path in
    ()

  let save_staged ?(vfs = Storage.Vfs.os) t ~path = write ~stage:true ~vfs t ~path

  let pp_dot ppf t =
    Format.fprintf ppf "digraph mvsbt {@.  node [shape=record];@.";
    iter_pages t (fun pid v ->
        let id = Storage.Page_id.to_int pid in
        let label =
          String.concat "|"
            (List.init v.count (fun i ->
                 let stop = W.time v (W.rank v i R.end_col) in
                 Format.asprintf "%a@%d..%s: %a" Interval.pp
                   (Interval.make (W.key v (W.rank v i R.lo_col)) (W.key v (W.rank v i R.hi_col)))
                   (W.time v (W.rank v i R.start_col))
                   (if stop = forever then "inf" else string_of_int stop)
                   G.pp (W.value v i)))
        in
        Format.fprintf ppf "  p%d [label=\"{p%d lvl%d %a|%s}\"];@." id id (R.level v.buf v.off)
          Interval.pp
          (Interval.make v.low (R.high v.buf v.off))
          label;
        for i = 0 to v.count - 1 do
          let c = W.child v i in
          if c >= 0 then Format.fprintf ppf "  p%d -> p%d;@." id c
        done);
    Format.fprintf ppf "}@."
end
