let header_bytes = 8

type status = Whole | Short | Bad_length | Bad_crc

(* A CRC goes in through its signed 32-bit image, and is read back
   masked. *)
let u32 buf pos = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFFFFFF
let length = u32

let check buf ~pos ~avail ~max_len =
  if pos < 0 || avail < 0 || pos > Bytes.length buf - avail then
    invalid_arg "Frame.check: window outside buffer";
  if avail < header_bytes then Short
  else
    let len = length buf pos in
    if len = 0 || len > max_len then Bad_length
    else if avail - header_bytes < len then Short
    else if Codec.crc32 buf ~pos:(pos + header_bytes) ~len <> u32 buf (pos + 4) then Bad_crc
    else Whole

let seal buf ~pos ~len =
  Bytes.set_int32_le buf pos (Int32.of_int len);
  Bytes.set_int32_le buf (pos + 4)
    (Int32.of_int (Codec.crc32 buf ~pos:(pos + header_bytes) ~len))

let make buf ~pos ~len =
  let out = Bytes.create (header_bytes + len) in
  Bytes.blit buf pos out header_bytes len;
  seal out ~pos:0 ~len;
  out

module Mapped = struct
  let check (buf : Zcodec.buf) ~pos ~avail ~max_len =
    if pos < 0 || avail < 0 || pos > Bigarray.Array1.dim buf - avail then
      invalid_arg "Frame.Mapped.check: window outside buffer";
    if avail < header_bytes then Short
    else
      let len = Zcodec.get_i32 buf pos land 0xFFFFFFFF in
      if len = 0 || len > max_len then Bad_length
      else if avail - header_bytes < len then Short
      else if
        Zcodec.crc32 buf ~pos:(pos + header_bytes) ~len
        <> Zcodec.get_i32 buf (pos + 4) land 0xFFFFFFFF
      then Bad_crc
      else Whole

  let seal buf ~pos ~len =
    Zcodec.set_i32 buf pos len;
    Zcodec.set_i32 buf (pos + 4) (Zcodec.crc32 buf ~pos:(pos + header_bytes) ~len)
end

(* --- Framed files ------------------------------------------------------------- *)

let max_chunk = 1 lsl 30

let writer n =
  let w = Codec.Writer.create (header_bytes + n) in
  Codec.Writer.i64 w 0;
  w

let append_frame out buf =
  out.Vfs.f_append buf 0 header_bytes;
  out.Vfs.f_append buf header_bytes (Bytes.length buf - header_bytes)

let append out w =
  let buf = Codec.Writer.contents w in
  let len = Codec.Writer.pos w - header_bytes in
  seal buf ~pos:0 ~len;
  out.Vfs.f_append buf 0 header_bytes;
  out.Vfs.f_append buf header_bytes len

module Reader = struct
  type t = {
    file : Vfs.file;
    path : string;
    max_len : int;
    mutable size : int;
    mutable buf : bytes;
    mutable pos : int; (* next unread byte of [buf] *)
    mutable lim : int; (* end of the bytes read into [buf] *)
    mutable file_pos : int; (* file offset of [buf]'s byte [lim] *)
    mutable index : int; (* of the next frame *)
  }

  type frame = { offset : int; index : int; buf : bytes; pos : int; len : int }

  type event = Whole of frame | Bad_crc of frame | Bad_length of int | Torn of int | End

  let fail (rd : t) msg = failwith (Printf.sprintf "%s: %s" rd.path msg)

  let create ?(max_len = max_chunk) ?(from = 0) ~path file =
    { file; path; max_len; size = file.Vfs.f_size (); buf = Bytes.create 65536; pos = 0;
      lim = 0; file_pos = from; index = 0 }

  let offset (rd : t) = rd.file_pos - (rd.lim - rd.pos)
  let size (rd : t) = rd.size

  let seek (rd : t) off =
    rd.pos <- 0;
    rd.lim <- 0;
    rd.file_pos <- off

  (* Make the next [n] bytes contiguous in [rd.buf] from [rd.pos]; false
     if the file ends first.  A request past the end fails before any
     buffer is grown for it. *)
  let fill (rd : t) n =
    let have = rd.lim - rd.pos in
    if have < n && have + (rd.size - rd.file_pos) < n then rd.size <- rd.file.Vfs.f_size ();
    if have >= n || have + (rd.size - rd.file_pos) < n then have >= n
    else begin
      let dst =
        if n <= Bytes.length rd.buf then rd.buf
        else Bytes.create (max n (2 * Bytes.length rd.buf))
      in
      Bytes.blit rd.buf rd.pos dst 0 have;
      rd.buf <- dst;
      rd.pos <- 0;
      rd.lim <- have;
      let want = have + min (Bytes.length dst - have) (rd.size - rd.file_pos) in
      let got = ref 1 in
      while rd.lim < want && !got > 0 do
        got := rd.file.Vfs.f_pread rd.file_pos dst rd.lim (want - rd.lim);
        rd.lim <- rd.lim + !got;
        rd.file_pos <- rd.file_pos + !got
      done;
      rd.lim >= n
    end

  let at_end (rd : t) =
    rd.pos = rd.lim
    && rd.file_pos >= rd.size
    && begin
         rd.size <- rd.file.Vfs.f_size ();
         rd.file_pos >= rd.size
       end

  (* The frame at [rd.pos], all of it in the buffer, and past it. *)
  let step (rd : t) =
    let pos = rd.pos and index = rd.index in
    let f = { offset = offset rd; index; buf = rd.buf; pos; len = length rd.buf pos } in
    rd.pos <- pos + header_bytes + f.len;
    rd.index <- index + 1;
    f

  let rec next (rd : t) =
    let avail = rd.lim - rd.pos in
    match check rd.buf ~pos:rd.pos ~avail ~max_len:rd.max_len with
    | Short when at_end rd -> End
    | Short ->
        let want =
          if avail < header_bytes then header_bytes
          else header_bytes + length rd.buf rd.pos
        in
        if fill rd want then next rd
        else begin
          (* Nothing of a torn frame is kept: it is read afresh, in case
             its bytes are rewritten before they are complete. *)
          let off = offset rd in
          seek rd off;
          Torn off
        end
    | Bad_length -> Bad_length (offset rd)
    | Whole -> Whole (step rd)
    | Bad_crc -> Bad_crc (step rd)

  let whole rd =
    match next rd with
    | Whole f -> f
    | Bad_crc f ->
        Storage_error.raise_io ~op:Storage_error.Pread ~path:rd.path
          ~detail:(Printf.sprintf "chunk %d" f.index) Storage_error.Checksum_mismatch
    | Bad_length off -> fail rd (Printf.sprintf "bad frame length at offset %d" off)
    | Torn off -> fail rd (Printf.sprintf "torn frame at offset %d" off)
    | End -> fail rd "truncated file"

  let payload rd =
    let f = whole rd in
    Codec.Reader.create ~pos:(f.pos + header_bytes) ~len:f.len f.buf

  let finish rd = match next rd with End -> () | _ -> fail rd "bytes after the last frame"

  let with_file vfs ~path ~magic k =
    let file = vfs.Vfs.v_open `Reopen path in
    Fun.protect ~finally:(fun () -> file.Vfs.f_close ()) @@ fun () ->
    let rd = create ~path file in
    let n = String.length magic in
    let got = if fill rd n then Bytes.sub_string rd.buf 0 n else "" in
    if got <> magic then begin
      let family = String.sub magic 0 (String.rindex magic '-' + 1) in
      if String.starts_with ~prefix:family got then
        fail rd (Printf.sprintf "format %s is not readable (this build reads %s)" got magic)
      else fail rd "bad magic"
    end;
    rd.pos <- n;
    k rd
end

(* --- Word files --------------------------------------------------------------- *)

module Word = struct
  let encode ~magic ~width v =
    let n = String.length magic in
    let buf = Bytes.create (n + width + 4) in
    Bytes.blit_string magic 0 buf 0 n;
    if width = 4 then Bytes.set_int32_le buf n (Int32.of_int v)
    else Bytes.set_int64_le buf n (Int64.of_int v);
    Bytes.set_int32_le buf (n + width) (Int32.of_int (Codec.crc32 buf ~pos:0 ~len:(n + width)));
    buf

  let decode ~magic ~width buf =
    let n = String.length magic in
    if Bytes.length buf <> n + width + 4 then
      Error (Printf.sprintf "bad size %d" (Bytes.length buf))
    else if Codec.crc32 buf ~pos:0 ~len:(n + width) <> u32 buf (n + width) then
      Error "checksum mismatch"
    else if Bytes.sub_string buf 0 n <> magic then Error "bad magic"
    else if width = 4 then Ok (Int32.to_int (Bytes.get_int32_le buf n))
    else Ok (Int64.to_int (Bytes.get_int64_le buf n))

  let store vfs ~path ~magic v =
    let buf = encode ~magic ~width:8 v in
    Vfs.write_file_atomic vfs ~path buf ~len:(Bytes.length buf);
    vfs.Vfs.v_sync_dir (Filename.dirname path)

  let load vfs ~path ~magic =
    if not (vfs.Vfs.v_exists path) then None
    else
      match decode ~magic ~width:8 (Vfs.read_file vfs path) with
      | Ok v -> Some v
      | Error e -> failwith (Printf.sprintf "%s: corrupt (%s)" path e)
end
