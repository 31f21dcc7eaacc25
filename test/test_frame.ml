(* The [len][crc][payload] frame: the bytes of every file and message
   made of it, pinned as hex, and what each caller makes of a damaged
   one. *)

let temp_prefix () =
  let p = Filename.temp_file "mvsbt_frame" "" in
  Sys.remove p;
  p

let cleanup prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  Array.iter
    (fun name ->
      if String.starts_with ~prefix:base name then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let pin what want got = Alcotest.(check string) what want (hex got)

(* The [index]th frame of a checkpoint file, after its 16-byte magic,
   walked by hand from the length fields. *)
let nth_frame file index =
  let rec go at i =
    let len = Int32.to_int (String.get_int32_le file at) in
    if i = index then String.sub file at (8 + len) else go (at + 8 + len) (i + 1)
  in
  go 16 0

let test_pinned_bytes () =
  let prefix = temp_prefix () in
  Fun.protect ~finally:(fun () -> cleanup prefix) @@ fun () ->
  let wh = Durable.open_ ~max_key:1000 ~path:prefix () in
  Storage.Storage_error.ok_exn (Durable.insert wh ~key:7 ~value:42 ~at:3);
  Durable.close wh;
  let wal = read_file (prefix ^ ".wal") in
  pin "log header and one insert"
    "4d5653425457414c010000003d50f03121000000b3155424010000000000000001030000000000000007000000000000002a00000000000000"
    wal;
  let wh = Durable.open_ ~max_key:1000 ~path:prefix () in
  Storage.Storage_error.ok_exn (Durable.checkpoint wh);
  Durable.close wh;
  pin "pointer"
    "5254412d434b50542d5054522d310100000000000000e9c48f5e"
    (read_file (prefix ^ ".ckpt"));
  pin "meta chunk"
    "5254412d4d4554412d3234000000d25a8372e803000000000000030000000000000001000000000000000100000007000000000000002a000000000000000300000000000000"
    (read_file (prefix ^ ".ckpt-1.meta"));
  pin "page frame"
    "7a000000853606430000000000000000000000000000000000000000e9030000000000000000000000000000ffffffffffffff3f03000000030000000200000002010101010101010000000000000000000000000000000000ffffffffffffffff00000800e9030003000200010000000101020000010201022a0100000000000000"
    (nth_frame (read_file (prefix ^ ".ckpt-1.lkst")) 2);
  Replica.Epoch.store prefix 5;
  pin "epoch"
    "5254412d45504f43482d3105000000000000009bf1100f"
    (read_file (Replica.Epoch.path_of prefix));
  pin "insert request"
    "1a0000003dcf8c84010207000000000000002a000000000000000300000000000000"
    (Bytes.to_string (Wire.encode_request (Wire.Insert { key = 7; value = 42; at = 3 })));
  let record = Bytes.of_string (String.sub wal 24 (String.length wal - 24)) in
  pin "wal-frames response"
    "47000000c52868e201490200000000000000010000000000000001000000000000000100000021000000b3155424010000000000000001030000000000000007000000000000002a00000000000000"
    (Bytes.to_string
       (Wire.encode_response
          (Wire.Wal_frames { epoch = 2; durable = 1; commit = 1; frames = [ record ] })))

(* --- Damage ---------------------------------------------------------------------- *)

module F = Storage.Frame
module M = Storage.Vfs.Memory

type damage =
  | Cut of int  (** Keep this many bytes of the frame. *)
  | Length_bit of int
  | Crc_bit of int
  | Payload_bit of int * int  (** Byte, bit. *)
  | Garbage of string  (** After the intact frame. *)

let pp_damage ppf = function
  | Cut n -> Format.fprintf ppf "cut to %d bytes" n
  | Length_bit b -> Format.fprintf ppf "length bit %d" b
  | Crc_bit b -> Format.fprintf ppf "crc bit %d" b
  | Payload_bit (i, b) -> Format.fprintf ppf "payload byte %d bit %d" i b
  | Garbage g -> Format.fprintf ppf "%d bytes of garbage after it" (String.length g)

let flip b at bit = Bytes.set_uint8 b at (Bytes.get_uint8 b at lxor (1 lsl bit))

let damaged frame = function
  | Cut n -> Bytes.sub frame 0 n
  | Length_bit bit ->
      let b = Bytes.copy frame in
      flip b (bit / 8) (bit mod 8);
      b
  | Crc_bit bit ->
      let b = Bytes.copy frame in
      flip b (4 + (bit / 8)) (bit mod 8);
      b
  | Payload_bit (i, bit) ->
      let b = Bytes.copy frame in
      flip b (F.header_bytes + i) bit;
      b
  | Garbage g -> Bytes.cat frame (Bytes.of_string g)

(* What a check of the damaged frame must find, its payload at most
   [max_len] bytes: a cut is short, a flip in the CRC or the payload
   fails the CRC, and a flipped length is bad, short or, over a shorter
   payload, fails the CRC. *)
let expected ~max_len len = function
  | Cut _ -> F.Short
  | Length_bit bit ->
      let n = len lxor (1 lsl bit) in
      if n = 0 || n > max_len then F.Bad_length else if n > len then F.Short else F.Bad_crc
  | Crc_bit _ | Payload_bit _ -> F.Bad_crc
  | Garbage _ -> F.Whole

let record_max = 1 lsl 20

(* A log over RAM: its header, [intact] whole records, then [tail]. *)
let log_of intact tail =
  let fs = M.create () in
  let vfs = M.vfs fs in
  Wal.close (Wal.open_log (vfs.v_open `Log "w.wal"));
  let f = vfs.v_open `Reopen "w.wal" in
  List.iter (fun r -> f.f_append r 0 (Bytes.length r)) (intact @ [ tail ]);
  f.f_close ();
  vfs

(* The damaged frame is a request, so that the wire can decode it: a
   ping (a 2-byte payload), an insert or a delete, traced or not (up to
   34 bytes). *)
let gen_case =
  QCheck.Gen.(
    let* key = int and* value = int and* at = int and* trace = opt int64 in
    let* req =
      oneofl [ Wire.Ping; Wire.Insert { key; value; at }; Wire.Delete { key; at } ]
    in
    let* intact = list_size (int_bound 4) (string_size (int_range 1 60)) in
    let frame = Wire.encode_request ?trace req in
    let len = Bytes.length frame - F.header_bytes in
    let+ damage =
      oneof
        [ map (fun n -> Cut n) (int_bound (Bytes.length frame - 1));
          map (fun b -> Length_bit b) (int_bound 31);
          map (fun b -> Crc_bit b) (int_bound 31);
          map2 (fun i b -> Payload_bit (i, b)) (int_bound (len - 1)) (int_bound 7);
          map (fun g -> Garbage g) (string_size (int_range 1 40)) ]
    in
    (List.map Bytes.of_string intact, frame, damage))

let print_case (intact, frame, damage) =
  Format.asprintf "%d intact records, a %d-byte frame, %a" (List.length intact)
    (Bytes.length frame) pp_damage damage

(* One damaged frame after intact records, seen by each caller: the
   check classifies it as its damage says; replay keeps exactly the
   intact prefix, the frame too when only garbage follows it, and
   truncates the rest; the live tail delivers the same prefix, then
   waits at a short frame and reports any other; the wire answers a
   typed framing error, or decodes the frame under its garbage. *)
let prop_damage =
  QCheck.Test.make ~name:"every caller classifies a damaged frame as the frame check does"
    ~count:500
    (QCheck.make ~print:print_case gen_case)
    (fun (intact_payloads, frame, damage) ->
      let len = Bytes.length frame - F.header_bytes in
      let bytes = damaged frame damage in
      let status = F.check bytes ~pos:0 ~avail:(Bytes.length bytes) ~max_len:record_max in
      let intact =
        List.map (fun p -> F.make p ~pos:0 ~len:(Bytes.length p)) intact_payloads
        @ (match damage with Garbage _ -> [ frame ] | _ -> [])
      in
      let tail = match damage with Garbage g -> Bytes.of_string g | _ -> bytes in
      let kept = List.fold_left (fun n r -> n + Bytes.length r) Wal.header_bytes intact in
      let tail_status = F.check tail ~pos:0 ~avail:(Bytes.length tail) ~max_len:record_max in
      (* Replay. *)
      let vfs = log_of intact tail in
      let wal = Wal.open_log (vfs.v_open `Log "w.wal") in
      let replayed = Wal.replay wal (fun _ -> ()) in
      let replay_ok = replayed = List.length intact && Wal.size wal = kept in
      Wal.close wal;
      (* The live tail, over the log as damaged. *)
      let t = Wal.Tail.create ((log_of intact tail).v_open `Reopen "w.wal") in
      let frames = List.init (List.length intact) (fun _ -> Wal.Tail.poll t) in
      let tail_ok =
        List.for_all2
          (fun ev r ->
            ev = Wal.Tail.Frame (Bytes.sub r F.header_bytes (Bytes.length r - F.header_bytes)))
          frames intact
        &&
        match (tail_status, Wal.Tail.poll t) with
        | F.Short, Wal.Tail.Need_more | (F.Bad_length | F.Bad_crc), Wal.Tail.Corrupt _ -> true
        | _ -> false
      in
      (* The wire, over the damaged frame alone. *)
      let wire_ok =
        match (damage, Wire.decode_request ~buf:bytes ~pos:0 ~avail:(Bytes.length bytes)) with
        | Garbage _, Wire.Complete (_, used) -> used = Bytes.length frame
        | Length_bit bit, Wire.Fail (Wire.Oversized n) ->
            n = len lxor (1 lsl bit) && n > Wire.max_payload_bytes
        | Length_bit bit, Wire.Fail (Wire.Bad_length n) -> n = len lxor (1 lsl bit) && n < 2
        | _, Wire.Incomplete -> status = F.Short
        | _, Wire.Fail Wire.Bad_crc -> status = F.Bad_crc
        | _ -> false
      in
      status = expected ~max_len:record_max len damage && replay_ok && tail_ok && wire_ok)

(* The check allocates nothing, over bytes or a mapping: the page store
   runs it on every scan of a stored page. *)
let test_check_allocates_nothing () =
  let payload = Bytes.init 700 (fun i -> Char.chr (i land 0xff)) in
  let frame = F.make payload ~pos:0 ~len:700 in
  let mapped = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (Bytes.length frame) in
  Storage.Zcodec.blit_of_bytes frame 0 mapped 0 (Bytes.length frame);
  let avail = Bytes.length frame in
  Alcotest.(check bool) "whole" true
    (F.check frame ~pos:0 ~avail ~max_len:4096 = F.Whole
    && F.Mapped.check mapped ~pos:0 ~avail ~max_len:4096 = F.Whole);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (F.check frame ~pos:0 ~avail ~max_len:4096));
    ignore (Sys.opaque_identity (F.Mapped.check mapped ~pos:0 ~avail ~max_len:4096))
  done;
  let words = Gc.minor_words () -. before in
  if words > 64. then Alcotest.failf "%.0f minor words over 20,000 checks" words

(* A region of zeros, as a file system may leave past a crash, reads as
   frames of length 0 whose CRC, that of no bytes, is 0: the check calls
   them a bad length, and replay truncates them. *)
let test_zeros () =
  let zeros = Bytes.make 64 '\000' in
  Alcotest.(check bool) "zeros are a bad length" true
    (F.check zeros ~pos:0 ~avail:64 ~max_len:record_max = F.Bad_length);
  let vfs = log_of [ F.make (Bytes.of_string "kept") ~pos:0 ~len:4 ] zeros in
  let wal = Wal.open_log (vfs.v_open `Log "w.wal") in
  Alcotest.(check int) "the record before them replays" 1 (Wal.replay wal ignore);
  Alcotest.(check int) "the zeros are cut off" (Wal.header_bytes + F.header_bytes + 4)
    (Wal.size wal);
  Wal.close wal

let () =
  Alcotest.run "frame"
    [ ("pinned bytes", [ Alcotest.test_case "every framed file and message" `Quick test_pinned_bytes ]);
      ( "damage",
        [ Alcotest.test_case "the check allocates nothing" `Quick test_check_allocates_nothing;
          Alcotest.test_case "a region of zeros is no frame" `Quick test_zeros;
          QCheck_alcotest.to_alcotest prop_damage ] ) ]
