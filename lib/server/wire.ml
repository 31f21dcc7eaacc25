module Codec = Storage.Codec

let version = 1
let version_traced = 2
let frame_header_bytes = Storage.Frame.header_bytes (* before the payload *)
let max_payload_bytes = 1 lsl 16

(* Tags.  Requests and responses live in disjoint ranges so a stream
   accidentally decoded with the wrong direction fails loudly on the tag,
   not silently as a different message. *)
let tag_query = 1
let tag_insert = 2
let tag_delete = 3
let tag_checkpoint = 4
let tag_stats = 5
let tag_health = 6
let tag_ping = 7
let tag_shutdown = 8
let tag_shard_stats = 9
let tag_wal_subscribe = 10
let tag_wal_ack = 11
let tag_replica_stats = 12
let tag_promote = 13
let tag_vacuum = 14
let tag_observe = 15
let tag_agg = 65
let tag_ack = 66
let tag_err = 67
let tag_stats_reply = 68
let tag_health_reply = 69
let tag_pong = 70
let tag_shard_stats_reply = 71
let tag_sub_ok = 72
let tag_wal_frames = 73
let tag_replica_stats_reply = 74
let tag_vacuum_reply = 75
let tag_observe_reply = 76

type agg = Sum | Count | Avg

type request =
  | Query of { agg : agg; klo : int; khi : int; tlo : int; thi : int }
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }
  | Checkpoint
  | Stats
  | Health
  | Ping
  | Shutdown
  | Shard_stats
  | Wal_subscribe of { epoch : int; from_seq : int }
  | Wal_ack of { epoch : int; seq : int }
  | Replica_stats
  | Promote
  | Vacuum of { horizon : int; max_pages_per_step : int }
  | Observe

type error_code =
  | Bad_request
  | Invalid_request
  | Overloaded
  | Read_only
  | Write_failed
  | Shutting_down
  | Fenced
  | Rebootstrap
  | Below_horizon

let pp_error_code ppf c =
  Format.pp_print_string ppf
    (match c with
    | Bad_request -> "bad-request"
    | Invalid_request -> "invalid-request"
    | Overloaded -> "overloaded"
    | Read_only -> "read-only"
    | Write_failed -> "write-failed"
    | Shutting_down -> "shutting-down"
    | Fenced -> "fenced"
    | Rebootstrap -> "rebootstrap"
    | Below_horizon -> "below-horizon")

type stats = {
  updates : int;
  alive : int;
  pages : int;
  now : int;
  health : Durable.health;
  queue_depth : int;
  in_flight : int;
  conns : int;
  requests : int;
  shed : int;
  batches : int;
  batched_writes : int;
  wal_syncs : int;
  horizon : int;
  pages_reclaimed : int;
  vacuum_steps : int;
}

(* Max shards is 64 ({!Shard.Cluster}), so the largest reply is ~6 KiB —
   comfortably under [max_payload_bytes]. *)
type shard_stat = {
  shard : int;
  s_klo : int;
  s_khi : int;  (* the shard's half-open key range *)
  watermark : int;  (* committed updates published by the writer *)
  reader_watermark : int;  (* min applied across readers; = watermark if none *)
  s_now : int;
  s_alive : int;
  s_queue : int;  (* writer mailbox depth *)
  s_batches : int;
  s_acked : int;
  s_wal_syncs : int;
  s_health : Durable.health;
  s_io_reads : int;
  s_io_writes : int;
  s_io_syncs : int;
}

type role = R_single | R_leader | R_follower

(* Replication counters and watermarks; on a leader [r_durable] is the
   fsync-covered log prefix and [r_followers] the per-subscriber acked
   sequences; on a follower [r_durable] is its own replayed watermark and
   [r_leader_durable] the last watermark heard from upstream. *)
type replica_stats = {
  r_role : role;
  r_epoch : int;
  r_durable : int;
  r_commit : int;  (* replication-acknowledged (client-ackable) watermark *)
  r_leader_durable : int;
  r_lag : int;
  r_frames_shipped : int;
  r_frames_replayed : int;
  r_promotions : int;
  r_followers : (int * int) list;  (* subscriber id, acked seq *)
}

type response =
  | Agg of { sum : int; count : int }
  | Ack
  | Err of { code : error_code; detail : string }
  | Stats_reply of stats
  | Health_reply of Durable.health
  | Pong
  | Shard_stats_reply of shard_stat list
  | Sub_ok of { epoch : int; floor : int; durable : int }
  | Wal_frames of { epoch : int; durable : int; commit : int; frames : bytes list }
  | Replica_stats_reply of replica_stats
  | Vacuum_reply of {
      v_horizon : int;
      v_steps : int;
      v_pages_freed : int;
      v_pages_pruned : int;
      v_records_dropped : int;
    }
  | Observe_reply of string  (* JSON text; schema owned by the server *)

let pp_agg ppf a =
  Format.pp_print_string ppf (match a with Sum -> "sum" | Count -> "count" | Avg -> "avg")

let pp_request ppf = function
  | Query { agg; klo; khi; tlo; thi } ->
      Format.fprintf ppf "query %a [%d,%d)x[%d,%d)" pp_agg agg klo khi tlo thi
  | Insert { key; value; at } -> Format.fprintf ppf "insert key=%d value=%d at=%d" key value at
  | Delete { key; at } -> Format.fprintf ppf "delete key=%d at=%d" key at
  | Checkpoint -> Format.pp_print_string ppf "checkpoint"
  | Stats -> Format.pp_print_string ppf "stats"
  | Health -> Format.pp_print_string ppf "health"
  | Ping -> Format.pp_print_string ppf "ping"
  | Shutdown -> Format.pp_print_string ppf "shutdown"
  | Shard_stats -> Format.pp_print_string ppf "shard-stats"
  | Wal_subscribe { epoch; from_seq } ->
      Format.fprintf ppf "wal-subscribe epoch=%d from=%d" epoch from_seq
  | Wal_ack { epoch; seq } -> Format.fprintf ppf "wal-ack epoch=%d seq=%d" epoch seq
  | Replica_stats -> Format.pp_print_string ppf "replica-stats"
  | Promote -> Format.pp_print_string ppf "promote"
  | Vacuum { horizon; max_pages_per_step } ->
      Format.fprintf ppf "vacuum horizon=%d step=%d" horizon max_pages_per_step
  | Observe -> Format.pp_print_string ppf "observe"

let pp_role ppf r =
  Format.pp_print_string ppf
    (match r with R_single -> "single" | R_leader -> "leader" | R_follower -> "follower")

let pp_shard_stat ppf s =
  Format.fprintf ppf
    "shard %d [%d,%d) watermark=%d reader=%d queue=%d batches=%d acked=%d health=%a"
    s.shard s.s_klo s.s_khi s.watermark s.reader_watermark s.s_queue s.s_batches
    s.s_acked Durable.pp_health s.s_health

let pp_response ppf = function
  | Agg { sum; count } -> Format.fprintf ppf "agg sum=%d count=%d" sum count
  | Ack -> Format.pp_print_string ppf "ack"
  | Err { code; detail } ->
      Format.fprintf ppf "err %a%s" pp_error_code code
        (if detail = "" then "" else " (" ^ detail ^ ")")
  | Stats_reply s ->
      Format.fprintf ppf "stats updates=%d alive=%d health=%a queue=%d shed=%d" s.updates
        s.alive Durable.pp_health s.health s.queue_depth s.shed
  | Health_reply h -> Format.fprintf ppf "health %a" Durable.pp_health h
  | Pong -> Format.pp_print_string ppf "pong"
  | Shard_stats_reply ss -> Format.fprintf ppf "shard-stats n=%d" (List.length ss)
  | Sub_ok { epoch; floor; durable } ->
      Format.fprintf ppf "sub-ok epoch=%d floor=%d durable=%d" epoch floor durable
  | Wal_frames { epoch; durable; commit; frames } ->
      Format.fprintf ppf "wal-frames epoch=%d durable=%d commit=%d n=%d" epoch durable
        commit (List.length frames)
  | Replica_stats_reply r ->
      Format.fprintf ppf "replica-stats role=%a epoch=%d durable=%d commit=%d lag=%d"
        pp_role r.r_role r.r_epoch r.r_durable r.r_commit r.r_lag
  | Vacuum_reply v ->
      Format.fprintf ppf "vacuumed horizon=%d steps=%d freed=%d pruned=%d dropped=%d"
        v.v_horizon v.v_steps v.v_pages_freed v.v_pages_pruned v.v_records_dropped
  | Observe_reply body -> Format.fprintf ppf "observe-reply %d bytes" (String.length body)

let is_write = function Insert _ | Delete _ -> true | _ -> false

(* --- Encoding ----------------------------------------------------------------- *)

(* Error details travel over the network; cap them so a pathological
   Storage_error cannot blow the frame bound. *)
let max_detail_bytes = 512

let agg_code = function Sum -> 0 | Count -> 1 | Avg -> 2
let error_code_u8 = function
  | Bad_request -> 0
  | Invalid_request -> 1
  | Overloaded -> 2
  | Read_only -> 3
  | Write_failed -> 4
  | Shutting_down -> 5
  | Fenced -> 6
  | Rebootstrap -> 7
  | Below_horizon -> 8

let health_u8 = function Durable.Healthy -> 0 | Durable.Degraded -> 1 | Durable.Read_only -> 2
let role_u8 = function R_single -> 0 | R_leader -> 1 | R_follower -> 2

let check_len len =
  if len = 0 then invalid_arg "Wire.frame: empty payload";
  if len > max_payload_bytes then invalid_arg "Wire.frame: payload exceeds max_payload_bytes"

let frame payload =
  let len = Bytes.length payload in
  check_len len;
  Storage.Frame.make payload ~pos:0 ~len

(* One frame, exactly sized, sealed in place.  An untraced message is
   the version-1 layout byte for byte ([version, tag, body]); a trace id
   switches the frame to version 2 ([version_traced, trace i64, tag,
   body]).  Version negotiation is per-frame: a v1-only peer never sends
   or receives v2 frames, and a traced server answers v1 requests with
   v1 responses. *)
let payload ?trace ~tag ~body_bytes fill =
  let w = Storage.Frame.writer ((if Option.is_none trace then 2 else 10) + body_bytes) in
  (match trace with
  | None -> Codec.Writer.u8 w version
  | Some id ->
      Codec.Writer.u8 w version_traced;
      Codec.Writer.i64 w (Int64.to_int id));
  Codec.Writer.u8 w tag;
  fill w;
  let buf = Codec.Writer.contents w in
  let len = Bytes.length buf - frame_header_bytes in
  check_len len;
  Storage.Frame.seal buf ~pos:0 ~len;
  buf

let write_string w s =
  Codec.Writer.i32 w (String.length s);
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) s

let write_bytes_raw w b = Bytes.iter (fun c -> Codec.Writer.u8 w (Char.code c)) b

let encode_request ?trace req =
  let payload ~tag ~body_bytes fill = payload ?trace ~tag ~body_bytes fill in
  match req with
  | Query { agg; klo; khi; tlo; thi } ->
      payload ~tag:tag_query ~body_bytes:(1 + (4 * 8)) (fun w ->
          Codec.Writer.u8 w (agg_code agg);
          Codec.Writer.i64 w klo;
          Codec.Writer.i64 w khi;
          Codec.Writer.i64 w tlo;
          Codec.Writer.i64 w thi)
  | Insert { key; value; at } ->
      payload ~tag:tag_insert ~body_bytes:(3 * 8) (fun w ->
          Codec.Writer.i64 w key;
          Codec.Writer.i64 w value;
          Codec.Writer.i64 w at)
  | Delete { key; at } ->
      payload ~tag:tag_delete ~body_bytes:(2 * 8) (fun w ->
          Codec.Writer.i64 w key;
          Codec.Writer.i64 w at)
  | Checkpoint -> payload ~tag:tag_checkpoint ~body_bytes:0 ignore
  | Stats -> payload ~tag:tag_stats ~body_bytes:0 ignore
  | Health -> payload ~tag:tag_health ~body_bytes:0 ignore
  | Ping -> payload ~tag:tag_ping ~body_bytes:0 ignore
  | Shutdown -> payload ~tag:tag_shutdown ~body_bytes:0 ignore
  | Shard_stats -> payload ~tag:tag_shard_stats ~body_bytes:0 ignore
  | Wal_subscribe { epoch; from_seq } ->
      payload ~tag:tag_wal_subscribe ~body_bytes:(2 * 8) (fun w ->
          Codec.Writer.i64 w epoch;
          Codec.Writer.i64 w from_seq)
  | Wal_ack { epoch; seq } ->
      payload ~tag:tag_wal_ack ~body_bytes:(2 * 8) (fun w ->
          Codec.Writer.i64 w epoch;
          Codec.Writer.i64 w seq)
  | Replica_stats -> payload ~tag:tag_replica_stats ~body_bytes:0 ignore
  | Promote -> payload ~tag:tag_promote ~body_bytes:0 ignore
  | Vacuum { horizon; max_pages_per_step } ->
      payload ~tag:tag_vacuum ~body_bytes:(2 * 8) (fun w ->
          Codec.Writer.i64 w horizon;
          Codec.Writer.i64 w max_pages_per_step)
  | Observe -> payload ~tag:tag_observe ~body_bytes:0 ignore

let shard_stat_bytes = (14 * 8) + 1

let write_shard_stat w s =
  Codec.Writer.i64 w s.shard;
  Codec.Writer.i64 w s.s_klo;
  Codec.Writer.i64 w s.s_khi;
  Codec.Writer.i64 w s.watermark;
  Codec.Writer.i64 w s.reader_watermark;
  Codec.Writer.i64 w s.s_now;
  Codec.Writer.i64 w s.s_alive;
  Codec.Writer.i64 w s.s_queue;
  Codec.Writer.i64 w s.s_batches;
  Codec.Writer.i64 w s.s_acked;
  Codec.Writer.i64 w s.s_wal_syncs;
  Codec.Writer.u8 w (health_u8 s.s_health);
  Codec.Writer.i64 w s.s_io_reads;
  Codec.Writer.i64 w s.s_io_writes;
  Codec.Writer.i64 w s.s_io_syncs

(* Observe replies carry free-form JSON; leave headroom for the header
   and trace id when capping. *)
let max_observe_bytes = max_payload_bytes - 64

let encode_response ?trace resp =
  let payload ~tag ~body_bytes fill = payload ?trace ~tag ~body_bytes fill in
  match resp with
  | Agg { sum; count } ->
      payload ~tag:tag_agg ~body_bytes:(2 * 8) (fun w ->
          Codec.Writer.i64 w sum;
          Codec.Writer.i64 w count)
  | Ack -> payload ~tag:tag_ack ~body_bytes:0 ignore
  | Err { code; detail } ->
      let detail =
        if String.length detail <= max_detail_bytes then detail
        else String.sub detail 0 max_detail_bytes
      in
      payload ~tag:tag_err ~body_bytes:(1 + 4 + String.length detail) (fun w ->
          Codec.Writer.u8 w (error_code_u8 code);
          write_string w detail)
  | Stats_reply s ->
      payload ~tag:tag_stats_reply ~body_bytes:((15 * 8) + 1) (fun w ->
          Codec.Writer.i64 w s.updates;
          Codec.Writer.i64 w s.alive;
          Codec.Writer.i64 w s.pages;
          Codec.Writer.i64 w s.now;
          Codec.Writer.u8 w (health_u8 s.health);
          Codec.Writer.i64 w s.queue_depth;
          Codec.Writer.i64 w s.in_flight;
          Codec.Writer.i64 w s.conns;
          Codec.Writer.i64 w s.requests;
          Codec.Writer.i64 w s.shed;
          Codec.Writer.i64 w s.batches;
          Codec.Writer.i64 w s.batched_writes;
          Codec.Writer.i64 w s.wal_syncs;
          Codec.Writer.i64 w s.horizon;
          Codec.Writer.i64 w s.pages_reclaimed;
          Codec.Writer.i64 w s.vacuum_steps)
  | Health_reply h ->
      payload ~tag:tag_health_reply ~body_bytes:1 (fun w -> Codec.Writer.u8 w (health_u8 h))
  | Pong -> payload ~tag:tag_pong ~body_bytes:0 ignore
  | Shard_stats_reply ss ->
      let n = List.length ss in
      payload ~tag:tag_shard_stats_reply
        ~body_bytes:(4 + (n * shard_stat_bytes))
        (fun w ->
          Codec.Writer.i32 w n;
          List.iter (write_shard_stat w) ss)
  | Sub_ok { epoch; floor; durable } ->
      payload ~tag:tag_sub_ok ~body_bytes:(3 * 8) (fun w ->
          Codec.Writer.i64 w epoch;
          Codec.Writer.i64 w floor;
          Codec.Writer.i64 w durable)
  | Wal_frames { epoch; durable; commit; frames } ->
      (* Each shipped record is a {!Storage.Frame}, as in the log, inside
         the message, on top of the message's own frame — a follower
         re-checks every record before replaying it. *)
      let body =
        (3 * 8) + 4 + List.fold_left (fun a f -> a + 8 + Bytes.length f) 0 frames
      in
      payload ~tag:tag_wal_frames ~body_bytes:body (fun w ->
          Codec.Writer.i64 w epoch;
          Codec.Writer.i64 w durable;
          Codec.Writer.i64 w commit;
          Codec.Writer.i32 w (List.length frames);
          List.iter
            (fun f ->
              let at = Codec.Writer.pos w in
              Codec.Writer.i64 w 0;
              write_bytes_raw w f;
              Storage.Frame.seal (Codec.Writer.contents w) ~pos:at ~len:(Bytes.length f))
            frames)
  | Replica_stats_reply r ->
      let n = List.length r.r_followers in
      payload ~tag:tag_replica_stats_reply
        ~body_bytes:(1 + (8 * 8) + 4 + (n * 16))
        (fun w ->
          Codec.Writer.u8 w (role_u8 r.r_role);
          Codec.Writer.i64 w r.r_epoch;
          Codec.Writer.i64 w r.r_durable;
          Codec.Writer.i64 w r.r_commit;
          Codec.Writer.i64 w r.r_leader_durable;
          Codec.Writer.i64 w r.r_lag;
          Codec.Writer.i64 w r.r_frames_shipped;
          Codec.Writer.i64 w r.r_frames_replayed;
          Codec.Writer.i64 w r.r_promotions;
          Codec.Writer.i32 w n;
          List.iter
            (fun (id, acked) ->
              Codec.Writer.i64 w id;
              Codec.Writer.i64 w acked)
            r.r_followers)
  | Vacuum_reply v ->
      payload ~tag:tag_vacuum_reply ~body_bytes:(5 * 8) (fun w ->
          Codec.Writer.i64 w v.v_horizon;
          Codec.Writer.i64 w v.v_steps;
          Codec.Writer.i64 w v.v_pages_freed;
          Codec.Writer.i64 w v.v_pages_pruned;
          Codec.Writer.i64 w v.v_records_dropped)
  | Observe_reply body ->
      let body =
        if String.length body <= max_observe_bytes then body
        else String.sub body 0 max_observe_bytes
      in
      payload ~tag:tag_observe_reply ~body_bytes:(4 + String.length body) (fun w ->
          write_string w body)

(* --- Decoding ----------------------------------------------------------------- *)

type error =
  | Oversized of int
  | Bad_length of int
  | Bad_crc
  | Unknown_version of int
  | Unknown_tag of int
  | Bad_payload of string

let pp_error ppf = function
  | Oversized n -> Format.fprintf ppf "oversized frame (%d bytes)" n
  | Bad_length n -> Format.fprintf ppf "bad frame length (%d)" n
  | Bad_crc -> Format.pp_print_string ppf "frame checksum mismatch"
  | Unknown_version v -> Format.fprintf ppf "unknown protocol version %d" v
  | Unknown_tag t -> Format.fprintf ppf "unknown message tag %d" t
  | Bad_payload why -> Format.fprintf ppf "bad payload: %s" why

type 'a decoded = Complete of 'a * int | Incomplete | Fail of error

exception Reject of error

let agg_of_code = function
  | 0 -> Sum
  | 1 -> Count
  | 2 -> Avg
  | n -> raise (Reject (Bad_payload (Printf.sprintf "unknown aggregate code %d" n)))

let error_code_of_u8 = function
  | 0 -> Bad_request
  | 1 -> Invalid_request
  | 2 -> Overloaded
  | 3 -> Read_only
  | 4 -> Write_failed
  | 5 -> Shutting_down
  | 6 -> Fenced
  | 7 -> Rebootstrap
  | 8 -> Below_horizon
  | n -> raise (Reject (Bad_payload (Printf.sprintf "unknown error code %d" n)))

let role_of_u8 = function
  | 0 -> R_single
  | 1 -> R_leader
  | 2 -> R_follower
  | n -> raise (Reject (Bad_payload (Printf.sprintf "unknown role code %d" n)))

let health_of_u8 = function
  | 0 -> Durable.Healthy
  | 1 -> Durable.Degraded
  | 2 -> Durable.Read_only
  | n -> raise (Reject (Bad_payload (Printf.sprintf "unknown health code %d" n)))

let read_string rd ~remaining =
  let len = Codec.Reader.i32 rd in
  if len < 0 || len > remaining then
    raise (Reject (Bad_payload (Printf.sprintf "string length %d out of range" len)));
  String.init len (fun _ -> Char.chr (Codec.Reader.u8 rd))

let decode_body_request rd ~body:_ ~len tag =
  match tag with
  | t when t = tag_query ->
      let agg = agg_of_code (Codec.Reader.u8 rd) in
      let klo = Codec.Reader.i64 rd in
      let khi = Codec.Reader.i64 rd in
      let tlo = Codec.Reader.i64 rd in
      let thi = Codec.Reader.i64 rd in
      Query { agg; klo; khi; tlo; thi }
  | t when t = tag_insert ->
      let key = Codec.Reader.i64 rd in
      let value = Codec.Reader.i64 rd in
      let at = Codec.Reader.i64 rd in
      Insert { key; value; at }
  | t when t = tag_delete ->
      let key = Codec.Reader.i64 rd in
      let at = Codec.Reader.i64 rd in
      Delete { key; at }
  | t when t = tag_checkpoint -> Checkpoint
  | t when t = tag_stats -> Stats
  | t when t = tag_health -> Health
  | t when t = tag_ping -> Ping
  | t when t = tag_shutdown -> Shutdown
  | t when t = tag_shard_stats -> Shard_stats
  | t when t = tag_wal_subscribe ->
      let epoch = Codec.Reader.i64 rd in
      let from_seq = Codec.Reader.i64 rd in
      Wal_subscribe { epoch; from_seq }
  | t when t = tag_wal_ack ->
      let epoch = Codec.Reader.i64 rd in
      let seq = Codec.Reader.i64 rd in
      Wal_ack { epoch; seq }
  | t when t = tag_replica_stats -> Replica_stats
  | t when t = tag_promote -> Promote
  | t when t = tag_vacuum ->
      let horizon = Codec.Reader.i64 rd in
      let max_pages_per_step = Codec.Reader.i64 rd in
      Vacuum { horizon; max_pages_per_step }
  | t when t = tag_observe -> Observe
  | t ->
      ignore len;
      raise (Reject (Unknown_tag t))

let decode_body_response rd ~body ~len tag =
  match tag with
  | t when t = tag_agg ->
      let sum = Codec.Reader.i64 rd in
      let count = Codec.Reader.i64 rd in
      Agg { sum; count }
  | t when t = tag_ack -> Ack
  | t when t = tag_err ->
      let code = error_code_of_u8 (Codec.Reader.u8 rd) in
      let detail = read_string rd ~remaining:(len - Codec.Reader.pos rd) in
      Err { code; detail }
  | t when t = tag_stats_reply ->
      let updates = Codec.Reader.i64 rd in
      let alive = Codec.Reader.i64 rd in
      let pages = Codec.Reader.i64 rd in
      let now = Codec.Reader.i64 rd in
      let health = health_of_u8 (Codec.Reader.u8 rd) in
      let queue_depth = Codec.Reader.i64 rd in
      let in_flight = Codec.Reader.i64 rd in
      let conns = Codec.Reader.i64 rd in
      let requests = Codec.Reader.i64 rd in
      let shed = Codec.Reader.i64 rd in
      let batches = Codec.Reader.i64 rd in
      let batched_writes = Codec.Reader.i64 rd in
      let wal_syncs = Codec.Reader.i64 rd in
      let horizon = Codec.Reader.i64 rd in
      let pages_reclaimed = Codec.Reader.i64 rd in
      let vacuum_steps = Codec.Reader.i64 rd in
      Stats_reply
        { updates; alive; pages; now; health; queue_depth; in_flight; conns; requests;
          shed; batches; batched_writes; wal_syncs; horizon; pages_reclaimed;
          vacuum_steps }
  | t when t = tag_health_reply -> Health_reply (health_of_u8 (Codec.Reader.u8 rd))
  | t when t = tag_pong -> Pong
  | t when t = tag_shard_stats_reply ->
      let n = Codec.Reader.i32 rd in
      let remaining = len - Codec.Reader.pos rd in
      if n < 0 || n * shard_stat_bytes <> remaining then
        raise
          (Reject
             (Bad_payload
                (Printf.sprintf "shard-stats count %d does not match body size" n)));
      Shard_stats_reply
        (List.init n (fun _ ->
             let shard = Codec.Reader.i64 rd in
             let s_klo = Codec.Reader.i64 rd in
             let s_khi = Codec.Reader.i64 rd in
             let watermark = Codec.Reader.i64 rd in
             let reader_watermark = Codec.Reader.i64 rd in
             let s_now = Codec.Reader.i64 rd in
             let s_alive = Codec.Reader.i64 rd in
             let s_queue = Codec.Reader.i64 rd in
             let s_batches = Codec.Reader.i64 rd in
             let s_acked = Codec.Reader.i64 rd in
             let s_wal_syncs = Codec.Reader.i64 rd in
             let s_health = health_of_u8 (Codec.Reader.u8 rd) in
             let s_io_reads = Codec.Reader.i64 rd in
             let s_io_writes = Codec.Reader.i64 rd in
             let s_io_syncs = Codec.Reader.i64 rd in
             {
               shard; s_klo; s_khi; watermark; reader_watermark; s_now; s_alive;
               s_queue; s_batches; s_acked; s_wal_syncs; s_health; s_io_reads;
               s_io_writes; s_io_syncs;
             }))
  | t when t = tag_sub_ok ->
      let epoch = Codec.Reader.i64 rd in
      let floor = Codec.Reader.i64 rd in
      let durable = Codec.Reader.i64 rd in
      Sub_ok { epoch; floor; durable }
  | t when t = tag_wal_frames ->
      let epoch = Codec.Reader.i64 rd in
      let durable = Codec.Reader.i64 rd in
      let commit = Codec.Reader.i64 rd in
      let n = Codec.Reader.i32 rd in
      if n < 0 || n > len then
        raise (Reject (Bad_payload (Printf.sprintf "frame count %d out of range" n)));
      let frames =
        List.init n (fun _ ->
            let at = Codec.Reader.pos rd in
            match Storage.Frame.check body ~pos:at ~avail:(len - at) ~max_len:len with
            | Whole ->
                let flen = Storage.Frame.length body at in
                Codec.Reader.skip rd (frame_header_bytes + flen);
                Bytes.sub body (at + frame_header_bytes) flen
            | Bad_crc ->
                raise (Reject (Bad_payload "record checksum mismatch inside wal-frames"))
            | Short | Bad_length ->
                raise (Reject (Bad_payload (Printf.sprintf "record at %d out of range" at))))
      in
      Wal_frames { epoch; durable; commit; frames }
  | t when t = tag_replica_stats_reply ->
      let r_role = role_of_u8 (Codec.Reader.u8 rd) in
      let r_epoch = Codec.Reader.i64 rd in
      let r_durable = Codec.Reader.i64 rd in
      let r_commit = Codec.Reader.i64 rd in
      let r_leader_durable = Codec.Reader.i64 rd in
      let r_lag = Codec.Reader.i64 rd in
      let r_frames_shipped = Codec.Reader.i64 rd in
      let r_frames_replayed = Codec.Reader.i64 rd in
      let r_promotions = Codec.Reader.i64 rd in
      let n = Codec.Reader.i32 rd in
      let remaining = len - Codec.Reader.pos rd in
      if n < 0 || n * 16 <> remaining then
        raise
          (Reject
             (Bad_payload
                (Printf.sprintf "follower count %d does not match body size" n)));
      let r_followers =
        List.init n (fun _ ->
            let id = Codec.Reader.i64 rd in
            let acked = Codec.Reader.i64 rd in
            (id, acked))
      in
      Replica_stats_reply
        { r_role; r_epoch; r_durable; r_commit; r_leader_durable; r_lag;
          r_frames_shipped; r_frames_replayed; r_promotions; r_followers }
  | t when t = tag_vacuum_reply ->
      let v_horizon = Codec.Reader.i64 rd in
      let v_steps = Codec.Reader.i64 rd in
      let v_pages_freed = Codec.Reader.i64 rd in
      let v_pages_pruned = Codec.Reader.i64 rd in
      let v_records_dropped = Codec.Reader.i64 rd in
      Vacuum_reply { v_horizon; v_steps; v_pages_freed; v_pages_pruned; v_records_dropped }
  | t when t = tag_observe_reply ->
      Observe_reply (read_string rd ~remaining:(len - Codec.Reader.pos rd - 4))
  | t -> raise (Reject (Unknown_tag t))

(* The shared total decoder: validate the length prefix before any
   allocation, the checksum before any interpretation, the version before
   the tag.  [Codec.Reader] bounds every field read to the copied payload,
   so a lying body cannot reach bytes of the next frame; its [Overflow]
   (and any Reject) surfaces as a typed failure. *)
let decode decode_body ~buf ~pos ~avail =
  if pos < 0 || avail < 0 || pos + avail > Bytes.length buf then
    Fail (Bad_payload "window outside buffer")
  else if avail < frame_header_bytes then Incomplete
  else begin
    let len = Storage.Frame.length buf pos in
    if len > max_payload_bytes then Fail (Oversized len)
    else if len < 2 then Fail (Bad_length len)
    else
      match Storage.Frame.check buf ~pos ~avail ~max_len:max_payload_bytes with
      | Short -> Incomplete
      | Bad_length -> Fail (Bad_length len)
      | Bad_crc -> Fail Bad_crc
      | Whole -> (
          let body = Bytes.sub buf (pos + frame_header_bytes) len in
          let rd = Codec.Reader.create body in
          match
            let v = Codec.Reader.u8 rd in
            let trace =
              if v = version then None
              else if v = version_traced then Some (Int64.of_int (Codec.Reader.i64 rd))
              else raise (Reject (Unknown_version v))
            in
            let tag = Codec.Reader.u8 rd in
            let msg = decode_body rd ~body ~len tag in
            if Codec.Reader.pos rd <> len then
              raise (Reject (Bad_payload "trailing bytes after message"));
            (msg, trace)
          with
          | msg -> Complete (msg, frame_header_bytes + len)
          | exception Reject e -> Fail e
          | exception Codec.Overflow _ -> Fail (Bad_payload "payload ended early"))
  end

let decode_request_traced ~buf ~pos ~avail = decode decode_body_request ~buf ~pos ~avail
let decode_response_traced ~buf ~pos ~avail = decode decode_body_response ~buf ~pos ~avail

let drop_trace = function
  | Complete ((msg, _trace), used) -> Complete (msg, used)
  | Incomplete -> Incomplete
  | Fail e -> Fail e

let decode_request ~buf ~pos ~avail = drop_trace (decode_request_traced ~buf ~pos ~avail)
let decode_response ~buf ~pos ~avail = drop_trace (decode_response_traced ~buf ~pos ~avail)
