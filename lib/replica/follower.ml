module Metrics = Telemetry.Metrics
module Json = Telemetry.Json
module Tracer = Telemetry.Tracer

type upstream = Unix_sock of string | Tcp of string * int

let pp_upstream ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p

type config = {
  upstream : upstream;
  connect_timeout : float;
  failover_s : float;
  retry : Storage.Retry.policy;
  auto_promote : bool;
  heartbeat_s : float;
  sync_replicas : int;
}

let default_config upstream =
  {
    upstream;
    connect_timeout = 1.0;
    failover_s = 1.0;
    retry = { Storage.Retry.default with base_delay_s = 0.1; max_delay_s = 2.0 };
    auto_promote = true;
    heartbeat_s = 0.2;
    sync_replicas = 0;
  }

(* The upstream link: one nonblocking fd in the serving loop's watch set,
   an input buffer for the leader's pushed frames, and a small staging
   buffer for our acks (they are tiny, but even tiny writes can hit a
   full socket). *)
type link = {
  fd : Unix.file_descr;
  mutable inbuf : bytes;
  mutable in_len : int;
  mutable outbuf : bytes;
  mutable out_pos : int;
  mutable out_len : int;
}

type mode =
  | Following of link
  | Connecting of { mutable attempt : int; mutable next_try : float }
  | Leading of Hub.t

type t = {
  cfg : config;
  eng : Durable.t;
  srv : Server.t;
  path : string;
  vfs : Storage.Vfs.t;
  mutable epoch : int;
  mutable mode : mode;
  mutable leader_durable : int;
  mutable leader_commit : int;
  mutable last_heard : float;
  mutable ever_connected : bool;
  mutable replayed : int;
  mutable stale_frames : int;
  mutable promotions : int;
  mutable diverged : string option;
  mutable parked : string option;
      (* refused by a live upstream (fenced / re-bootstrap): auto
         promotion is off until an operator intervenes *)
  m_replayed : Metrics.counter;
  m_lag : Metrics.gauge;
  m_promotions : Metrics.counter;
}

let watermark t = Apply.watermark t.eng

(* --- Socketry -------------------------------------------------------------------- *)

exception Link_failed of string

let connect_fd ~timeout up =
  let domain, addr =
    match up with
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     Unix.set_nonblock fd;
     (try Unix.connect fd addr
      with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> (
        match Unix.select [] [ fd ] [] timeout with
        | _, _ :: _, _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some e -> raise (Unix.Unix_error (e, "connect", "")))
        | _ -> raise (Link_failed "connect timeout")))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let send_all ~deadline fd b =
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    match Unix.write fd b !written (n - !written) with
    | 0 -> raise (Link_failed "upstream closed while sending")
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let tmo = deadline -. Unix.gettimeofday () in
        if tmo <= 0.0 then raise (Link_failed "send timeout")
        else ignore (Unix.select [] [ fd ] [] tmo)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise (Link_failed "upstream closed while sending")
  done

let make_link fd =
  {
    fd;
    inbuf = Bytes.create (64 * 1024);
    in_len = 0;
    outbuf = Bytes.create 256;
    out_pos = 0;
    out_len = 0;
  }

let consume link used =
  Bytes.blit link.inbuf used link.inbuf 0 (link.in_len - used);
  link.in_len <- link.in_len - used

(* Blockingly await one decoded response during the handshake; bytes
   beyond it (the leader ships the backlog in the very same step as the
   handshake reply) stay in the link buffer for the event-driven path. *)
let await_response ~deadline link =
  let rec go () =
    match Wire.decode_response ~buf:link.inbuf ~pos:0 ~avail:link.in_len with
    | Wire.Complete (resp, used) ->
        consume link used;
        resp
    | Wire.Fail e -> raise (Link_failed (Format.asprintf "%a" Wire.pp_error e))
    | Wire.Incomplete -> (
        let tmo = deadline -. Unix.gettimeofday () in
        if tmo <= 0.0 then raise (Link_failed "handshake timeout");
        (match Unix.select [ link.fd ] [] [] tmo with
        | [], _, _ -> raise (Link_failed "handshake timeout")
        | _ -> ());
        let cap = Bytes.length link.inbuf in
        if cap - link.in_len < 4096 then begin
          let nb = Bytes.create (2 * cap) in
          Bytes.blit link.inbuf 0 nb 0 link.in_len;
          link.inbuf <- nb
        end;
        match Unix.read link.fd link.inbuf link.in_len (Bytes.length link.inbuf - link.in_len) with
        | 0 -> raise (Link_failed "upstream closed during handshake")
        | n ->
            link.in_len <- link.in_len + n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            go ())
  in
  go ()

(* --- Ack staging ----------------------------------------------------------------- *)

let out_pending link = link.out_len - link.out_pos

let stage_out link b =
  if link.out_pos = link.out_len then begin
    link.out_pos <- 0;
    link.out_len <- 0
  end;
  let blen = Bytes.length b in
  if Bytes.length link.outbuf - link.out_len < blen then begin
    if link.out_pos > 0 then begin
      Bytes.blit link.outbuf link.out_pos link.outbuf 0 (out_pending link);
      link.out_len <- out_pending link;
      link.out_pos <- 0
    end;
    let need = link.out_len + blen in
    if Bytes.length link.outbuf < need then begin
      let nb = Bytes.create (max need (2 * Bytes.length link.outbuf)) in
      Bytes.blit link.outbuf 0 nb 0 link.out_len;
      link.outbuf <- nb
    end
  end;
  Bytes.blit b 0 link.outbuf link.out_len blen;
  link.out_len <- link.out_len + blen

let flush_out link =
  if out_pending link > 0 then
    match Unix.write link.fd link.outbuf link.out_pos (out_pending link) with
    | n ->
        link.out_pos <- link.out_pos + n;
        if link.out_pos = link.out_len then begin
          link.out_pos <- 0;
          link.out_len <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> raise (Link_failed "upstream closed on ack")

(* --- The follower state machine -------------------------------------------------- *)

let adopt_epoch t e =
  if e > t.epoch then begin
    Epoch.store ~vfs:t.vfs t.path e;
    t.epoch <- e
  end

let drop_link t link _reason =
  Server.remove_watch t.srv link.fd;
  (try Unix.close link.fd with Unix.Unix_error _ -> ());
  (match t.mode with
  | Following l when l == link ->
      t.mode <- Connecting { attempt = 0; next_try = Unix.gettimeofday () }
  | _ -> ())

let ack t link =
  stage_out link (Wire.encode_request (Wire.Wal_ack { epoch = t.epoch; seq = watermark t }));
  flush_out link

(* Replay one [Wal_frames] message: apply every record, fsync once, ack
   the new watermark — the ack is a durability claim, so it never
   precedes the sync. *)
let replay_frames t link frames =
  let fatal = ref None in
  List.iter
    (fun payload ->
      if !fatal = None then
        match Apply.replay t.eng payload with
        | Apply.Applied _ -> t.replayed <- t.replayed + 1
        | Apply.Skipped -> ()
        | Apply.Gap { expect; got } ->
            fatal :=
              Some (Printf.sprintf "sequence gap (expected %d, got %d)" expect got)
        | Apply.Rejected m ->
            t.diverged <- Some m;
            fatal := Some ("replica divergence: " ^ m)
        | Apply.Failed e -> fatal := Some (Storage.Storage_error.to_string e))
    frames;
  Metrics.set_counter t.m_replayed t.replayed;
  match !fatal with
  | Some reason -> drop_link t link reason
  | None -> (
      if frames <> [] then
        match Durable.sync_wal t.eng with
        | Ok () -> (
            (* The replay itself is durable; a dead socket under the ack
               only costs this link, never the process. *)
            try ack t link with Link_failed reason -> drop_link t link reason)
        | Error _ -> (* unacked; the records will be re-shipped after recovery *) ())

let handle_frames t link ~epoch ~durable ~commit frames =
  if epoch < t.epoch then t.stale_frames <- t.stale_frames + 1
  else begin
    adopt_epoch t epoch;
    t.last_heard <- Unix.gettimeofday ();
    t.leader_durable <- max t.leader_durable durable;
    t.leader_commit <- max t.leader_commit commit;
    replay_frames t link frames;
    Metrics.set_gauge t.m_lag (float_of_int (max 0 (t.leader_durable - watermark t)))
  end

let process_input t link =
  let continue = ref true in
  while !continue do
    match t.mode with
    | Following l when l == link -> (
        match Wire.decode_response_traced ~buf:link.inbuf ~pos:0 ~avail:link.in_len with
        | Wire.Complete ((resp, trace), used) -> (
            consume link used;
            match resp with
            | Wire.Wal_frames { epoch; durable; commit; frames } ->
                (* The leader stamps frame pushes with the originating
                   write's trace id; installing it here threads the
                   follower's replay spans (Durable.insert and the WAL
                   append under it) into the same trace. *)
                Tracer.with_trace ~trace (fun () ->
                    handle_frames t link ~epoch ~durable ~commit frames)
            | Wire.Err { code = Wire.Fenced; _ } ->
                (* A new leader exists that we have not met yet; drop the
                   link and resubscribe — the handshake will learn the
                   epoch. *)
                drop_link t link "fenced by upstream"
            | _ -> () (* unexpected but harmless *))
        | Wire.Incomplete -> continue := false
        | Wire.Fail e ->
            drop_link t link (Format.asprintf "undecodable frame: %a" Wire.pp_error e))
    | _ -> continue := false
  done

let read_input t link =
  let cap = Bytes.length link.inbuf in
  if cap - link.in_len < 4096 then begin
    let nb = Bytes.create (2 * cap) in
    Bytes.blit link.inbuf 0 nb 0 link.in_len;
    link.inbuf <- nb
  end;
  match Unix.read link.fd link.inbuf link.in_len (Bytes.length link.inbuf - link.in_len)
  with
  | 0 -> drop_link t link "leader closed the stream"
  | n ->
      link.in_len <- link.in_len + n;
      process_input t link
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_link t link "read error on upstream"

let on_readable t link () =
  match t.mode with
  | Following l when l == link -> (
      (try flush_out link with Link_failed reason -> drop_link t link reason);
      (* A failed flush drops the link and closes its fd — never read it. *)
      match t.mode with
      | Following l when l == link -> read_input t link
      | _ -> ())
  | _ -> Server.remove_watch t.srv link.fd

let try_connect t =
  let now = Unix.gettimeofday () in
  let deadline = now +. t.cfg.connect_timeout in
  match
    let fd = connect_fd ~timeout:t.cfg.connect_timeout t.cfg.upstream in
    let link = make_link fd in
    (try
       send_all ~deadline fd
         (Wire.encode_request
            (Wire.Wal_subscribe { epoch = t.epoch; from_seq = watermark t }));
       (link, await_response ~deadline link)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e)
  with
  | link, Wire.Sub_ok { epoch; floor = _; durable } ->
      adopt_epoch t epoch;
      t.leader_durable <- max t.leader_durable durable;
      t.last_heard <- Unix.gettimeofday ();
      t.ever_connected <- true;
      t.parked <- None;
      t.mode <- Following link;
      Server.add_watch t.srv link.fd (on_readable t link);
      (* The handshake read may have pulled the first frames along. *)
      process_input t link;
      `Connected
  | link, Wire.Err { code; detail } -> (
      (try Unix.close link.fd with Unix.Unix_error _ -> ());
      (* A decoded refusal is proof of a live upstream — it must never
         count toward the "leader unreachable" promotion budget. *)
      match code with
      | Wire.Fenced ->
          (* The upstream has positive evidence the leadership moved (or
             our own epoch outranks it).  Promoting on top of that risks
             two writers; park until an operator sorts it out. *)
          `Refused ("fenced by upstream: " ^ detail)
      | Wire.Rebootstrap ->
          (* Behind the backlog floor or holding a divergent suffix:
             retrying can never succeed, and our local history is not a
             safe base to promote from. *)
          `Refused detail
      | _ ->
          (* Transient (overloaded, draining, a peer that is itself a
             follower and may yet promote): keep probing. *)
          `Alive)
  | link, _ ->
      (try Unix.close link.fd with Unix.Unix_error _ -> ());
      `Alive (* it answered, however strangely: not an unreachable leader *)
  | exception (Link_failed _ | Unix.Unix_error _) -> `Down

(* --- Promotion ------------------------------------------------------------------- *)

let promote t ~reason:_ =
  match t.mode with
  | Leading _ -> ()
  | _ ->
      (match t.mode with Following link -> drop_link t link "promoting" | _ -> ());
      (* Buffered-but-unapplied frames died with the link: they were
         never acked by us, so no client ack can depend on them.  What we
         did apply is fsynced before the new epoch exists. *)
      (match Durable.sync_wal t.eng with Ok () -> () | Error _ -> ());
      let epoch = t.epoch + 1 in
      Epoch.store ~vfs:t.vfs t.path epoch;
      t.epoch <- epoch;
      t.parked <- None;
      t.promotions <- t.promotions + 1;
      Metrics.inc t.m_promotions;
      let hub =
        Hub.create ~vfs:t.vfs ~metrics:(Server.metrics t.srv)
          ~sync_replicas:t.cfg.sync_replicas ~heartbeat_s:t.cfg.heartbeat_s ~epoch
          ~promotions:t.promotions ~path:t.path t.eng
      in
      Hub.set_step_down hub (fun () ->
          Admission.set_standby (Server.admission t.srv) true;
          Shard.Cluster.set_gate (Server.cluster t.srv) None);
      Hub.set_frame_trace hub (fun () -> Server.last_write_trace t.srv);
      Shard.Cluster.set_gate (Server.cluster t.srv) (Some (Hub.gate hub));
      (* Open the write path: standby off.  Health-driven read-only (a
         genuinely degraded engine) is independent and stays. *)
      Admission.set_standby (Server.admission t.srv) false;
      t.mode <- Leading hub

(* --- Scheduling ------------------------------------------------------------------ *)

let retry_delay (p : Storage.Retry.policy) attempt =
  let d = p.base_delay_s *. (p.multiplier ** float_of_int (max 0 (attempt - 1))) in
  Float.min d p.max_delay_s

let tick t =
  match t.mode with
  | Leading hub -> Hub.tick hub
  | Following link ->
      (try flush_out link with Link_failed reason -> drop_link t link reason);
      if Unix.gettimeofday () -. t.last_heard > t.cfg.failover_s then
        drop_link t link "leader heartbeat timeout"
  | Connecting c -> (
      let now = Unix.gettimeofday () in
      if now >= c.next_try then
        match try_connect t with
        | `Connected -> ()
        | `Alive ->
            (* The upstream answered: it is alive, whatever it said.
               Promotion is for a dead leader only — reset the budget. *)
            c.attempt <- 0;
            c.next_try <- now +. retry_delay t.cfg.retry 1
        | `Refused reason ->
            if t.parked = None then t.parked <- Some reason;
            c.attempt <- 0;
            c.next_try <- now +. t.cfg.retry.max_delay_s
        | `Down ->
            c.attempt <- c.attempt + 1;
            if c.attempt >= t.cfg.retry.max_attempts then
              if
                t.cfg.auto_promote && t.ever_connected && t.diverged = None
                && t.parked = None
              then promote t ~reason:"leader unreachable after retry budget"
              else begin
                (* Keep probing at the backoff ceiling: parked, diverged,
                   never synced, or auto promotion off — nothing safe to
                   do but wait for the leader or an operator. *)
                c.next_try <- now +. t.cfg.retry.max_delay_s
              end
            else c.next_try <- now +. retry_delay t.cfg.retry c.attempt)

(* --- Wire surface ---------------------------------------------------------------- *)

let stats t =
  match t.mode with
  | Leading hub -> Hub.stats hub
  | _ ->
      let w = watermark t in
      {
        Wire.r_role = Wire.R_follower;
        r_epoch = t.epoch;
        r_durable = w;
        r_commit = w;
        r_leader_durable = t.leader_durable;
        r_lag = max 0 (t.leader_durable - w);
        r_frames_shipped = 0;
        r_frames_replayed = t.replayed;
        r_promotions = t.promotions;
        r_followers = [];
      }

(* The node's [Observe] contribution — as a follower: its replay lag
   against the leader's durable watermark; once promoted: the hub's
   leader-side fields. *)
let observe_extra t () =
  match t.mode with
  | Leading hub -> Hub.observe_extra hub ()
  | _ ->
      let w = watermark t in
      [
        ( "replication",
          Json.Obj
            [
              ("role", Json.Str "follower");
              ("mode", Json.Str (match t.mode with
                                 | Following _ -> "following"
                                 | Connecting _ -> "connecting"
                                 | Leading _ -> assert false));
              ("epoch", Json.Int t.epoch);
              ("watermark", Json.Int w);
              ("leader_durable", Json.Int t.leader_durable);
              ("leader_commit", Json.Int t.leader_commit);
              ("lag", Json.Int (max 0 (t.leader_durable - w)));
              ("replayed", Json.Int t.replayed);
              ( "parked",
                match t.parked with None -> Json.Null | Some r -> Json.Str r );
              ( "diverged",
                match t.diverged with None -> Json.Null | Some r -> Json.Str r );
            ] );
      ]

let handle t ctx (req : Wire.request) : Server.ext_outcome =
  match t.mode with
  | Leading hub -> (
      match req with
      | Wire.Replica_stats ->
          (* Keep the follower-life counters visible after promotion. *)
          let s = Hub.stats hub in
          Server.Ext_reply
            (Wire.Replica_stats_reply { s with Wire.r_frames_replayed = t.replayed })
      | _ -> Hub.handle hub ctx req)
  | _ -> (
      match req with
      | Wire.Replica_stats -> Server.Ext_reply (Wire.Replica_stats_reply (stats t))
      | Wire.Promote ->
          promote t ~reason:"operator request";
          Server.Ext_reply Wire.Ack
      | Wire.Wal_subscribe _ ->
          Server.Ext_reply
            (Wire.Err
               {
                 code = Wire.Invalid_request;
                 detail = "this node is a follower; subscribe to its leader";
               })
      | Wire.Wal_ack _ -> Server.Ext_silent
      | _ -> Server.Ext_pass)

let create ?(vfs = Storage.Vfs.os) ~config ~path ~server eng =
  let reg = Server.metrics server in
  let t =
    {
      cfg = config;
      eng;
      srv = server;
      path;
      vfs;
      epoch = Epoch.load ~vfs path;
      mode = Connecting { attempt = 0; next_try = 0.0 };
      leader_durable = 0;
      leader_commit = 0;
      last_heard = Unix.gettimeofday ();
      ever_connected = false;
      replayed = 0;
      stale_frames = 0;
      promotions = 0;
      diverged = None;
      parked = None;
      m_replayed =
        Metrics.counter reg ~help:"WAL frames replayed from the leader."
          "replica_frames_replayed_total";
      m_lag =
        Metrics.gauge reg ~help:"Leader durable watermark minus replayed watermark."
          "replica_lag";
      m_promotions =
        Metrics.counter reg ~help:"Failover promotions performed."
          "replica_promotions_total";
    }
  in
  Admission.set_standby (Server.admission server) true;
  Server.set_extension server (handle t);
  Server.set_tick server (fun () -> tick t);
  Server.set_observe_extra server (observe_extra t);
  Server.on_conn_close server (fun id ->
      match t.mode with Leading hub -> Hub.conn_closed hub id | _ -> ());
  t

let is_leader t = match t.mode with Leading _ -> true | _ -> false

let mode_name t =
  match t.mode with
  | Following _ -> "following"
  | Connecting _ -> "connecting"
  | Leading _ -> "leading"

let epoch t = t.epoch
let replayed t = t.replayed
let promotions t = t.promotions
let leader_durable t = t.leader_durable
let watermark_of t = watermark t
let diverged t = t.diverged
let parked t = t.parked
let force_promote t = promote t ~reason:"caller request"
