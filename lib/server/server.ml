module E = Storage.Storage_error
module Metrics = Telemetry.Metrics
module Tracer = Telemetry.Tracer
module Phases = Telemetry.Phases
module Json = Telemetry.Json

type config = { max_in_flight : int; max_queue_depth : int; high_water : int }

let default_config = { max_in_flight = 1024; max_queue_depth = 256; high_water = 256 * 1024 }

(* --- Connection state machine -------------------------------------------------- *)

(* Each connection accumulates raw bytes in [inbuf], owns an ordered queue
   of response [slots] (reserved at decode time, filled whenever the
   request completes — possibly out of completion order), and stages
   filled-prefix response bytes in [out] for non-blocking writes. *)

(* One reserved response.  [s_trace] echoes the request's v2 trace id on
   the response frame; [s_cell] is the request's phase vector, finished
   when the response bytes have actually reached the socket. *)
type slot = {
  mutable resp : bytes option;
  s_cell : Phases.cell option;
  s_trace : int64 option;
}

type conn = {
  fd : Unix.file_descr;
  id : int;
  mutable inbuf : bytes;
  mutable in_len : int;
  slots : slot Queue.t;
  mutable out : bytes;
  mutable out_pos : int;  (* written prefix of [out] *)
  mutable out_len : int;
  mutable staged_total : int;  (* bytes ever staged into [out] *)
  mutable sent_total : int;  (* bytes ever written to the socket *)
  flushes : (Phases.cell * int) Queue.t;
      (* (cell, staged_total watermark): the cell's response is
         fully on the socket once [sent_total] reaches the watermark —
         targets are recorded in staging order, so this stays FIFO. *)
  mutable close_after_flush : bool;
      (* EOF seen or protocol error: no more reads; close once every
         reserved slot has been filled and flushed. *)
  mutable dead : bool;
  mutable subscriber : bool;
      (* A replication subscription: the extension pushes frames to this
         connection out of band, and the backpressure read-pause does not
         apply (pausing reads would also pause the follower's acks). *)
}

type state = Accepting | Draining | Stopped

(* --- Extension hook -------------------------------------------------------------- *)

(* Replication (lib/replica) plugs into the loop without the server
   knowing its semantics: an extension claims the replication opcodes,
   a tick runs once per iteration (between group commit and response
   pump, so anything it fills is flushed the same step), watched fds
   join the select read set, and a close hook reclaims subscriber
   state.  A server with no extension answers the replication opcodes
   with a typed error. *)

type ext_ctx = {
  ext_conn : int;  (* connection id, stable for the connection's life *)
  ext_push : bytes -> unit;  (* stage pre-encoded frames out of band *)
  ext_pending : unit -> int;  (* unflushed output bytes (flow control) *)
}

type ext_outcome =
  | Ext_reply of Wire.response
  | Ext_subscribe of Wire.response
  | Ext_silent
  | Ext_pass

type t = {
  cfg : config;
  tel : Tracer.t;
  reg : Metrics.t;
  cluster : Shard.Cluster.t;
  adm : Admission.t;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  mutable state : state;
  mutable next_id : int;
  mutable requests : int;
  mutable extension : (ext_ctx -> Wire.request -> ext_outcome) option;
  mutable tick : unit -> unit;
  mutable on_close : int -> unit;
  mutable watches : (Unix.file_descr * (unit -> unit)) list;
  ready : Bytes.t;
      (* Readiness set: byte [fd] is set while [fd] is in the current
         [select] result. *)
  mutable phases : Phases.recorder option;
      (* When set, Query/Insert/Delete requests carry a phase cell. *)
  mutable flight : Telemetry.Flight.t option;  (* reported by Observe *)
  mutable observe_extra : unit -> (string * Json.t) list;
      (* Extension-owned Observe fields (replication lag, role). *)
  mutable last_write_trace_ : int64 option;
      (* Trace id of the most recent traced write — the replication hub
         stamps outgoing WAL frames with it so a tagged write's shipping
         and follower replay join its trace. *)
  m_requests : Metrics.counter;
  m_shed : Metrics.counter;
  m_ro_rejected : Metrics.counter;
  m_batches : Metrics.counter;
  m_acked : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  m_in_flight : Metrics.gauge;
  m_conns : Metrics.gauge;
}

(* --- Listening sockets --------------------------------------------------------- *)

let listen_unix ~path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let listen_tcp ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  (fd, port)

(* --- Construction --------------------------------------------------------------- *)

(* [Unix.select] takes fd_set bitmaps of FD_SETSIZE bits: a descriptor at
   or past it makes select fail with EINVAL, which would end the loop, so
   the accept path refuses such connections. *)
let fd_setsize = 1024

(* A [Unix.file_descr] is the descriptor number on Unix. *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

let create ?(config = default_config) ?(telemetry = Tracer.noop) ?metrics ~cluster ~listen
    () =
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let adm =
    Admission.create
      ~config:
        { Admission.max_in_flight = config.max_in_flight;
          max_queue_depth = config.max_queue_depth }
      ()
  in
  (* A peer that disconnects mid-write must surface as EPIPE, not kill
     the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    cfg = config;
    tel = telemetry;
    reg;
    cluster;
    adm;
    listen_fd = listen;
    conns = [];
    state = Accepting;
    next_id = 0;
    requests = 0;
    extension = None;
    tick = (fun () -> ());
    on_close = (fun _ -> ());
    watches = [];
    ready = Bytes.make fd_setsize '\000';
    phases = None;
    flight = None;
    observe_extra = (fun () -> []);
    last_write_trace_ = None;
    m_requests = Metrics.counter reg ~help:"Requests decoded." "server_requests_total";
    m_shed =
      Metrics.counter reg ~help:"Requests shed with Overloaded." "server_shed_total";
    m_ro_rejected =
      Metrics.counter reg ~help:"Writes refused by a standby follower."
        "server_read_only_rejected_total";
    m_batches = Metrics.counter reg ~help:"Group commits flushed." "server_batches_total";
    m_acked =
      Metrics.counter reg ~help:"Writes acknowledged through group commit."
        "server_acked_writes_total";
    m_queue_depth =
      Metrics.gauge reg ~help:"Writes queued for the next group commit."
        "server_queue_depth";
    m_in_flight =
      Metrics.gauge reg ~help:"Admitted requests awaiting a response." "server_in_flight";
    m_conns = Metrics.gauge reg ~help:"Open connections." "server_connections";
  }

(* --- Buffers -------------------------------------------------------------------- *)

let read_chunk = 64 * 1024

let ensure_in conn extra =
  let need = conn.in_len + extra in
  if Bytes.length conn.inbuf < need then begin
    let nb = Bytes.create (max need (2 * Bytes.length conn.inbuf)) in
    Bytes.blit conn.inbuf 0 nb 0 conn.in_len;
    conn.inbuf <- nb
  end

let out_pending conn = conn.out_len - conn.out_pos

let append_out conn b =
  if conn.out_pos = conn.out_len then begin
    conn.out_pos <- 0;
    conn.out_len <- 0
  end;
  let blen = Bytes.length b in
  if Bytes.length conn.out - conn.out_len < blen then begin
    if conn.out_pos > 0 then begin
      Bytes.blit conn.out conn.out_pos conn.out 0 (conn.out_len - conn.out_pos);
      conn.out_len <- conn.out_len - conn.out_pos;
      conn.out_pos <- 0
    end;
    let need = conn.out_len + blen in
    if Bytes.length conn.out < need then begin
      let nb = Bytes.create (max need (2 * Bytes.length conn.out)) in
      Bytes.blit conn.out 0 nb 0 conn.out_len;
      conn.out <- nb
    end
  end;
  Bytes.blit b 0 conn.out conn.out_len blen;
  conn.out_len <- conn.out_len + blen;
  conn.staged_total <- conn.staged_total + blen

(* Move the filled prefix of the slot queue into the write staging
   buffer — responses leave strictly in request order. *)
let rec pump conn =
  match Queue.peek_opt conn.slots with
  | Some ({ resp = Some bytes; _ } as slot) ->
      ignore (Queue.pop conn.slots);
      append_out conn bytes;
      (match slot.s_cell with
      | Some c -> Queue.add (c, conn.staged_total) conn.flushes
      | None -> ());
      pump conn
  | Some { resp = None; _ } | None -> ()

(* --- Request handling ----------------------------------------------------------- *)

let reserve ?cell ?trace conn =
  let slot = { resp = None; s_cell = cell; s_trace = trace } in
  Queue.add slot conn.slots;
  slot

let fill slot resp = slot.resp <- Some (Wire.encode_response ?trace:slot.s_trace resp)

let err code detail = Wire.Err { code; detail }

let err_of_storage (e : E.t) =
  match e.errno with
  | E.Read_only_store -> err Wire.Read_only (E.to_string e)
  | _ -> err Wire.Write_failed (E.to_string e)

let queue_depth t = Shard.Cluster.pending_writes t.cluster

let stats t =
  let s = Shard.Cluster.totals t.cluster in
  let io = Shard.Cluster.io_totals t.cluster in
  {
    Wire.updates = s.watermark;
    alive = s.alive;
    pages = s.pages;
    now = s.now;
    health = s.health;
    queue_depth = queue_depth t;
    in_flight = Admission.in_flight t.adm;
    conns = List.length t.conns;
    requests = t.requests;
    shed = Admission.shed t.adm;
    batches = s.batches;
    batched_writes = s.acked;
    wal_syncs = s.wal_syncs;
    horizon = s.horizon;
    pages_reclaimed = io.Telemetry.Io_stats.pages_reclaimed;
    vacuum_steps = io.Telemetry.Io_stats.vacuum_steps;
  }

let shard_stats t : Wire.shard_stat list =
  List.map
    (fun (i : Shard.Cluster.shard_info) ->
      let s = i.stat in
      {
        Wire.shard = i.shard;
        s_klo = i.klo;
        s_khi = i.khi;
        watermark = s.watermark;
        reader_watermark = i.reader_watermark;
        s_now = s.now;
        s_alive = s.alive;
        s_queue = i.queue;
        s_batches = s.batches;
        s_acked = s.acked;
        s_wal_syncs = s.wal_syncs;
        s_health = s.health;
        s_io_reads = i.io.Telemetry.Io_stats.reads;
        s_io_writes = i.io.Telemetry.Io_stats.writes;
        s_io_syncs = i.io.Telemetry.Io_stats.syncs;
      })
    (Shard.Cluster.shard_infos t.cluster)

(* The Observe reply: one JSON document with every liveness gauge the
   paper-plane exposes — per-shard watermark/reader lag and snapshot
   age, backlog depth, retention-horizon distance, disk pressure, the
   phase-histogram summary, flight-recorder state, plus whatever the
   replication extension contributes through [observe_extra]. *)
let observe_json t =
  let s = stats t in
  let health_str h = Format.asprintf "%a" Durable.pp_health h in
  let now = Phases.now_ns () in
  let age_ms published =
    if published = 0L then Json.Null
    else Json.Float (Int64.to_float (Int64.sub now published) /. 1e6)
  in
  let shards =
    List.map
      (fun (i : Shard.Cluster.shard_info) ->
        let st = i.stat in
        Json.Obj
          [
            ("shard", Json.Int i.shard);
            ("klo", Json.Int i.klo);
            ("khi", Json.Int i.khi);
            ("watermark", Json.Int st.Shard.Snapshot.watermark);
            ("reader_watermark", Json.Int i.reader_watermark);
            ("reader_lag", Json.Int (st.Shard.Snapshot.watermark - i.reader_watermark));
            ("queue", Json.Int i.queue);
            ("snapshot_age_ms", age_ms st.Shard.Snapshot.published_ns);
            ("health", Json.Str (health_str st.Shard.Snapshot.health));
          ])
      (Shard.Cluster.shard_infos t.cluster)
  in
  let phases = match t.phases with Some r -> Phases.summary_json r | None -> Json.Null in
  let flight =
    match t.flight with
    | None -> Json.Obj [ ("enabled", Json.Bool false) ]
    | Some f ->
        let buf = Telemetry.Flight.buffer f in
        Json.Obj
          [
            ("enabled", Json.Bool true);
            ("dumps", Json.Int (Telemetry.Flight.dumps f));
            ("spans_recorded", Json.Int (Tracer.Memory.span_count buf));
            ("spans_dropped", Json.Int (Tracer.Memory.dropped buf));
          ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("type", Json.Str "observe");
          ("pid", Json.Int (Tracer.self_pid ()));
          ("health", Json.Str (health_str s.Wire.health));
          ("updates", Json.Int s.Wire.updates);
          ("now", Json.Int s.Wire.now);
          ("queue_depth", Json.Int s.Wire.queue_depth);
          ("in_flight", Json.Int s.Wire.in_flight);
          ("conns", Json.Int s.Wire.conns);
          ("requests", Json.Int s.Wire.requests);
          ("shed", Json.Int s.Wire.shed);
          ("horizon", Json.Int s.Wire.horizon);
          ("horizon_distance", Json.Int (max 0 (s.Wire.now - s.Wire.horizon)));
        ]
       @ [ ("shards", Json.List shards); ("phases", phases); ("flight", flight) ]
       @ t.observe_extra ()))

let outcome_response = function
  | Shard.Cluster.Applied -> Wire.Ack
  | Shard.Cluster.Rejected m -> err Wire.Invalid_request m
  | Shard.Cluster.Failed e -> err_of_storage e

let error_response = function
  | Shard.Cluster.Invalid m -> err Wire.Invalid_request m
  | Shard.Cluster.Below_horizon { at; horizon } ->
      err Wire.Below_horizon
        (Printf.sprintf "time %d is below the retention horizon %d (vacuumed)" at horizon)
  | Shard.Cluster.Io e -> err_of_storage e

(* Replication opcodes route to the extension.  [Wal_ack] is
   fire-and-forget by protocol, so it never reserves a response slot —
   with or without an extension installed. *)
let handle_ext t conn (req : Wire.request) =
  let silent = match req with Wire.Wal_ack _ -> true | _ -> false in
  let reply resp = if not silent then fill (reserve conn) resp in
  if t.state <> Accepting then reply (err Wire.Shutting_down "server is draining")
  else
    match t.extension with
    | None -> reply (err Wire.Invalid_request "replication is not enabled on this server")
    | Some f -> (
        let ctx =
          {
            ext_conn = conn.id;
            ext_push = (fun b -> if not conn.dead then append_out conn b);
            ext_pending = (fun () -> out_pending conn);
          }
        in
        match f ctx req with
        | Ext_silent -> ()
        | Ext_pass -> reply (err Wire.Invalid_request "unsupported replication request")
        | Ext_reply resp -> reply resp
        | Ext_subscribe resp ->
            (* Stage the handshake reply *now*: frames the extension
               pushes from later ticks bypass the slot queue, and the
               subscriber must decode its [Sub_ok] before any of them. *)
            fill (reserve conn) resp;
            pump conn;
            conn.subscriber <- true)

let handle_request t conn ~trace ~t0 (req : Wire.request) =
  t.requests <- t.requests + 1;
  Metrics.inc t.m_requests;
  match req with
  | Wire.Wal_subscribe _ | Wire.Wal_ack _ | Wire.Replica_stats | Wire.Promote ->
      handle_ext t conn req
  | _ when conn.subscriber ->
      (* The out stream belongs to pushed frames now; interleaving
         ordinary responses would corrupt the follower's positional
         request/response matching. *)
      fill (reserve conn)
        (err Wire.Invalid_request "connection is a replication subscription")
  | _ -> (
  (* Phase accounting rides the data-plane requests only; [t0] is the
     clock just before this frame's decode started. *)
  let cell =
    match (t.phases, req) with
    | None, _ -> None
    | Some _, Wire.Query _ -> Some (Phases.cell ~kind:"query" ~trace ~start_ns:t0)
    | Some _, Wire.Insert _ -> Some (Phases.cell ~kind:"insert" ~trace ~start_ns:t0)
    | Some _, Wire.Delete _ -> Some (Phases.cell ~kind:"delete" ~trace ~start_ns:t0)
    | Some _, _ -> None
  in
  (match cell with Some c -> Phases.charge c Phases.Decode | None -> ());
  let slot = reserve ?cell ?trace conn in
  if t.state <> Accepting then fill slot (err Wire.Shutting_down "server is draining")
  else
    match req with
    | Wire.Shutdown ->
        t.state <- Draining;
        fill slot Wire.Ack
    | Wire.Ping -> fill slot Wire.Pong
    | Wire.Health -> fill slot (Wire.Health_reply (Shard.Cluster.health t.cluster))
    | Wire.Stats -> fill slot (Wire.Stats_reply (stats t))
    | Wire.Shard_stats -> fill slot (Wire.Shard_stats_reply (shard_stats t))
    | Wire.Observe -> fill slot (Wire.Observe_reply (observe_json t))
    | Wire.Query _ | Wire.Insert _ | Wire.Delete _ | Wire.Checkpoint | Wire.Vacuum _ -> (
        let decision =
          Admission.admit t.adm ~queue_depth:(queue_depth t) ~write:(Wire.is_write req)
        in
        (match cell with Some c -> Phases.charge c Phases.Admission_wait | None -> ());
        match decision with
        | Admission.Reject_read_only ->
            Metrics.inc t.m_ro_rejected;
            fill slot
              (err Wire.Read_only
                 "this node is on standby (a follower or a deposed leader); write to the \
                  leader")
        | Admission.Shed ->
            Metrics.inc t.m_shed;
            fill slot (err Wire.Overloaded "admission limit reached; back off and retry")
        | Admission.Admit -> (
            if Wire.is_write req && trace <> None then t.last_write_trace_ <- trace;
            let reply resp =
              fill slot resp;
              Admission.release t.adm
            in
            let result ok = function
              | Ok v -> reply (ok v)
              | Error e -> reply (error_response e)
            in
            let write op =
              Shard.Cluster.submit_write t.cluster ?cell ?trace op (fun o ->
                  reply (outcome_response o))
            in
            match req with
            | Wire.Query { agg = _; klo; khi; tlo; thi } ->
                Shard.Cluster.submit_query t.cluster ?cell ?trace ~klo ~khi ~tlo ~thi
                  (result (fun (sum, count) -> Wire.Agg { sum; count }))
            | Wire.Insert { key; value; at } -> write (Shard.Op.Insert { key; value; at })
            | Wire.Delete { key; at } -> write (Shard.Op.Delete { key; at })
            | Wire.Checkpoint ->
                Shard.Cluster.submit_checkpoint t.cluster (result (fun () -> Wire.Ack))
            | Wire.Vacuum _ when Admission.standby t.adm ->
                reply
                  (err Wire.Invalid_request
                     "this node is a follower; vacuum the leader (retention ships through \
                      the WAL)")
            | Wire.Vacuum { horizon; max_pages_per_step } ->
                let max_pages_per_step =
                  if max_pages_per_step <= 0 then 128 else max_pages_per_step
                in
                Shard.Cluster.submit_vacuum t.cluster ~horizon ~max_pages_per_step
                  (result (fun (r : Rta.vacuum_report) ->
                       Wire.Vacuum_reply
                         {
                           v_horizon = r.v_horizon;
                           v_steps = r.v_steps;
                           v_pages_freed = r.v_progress.pages_freed;
                           v_pages_pruned = r.v_progress.pages_pruned;
                           v_records_dropped = r.v_progress.records_dropped;
                         }))
            | Wire.Stats | Wire.Health | Wire.Ping | Wire.Shutdown | Wire.Shard_stats
            | Wire.Observe | Wire.Wal_subscribe _ | Wire.Wal_ack _ | Wire.Replica_stats
            | Wire.Promote ->
                assert false))
    | Wire.Wal_subscribe _ | Wire.Wal_ack _ | Wire.Replica_stats | Wire.Promote ->
        assert false (* dispatched to the extension above *))

(* Decode every complete frame in the input buffer.  On a framing error
   the byte stream can no longer be trusted: answer once, stop reading,
   close after the answer flushes. *)
let parse t conn =
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    let t0 = if t.phases <> None then Phases.now_ns () else 0L in
    match
      Wire.decode_request_traced ~buf:conn.inbuf ~pos:!pos ~avail:(conn.in_len - !pos)
    with
    | Wire.Complete ((req, trace), used) ->
        pos := !pos + used;
        (* The trace id is ambient for the whole handling extent, so
           every span below — engine apply, group commit, extension — joins
           the request's trace without threading it by hand. *)
        Tracer.with_trace ~trace (fun () -> handle_request t conn ~trace ~t0 req)
    | Wire.Incomplete -> continue := false
    | Wire.Fail e ->
        let slot = reserve conn in
        fill slot (err Wire.Bad_request (Format.asprintf "%a" Wire.pp_error e));
        conn.close_after_flush <- true;
        conn.in_len <- 0;
        pos := 0;
        continue := false
  done;
  if !pos > 0 then begin
    Bytes.blit conn.inbuf !pos conn.inbuf 0 (conn.in_len - !pos);
    conn.in_len <- conn.in_len - !pos
  end

(* --- Socket I/O ------------------------------------------------------------------ *)

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* After the fd is gone: the hook may push to other connections but
       must see this one already dead. *)
    t.on_close conn.id
  end

let read_conn t conn =
  ensure_in conn read_chunk;
  match Unix.read conn.fd conn.inbuf conn.in_len read_chunk with
  | 0 ->
      (* EOF.  Any responses still owed are flushed before closing. *)
      if Queue.is_empty conn.slots && out_pending conn = 0 then close_conn t conn
      else conn.close_after_flush <- true
  | n ->
      conn.in_len <- conn.in_len + n;
      parse t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* Finish every phase cell whose response bytes are now fully on the
   socket: the reply-flush phase runs from the request's last charge (its
   result in hand) to here. *)
let rec complete_flushes t conn =
  match Queue.peek_opt conn.flushes with
  | Some (c, target) when target <= conn.sent_total ->
      ignore (Queue.pop conn.flushes);
      (match t.phases with
      | Some r ->
          Phases.charge c Phases.Reply_flush;
          Phases.finish r c
      | None -> ());
      complete_flushes t conn
  | _ -> ()

let write_conn t conn =
  if out_pending conn > 0 then
    match Unix.write conn.fd conn.out conn.out_pos (out_pending conn) with
    | n ->
        conn.out_pos <- conn.out_pos + n;
        conn.sent_total <- conn.sent_total + n;
        if conn.out_pos = conn.out_len then begin
          conn.out_pos <- 0;
          conn.out_len <- 0
        end;
        complete_flushes t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn

(* The answer to a connection whose descriptor [select] cannot watch. *)
let too_many_connections =
  lazy
    (Wire.encode_response
       (err Wire.Overloaded "too many open connections (FD_SETSIZE); retry later"))

let refuse fd =
  let b = Lazy.force too_many_connections in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write fd b 0 (Bytes.length b))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Accept every pending connection; new ones join the end of [t.conns]
   in arrival order, in one append per call. *)
let accept_all t =
  let rec go acc =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ when fd_int fd >= fd_setsize ->
        refuse fd;
        go acc
    | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          {
            fd;
            id = t.next_id;
            inbuf = Bytes.create read_chunk;
            in_len = 0;
            slots = Queue.create ();
            out = Bytes.create 4096;
            out_pos = 0;
            out_len = 0;
            staged_total = 0;
            sent_total = 0;
            flushes = Queue.create ();
            close_after_flush = false;
            dead = false;
            subscriber = false;
          }
        in
        t.next_id <- t.next_id + 1;
        go (conn :: acc)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
    | exception Unix.Unix_error _ -> acc
  in
  match go [] with [] -> () | fresh -> t.conns <- t.conns @ List.rev fresh

(* --- The loop -------------------------------------------------------------------- *)

let conn_busy c = (not (Queue.is_empty c.slots)) || out_pending c > 0

let step t ~timeout =
  match t.state with
  | Stopped -> false
  | _ ->
      t.conns <- List.filter (fun c -> not c.dead) t.conns;
      let read_fds =
        (if t.state = Accepting then [ t.listen_fd ] else [])
        @ (Shard.Cluster.wake_fd t.cluster :: List.map fst t.watches)
        @ List.filter_map
            (fun c ->
              (* Backpressure: a connection drowning in unread responses
                 stops being read until the client drains them.  During a
                 drain nothing new is read at all.  Subscribers are
                 exempt from the high-water pause: a shipping backlog can
                 dwarf the limit, and pausing reads would also pause the
                 very acks that let the backlog shrink. *)
              if
                t.state <> Accepting || c.close_after_flush
                || (out_pending c >= t.cfg.high_water && not c.subscriber)
              then None
              else Some c.fd)
            t.conns
      in
      let write_fds = List.filter_map (fun c -> if conn_busy c then Some c.fd else None) t.conns in
      let rs, _, _ =
        try Unix.select read_fds write_fds [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let mark v = List.iter (fun fd -> Bytes.set t.ready (fd_int fd) v) rs in
      let ready fd = Bytes.get t.ready (fd_int fd) <> '\000' in
      mark '\001';
      if ready t.listen_fd then accept_all t;
      (* Snapshot: a watch callback may add or remove watches. *)
      List.iter (fun (fd, k) -> if ready fd && List.mem_assoc fd t.watches then k ()) t.watches;
      List.iter (fun c -> if (not c.dead) && ready c.fd then read_conn t c) t.conns;
      mark '\000';
      (* The group commit — every write parsed this iteration, across all
         connections, lands under one WAL sync per [max_batch] chunk on a
         one-shard cluster — then the completions posted by writer and
         reader domains. *)
      ignore (Shard.Cluster.drain t.cluster);
      (* Extension tick after group commit (the gate callbacks have run,
         new WAL records are durable and shippable) and before the pump
         (anything the tick fills or pushes flushes this same step). *)
      t.tick ();
      List.iter
        (fun c ->
          if not c.dead then begin
            pump c;
            write_conn t c
          end)
        t.conns;
      List.iter
        (fun c ->
          if (not c.dead) && c.close_after_flush && Queue.is_empty c.slots
             && out_pending c = 0
          then close_conn t c)
        t.conns;
      t.conns <- List.filter (fun c -> not c.dead) t.conns;
      let s = Shard.Cluster.totals t.cluster in
      Metrics.set_gauge t.m_queue_depth (float_of_int (queue_depth t));
      Metrics.set_gauge t.m_in_flight (float_of_int (Admission.in_flight t.adm));
      Metrics.set_gauge t.m_conns (float_of_int (List.length t.conns));
      Metrics.set_counter t.m_batches s.batches;
      Metrics.set_counter t.m_acked s.acked;
      (match t.state with
      | Draining ->
          if
            (not (List.exists conn_busy t.conns))
            && Shard.Cluster.outstanding t.cluster = 0
          then begin
            List.iter (close_conn t) t.conns;
            t.conns <- [];
            (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
            t.state <- Stopped
          end
      | Accepting | Stopped -> ());
      t.state <> Stopped

let run t = while step t ~timeout:1.0 do () done

let request_shutdown t = if t.state = Accepting then t.state <- Draining
let shutting_down t = t.state <> Accepting
let connections t = List.length t.conns
let requests t = t.requests

let cluster t = t.cluster
let admission t = t.adm
let metrics t = t.reg
let set_extension t f = t.extension <- Some f
let set_tick t f = t.tick <- f
let on_conn_close t f = t.on_close <- f
let add_watch t fd k = t.watches <- (fd, k) :: List.remove_assoc fd t.watches
let remove_watch t fd = t.watches <- List.remove_assoc fd t.watches
let telemetry t = t.tel
let enable_phases t r = t.phases <- Some r
let phase_recorder t = t.phases
let set_flight t f = t.flight <- Some f
let flight t = t.flight
let set_observe_extra t f = t.observe_extra <- f
let last_write_trace t = t.last_write_trace_
