module Metrics = Telemetry.Metrics
module Json = Telemetry.Json

type sub = {
  sub_id : int;
  push : bytes -> unit;
  pending : unit -> int;
  mutable acked : int;
  mutable sent : int;
  mutable lost : bool;  (* fell behind the backlog window: unserviceable *)
}

type t = {
  eng : Durable.t;
  tail : Wal.Tail.t;
  backlog : Backlog.t;
  sync_replicas : int;
  heartbeat_s : float;
  max_msg_bytes : int;
  flow_limit : int;
  mutable epoch : int;
  mutable fenced : bool;  (* saw proof of a newer leader: write path closed *)
  mutable step_down : unit -> unit;
  mutable subs : sub list;
  mutable gates : (int * (unit -> unit)) list;  (* ascending max_seq *)
  mutable durable : int;
  mutable shipped : int;
  mutable stale_acks : int;
  mutable promotions : int;
  mutable last_beat : float;
  mutable frame_trace : unit -> int64 option;
      (* Trace id to stamp on outgoing [Wal_frames] pushes — wired to the
         server's last traced write, so a tagged write's shipping and the
         follower's replay join its trace. *)
  m_shipped : Metrics.counter;
  m_lag : Metrics.gauge;
  m_followers : Metrics.gauge;
  m_commit : Metrics.gauge;
}

let watermark t = Rta.n_updates (Durable.warehouse t.eng)

(* Pull newly durable records off the leader's own log into the backlog.
   Only at [wal_unsynced = 0]: a record not yet covered by an fsync may
   still be lost by a leader crash, and a follower must never hold what
   the leader could lose (the watermark invariant would invert). *)
let poll_tail t =
  if Durable.wal_unsynced t.eng = 0 then begin
    let continue = ref true in
    while !continue do
      match Wal.Tail.poll t.tail with
      | Wal.Tail.Frame payload ->
          (* A record that cannot fit one wire message can never be
             shipped; silently stalling replication forever would be far
             worse than refusing here, at the record's origin. *)
          if 8 + Bytes.length payload > t.max_msg_bytes then
            failwith
              (Printf.sprintf
                 "Replica.Hub: WAL record of %d bytes exceeds the shippable \
                  message budget of %d; replication cannot proceed"
                 (Bytes.length payload) t.max_msg_bytes);
          Backlog.add t.backlog payload
      | Wal.Tail.Need_more -> continue := false
      | Wal.Tail.Corrupt msg ->
          failwith ("Replica.Hub: corrupt record under the live tail: " ^ msg)
    done;
    t.durable <- max t.durable (watermark t)
  end

let commit t =
  if t.sync_replicas <= 0 then t.durable
  else begin
    let acks =
      List.sort (fun a b -> compare b a)
        (List.filter_map (fun s -> if s.lost then None else Some s.acked) t.subs)
    in
    match List.nth_opt acks (t.sync_replicas - 1) with
    | Some k -> min k t.durable
    | None -> 0 (* fewer live followers than the quorum: nothing commits *)
  end

let release_gates t =
  let c = commit t in
  let rec go = function
    | (s, fire) :: rest when s <= c ->
        fire ();
        go rest
    | rest -> rest
  in
  t.gates <- go t.gates

let gate t ~max_seq ~fire =
  (* Runs inside the group commit, after the batch's WAL sync and before
     anything (a checkpoint later in this very request cycle) could
     truncate the log — the one point where every record is both durable
     and still on disk to read. *)
  poll_tail t;
  if commit t >= max_seq then fire () else t.gates <- t.gates @ [ (max_seq, fire) ]

let heartbeat_msg t =
  Wire.encode_response
    (Wire.Wal_frames { epoch = t.epoch; durable = t.durable; commit = commit t; frames = [] })

(* Ship as much of the backlog as the subscriber's flow-control window
   allows; [`Sent] / [`Idle] / [`Lost] drives heartbeat and reaping. *)
let ship t sub =
  if sub.lost then `Lost
  else begin
    let sent_any = ref false in
    let continue = ref true in
    while !continue do
      if sub.sent >= Backlog.hi t.backlog || sub.pending () >= t.flow_limit then
        continue := false
      else
        match
          Backlog.from t.backlog ~after:sub.sent ~max_frames:512
            ~max_bytes:t.max_msg_bytes
        with
        | None ->
            (* Evicted past this subscriber's position: it can never be
               caught up from memory again.  Go silent; the follower's
               heartbeat timeout tears the subscription down and its
               resubscription is refused with the floor. *)
            sub.lost <- true;
            continue := false
        | Some [] -> continue := false
        | Some frames ->
            let last = Backlog.seq_of (List.nth frames (List.length frames - 1)) in
            sub.push
              (Wire.encode_response ?trace:(t.frame_trace ())
                 (Wire.Wal_frames
                    { epoch = t.epoch; durable = t.durable; commit = commit t; frames }));
            sub.sent <- last;
            t.shipped <- t.shipped + List.length frames;
            sent_any := true
    done;
    if !sent_any then `Sent else `Idle
  end

let set_gauges t =
  Metrics.set_counter t.m_shipped t.shipped;
  Metrics.set_gauge t.m_followers (float_of_int (List.length t.subs));
  Metrics.set_gauge t.m_commit (float_of_int (commit t));
  let lag =
    match t.subs with
    | [] -> 0
    | subs -> List.fold_left (fun m s -> max m (t.durable - s.acked)) 0 subs
  in
  Metrics.set_gauge t.m_lag (float_of_int lag)

let tick t =
  poll_tail t;
  release_gates t;
  let now = Unix.gettimeofday () in
  let due = now -. t.last_beat >= t.heartbeat_s in
  List.iter
    (fun sub ->
      match ship t sub with
      | `Sent | `Lost -> ()
      | `Idle ->
          (* Watermarks-only frame: keeps the follower's failure detector
             quiet and publishes durable/commit progress made by acks. *)
          if due then sub.push (heartbeat_msg t))
    t.subs;
  if due then t.last_beat <- now;
  t.subs <- List.filter (fun s -> not s.lost) t.subs;
  set_gauges t

let stats t =
  let live = List.filter (fun s -> not s.lost) t.subs in
  {
    Wire.r_role = Wire.R_leader;
    r_epoch = t.epoch;
    r_durable = t.durable;
    r_commit = commit t;
    r_leader_durable = t.durable;
    r_lag =
      (match live with
      | [] -> 0
      | subs -> List.fold_left (fun m s -> max m (t.durable - s.acked)) 0 subs);
    r_frames_shipped = t.shipped;
    r_frames_replayed = 0;
    r_promotions = t.promotions;
    r_followers = List.map (fun s -> (s.sub_id, s.acked)) live;
  }

(* Positive evidence of a newer leadership term: we are the deposed one.
   Close the write path (admission standby, no more commit gating) so no
   client is acked for a write the cluster will never see; queries keep
   serving.  Recovery is the operator's (or a re-seeded follower's). *)
let fence t =
  if not t.fenced then begin
    t.fenced <- true;
    (* Cut the subscribers loose: our silence trips their failure
       detectors, and their resubscription is refused below — they must
       find the new leader (or an operator). *)
    List.iter (fun s -> s.lost <- true) t.subs;
    t.step_down ()
  end

let handle t (ctx : Server.ext_ctx) (req : Wire.request) : Server.ext_outcome =
  match req with
  | Wire.Wal_subscribe { epoch; from_seq } ->
      if epoch > t.epoch then begin
        fence t;
        Server.Ext_reply
          (Wire.Err
             {
               code = Wire.Fenced;
               detail =
                 Printf.sprintf "leader epoch %d is behind subscriber epoch %d" t.epoch
                   epoch;
             })
      end
      else if t.fenced then
        (* Deposed: feeding a follower our history could steer it away
           from the real leader's.  Send it looking elsewhere. *)
        Server.Ext_reply
          (Wire.Err
             { code = Wire.Fenced; detail = "this leader has been deposed" })
      else begin
        poll_tail t;
        if from_seq < Backlog.floor t.backlog then
          Server.Ext_reply
            (Wire.Err
               {
                 code = Wire.Rebootstrap;
                 detail =
                   Printf.sprintf
                     "subscriber watermark %d is behind the backlog floor %d; bootstrap \
                      from a checkpoint copy"
                     from_seq (Backlog.floor t.backlog);
               })
        else if from_seq > t.durable then
          (* Ahead of everything we ever durably wrote: the subscriber
             holds history we never shipped (a deposed leader's unshipped
             tail).  Accepting it would let it vouch for records it does
             not have — and silently keep a divergent suffix. *)
          Server.Ext_reply
            (Wire.Err
               {
                 code = Wire.Rebootstrap;
                 detail =
                   Printf.sprintf
                     "subscriber watermark %d is ahead of the leader durable watermark \
                      %d: divergent history; bootstrap from a checkpoint copy"
                     from_seq t.durable;
               })
        else begin
          t.subs <-
            {
              sub_id = ctx.Server.ext_conn;
              push = ctx.Server.ext_push;
              pending = ctx.Server.ext_pending;
              acked = from_seq;
              sent = from_seq;
              lost = false;
            }
            :: List.filter (fun s -> s.sub_id <> ctx.Server.ext_conn) t.subs;
          Server.Ext_subscribe
            (Wire.Sub_ok
               { epoch = t.epoch; floor = Backlog.floor t.backlog; durable = t.durable })
        end
      end
  | Wire.Wal_ack { epoch; seq } ->
      if epoch <> t.epoch then begin
        (* A newer-epoch ack is deposition evidence just like a
           newer-epoch subscribe; an older one is deposed-leader residue. *)
        if epoch > t.epoch then fence t;
        t.stale_acks <- t.stale_acks + 1;
        Server.Ext_silent
      end
      else begin
        (match List.find_opt (fun s -> s.sub_id = ctx.Server.ext_conn) t.subs with
        | Some s ->
            (* Clamped: a follower cannot vouch for more than we have
               durably written — the watermark invariant, enforced. *)
            s.acked <- max s.acked (min seq t.durable)
        | None -> ());
        release_gates t;
        Server.Ext_silent
      end
  | Wire.Replica_stats -> Server.Ext_reply (Wire.Replica_stats_reply (stats t))
  | Wire.Promote ->
      Server.Ext_reply
        (Wire.Err { code = Wire.Invalid_request; detail = "this node is already the leader" })
  | _ -> Server.Ext_pass

let conn_closed t id = t.subs <- List.filter (fun s -> s.sub_id <> id) t.subs

let create ?(vfs = Storage.Vfs.os) ?metrics ?(cap = 1 lsl 16) ?(sync_replicas = 0)
    ?(heartbeat_s = 0.5) ?(flow_limit = 1 lsl 20) ?(epoch = 0) ?(promotions = 0) ~path
    eng =
  if sync_replicas < 0 then invalid_arg "Replica.Hub: sync_replicas must be >= 0";
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  (* [`Reopen], not [`Log]: the tail is a reader and must not take (or,
     on close, drop) the engine's one-process guard. *)
  let tail = Wal.Tail.create (vfs.Storage.Vfs.v_open `Reopen (Durable.wal_path path)) in
  let t =
    {
      eng;
      tail;
      backlog = Backlog.create ~cap ~floor:(Rta.n_updates (Durable.warehouse eng)) ();
      sync_replicas;
      heartbeat_s;
      max_msg_bytes = Wire.max_payload_bytes - 128;
      flow_limit;
      epoch;
      fenced = false;
      step_down = (fun () -> ());
      subs = [];
      gates = [];
      durable = 0;
      shipped = 0;
      stale_acks = 0;
      promotions;
      last_beat = 0.0;
      frame_trace = (fun () -> None);
      m_shipped =
        Metrics.counter reg ~help:"WAL frames shipped to followers."
          "replica_frames_shipped_total";
      m_lag =
        Metrics.gauge reg
          ~help:"Leader durable watermark minus slowest follower ack." "replica_lag";
      m_followers = Metrics.gauge reg ~help:"Live subscribers." "replica_followers";
      m_commit =
        Metrics.gauge reg ~help:"Replication-acknowledged commit watermark."
          "replica_commit";
    }
  in
  (* Load whatever the log already holds (it is durable by definition of
     being there across an open): history for late subscribers. *)
  poll_tail t;
  t

let set_step_down t f = t.step_down <- f
let set_frame_trace t f = t.frame_trace <- f
let fenced t = t.fenced

(* The leader's contribution to the server's [Observe] document:
   per-follower acked watermark and lag, plus the commit watermark the
   quorum certifies. *)
let observe_extra t () =
  let live = List.filter (fun s -> not s.lost) t.subs in
  [
    ( "replication",
      Json.Obj
        [
          ("role", Json.Str "leader");
          ("epoch", Json.Int t.epoch);
          ("durable", Json.Int t.durable);
          ("commit", Json.Int (commit t));
          ( "lag",
            Json.Int
              (List.fold_left (fun m s -> max m (t.durable - s.acked)) 0 live) );
          ("pending_gates", Json.Int (List.length t.gates));
          ( "followers",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     [
                       ("id", Json.Int s.sub_id);
                       ("acked", Json.Int s.acked);
                       ("lag", Json.Int (max 0 (t.durable - s.acked)));
                     ])
                 live) );
        ] );
  ]

let attach t srv =
  Server.set_extension srv (handle t);
  Server.set_tick srv (fun () -> tick t);
  Server.on_conn_close srv (conn_closed t);
  Server.set_observe_extra srv (observe_extra t);
  set_frame_trace t (fun () -> Server.last_write_trace srv);
  Shard.Cluster.set_gate (Server.cluster srv) (Some (gate t));
  set_step_down t (fun () ->
      Admission.set_standby (Server.admission srv) true;
      Shard.Cluster.set_gate (Server.cluster srv) None)

let epoch t = t.epoch
let set_epoch t e = t.epoch <- max t.epoch e
let durable t = t.durable
let commit_watermark t = commit t
let frames_shipped t = t.shipped
let stale_acks t = t.stale_acks
let followers t = List.map (fun s -> (s.sub_id, s.acked)) t.subs
let pending_gates t = List.length t.gates
