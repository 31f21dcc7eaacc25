module M = Storage.Vfs.Memory
module Backlog = Replica.Backlog
module Apply = Replica.Apply
module Epoch = Replica.Epoch

type boundary = Logged | Synced | Shipped | Received | Replayed | Acked

let boundaries = [ Logged; Synced; Shipped; Received; Replayed; Acked ]

let pp_boundary ppf b =
  Format.pp_print_string ppf
    (match b with
    | Logged -> "logged"
    | Synced -> "synced"
    | Shipped -> "shipped"
    | Received -> "received"
    | Replayed -> "replayed"
    | Acked -> "acked")

type spec = { seed : int; max_key : int; updates : int; batch : int; sync_replicas : int }

let default_spec = { seed = 11; max_key = 24; updates = 96; batch = 4; sync_replicas = 1 }

type point = { p_boundary : boundary; p_batch : int }

let pp_point ppf p =
  Format.fprintf ppf "batch %d, killed after %a" p.p_batch pp_boundary p.p_boundary

(* --- One simulated cluster ---------------------------------------------------- *)

(* A shipped frame: the record payload plus the leadership term it was
   shipped under.  The epoch is what makes a deposed leader's late frames
   recognizably stale. *)
type frame = { f_epoch : int; f_payload : bytes }

type fnode = {
  f_path : string;
  f_vfs : Storage.Vfs.t;
  f_eng : Durable.t;
  mutable f_sent : int;  (* leader's ship cursor for this follower *)
  mutable f_net : frame list;  (* in flight, oldest first *)
  mutable f_inbox : frame list;  (* received, not yet applied *)
  mutable f_acked : int;  (* watermark as last acked to the leader *)
}

let apply_update eng u = Storage.Storage_error.ok_exn (Scenario.apply eng u)

(* The offline schedule: follower 0 hiccups every fifth batch, follower 1
   receives only every other batch.  Skew is the point — promotion must
   pick the right node, and in-flight frames must pile up and die. *)
let online idx b = if idx = 0 then b mod 5 <> 3 else b mod 2 = 1

exception Killed

type sim_result = { s_images : int; s_fenced : int; s_acked : int; s_violations : string list }

let run_point spec (script : Scenario.script) oracle ~boundary ~kill_batch =
  let n = Array.length script.steps in
  let nb = (n + spec.batch - 1) / spec.batch in
  assert (kill_batch < nb);
  let violations = ref [] in
  let viol fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  (* The leader: engine + the real tail/backlog pair a hub would run. *)
  let lfs = M.create () in
  let lvfs = M.vfs lfs in
  let leng =
    Durable.open_ ~sync_policy:Wal.Never ~vfs:lvfs ~max_key:script.max_key ~path:"lead" ()
  in
  let tail = Wal.Tail.create (lvfs.Storage.Vfs.v_open `Log (Durable.wal_path "lead")) in
  let backlog = Backlog.create ~floor:0 () in
  let epoch = 1 in
  let followers =
    Array.init 2 (fun i ->
        let fs = M.create () in
        let vfs = M.vfs fs in
        let path = "f" ^ string_of_int i in
        let eng =
          Durable.open_ ~sync_policy:Wal.Never ~vfs ~max_key:script.max_key ~path ()
        in
        { f_path = path; f_vfs = vfs; f_eng = eng; f_sent = 0; f_net = []; f_inbox = [];
          f_acked = 0 })
  in
  let issued = ref 0 in
  let leader_durable = ref 0 in
  let acked = ref 0 in
  let poll_tail () =
    let continue = ref true in
    while !continue do
      match Wal.Tail.poll tail with
      | Wal.Tail.Frame payload -> Backlog.add backlog payload
      | Wal.Tail.Need_more -> continue := false
      | Wal.Tail.Corrupt msg ->
          viol "leader tail corrupt: %s" msg;
          continue := false
    done;
    leader_durable := Apply.watermark leng
  in
  let check_watermarks stage =
    Array.iter
      (fun f ->
        let w = Apply.watermark f.f_eng in
        if w > !leader_durable then
          viol "follower %s watermark %d exceeds leader durable %d at %s" f.f_path w
            !leader_durable stage)
      followers
  in
  let commit () =
    if spec.sync_replicas <= 0 then !leader_durable
    else
      let acks =
        List.sort (fun a b -> compare b a)
          (Array.to_list (Array.map (fun f -> f.f_acked) followers))
      in
      match List.nth_opt acks (spec.sync_replicas - 1) with
      | Some k -> min k !leader_durable
      | None -> 0
  in
  (* The pipeline, killed mid-stage at the chosen boundary. *)
  (try
     for b = 0 to nb - 1 do
       let kill bd = if b = kill_batch && bd = boundary then raise Killed in
       let lo = b * spec.batch and hi = min n ((b + 1) * spec.batch) in
       for i = lo to hi - 1 do
         apply_update leng script.steps.(i)
       done;
       issued := hi;
       kill Logged;
       Storage.Storage_error.ok_exn (Durable.sync_wal leng);
       poll_tail ();
       kill Synced;
       Array.iter
         (fun f ->
           if f.f_sent < Backlog.hi backlog then begin
             match
               Backlog.from backlog ~after:f.f_sent ~max_frames:(n + 1) ~max_bytes:max_int
             with
             | None -> viol "follower %s fell behind the backlog floor" f.f_path
             | Some frames ->
                 List.iter
                   (fun payload ->
                     f.f_net <- f.f_net @ [ { f_epoch = epoch; f_payload = payload } ];
                     f.f_sent <- Backlog.seq_of payload)
                   frames
           end)
         followers;
       kill Shipped;
       Array.iter
         (fun f ->
           if online (if f.f_path = "f0" then 0 else 1) b then begin
             f.f_inbox <- f.f_inbox @ f.f_net;
             f.f_net <- []
           end)
         followers;
       kill Received;
       Array.iter
         (fun f ->
           if f.f_inbox <> [] then begin
             List.iter
               (fun fr ->
                 if fr.f_epoch = epoch then
                   match Apply.replay f.f_eng fr.f_payload with
                   | Apply.Applied _ | Apply.Skipped -> ()
                   | o -> viol "follower %s replay: %a" f.f_path Apply.pp_outcome o)
               f.f_inbox;
             f.f_inbox <- [];
             Storage.Storage_error.ok_exn (Durable.sync_wal f.f_eng)
           end)
         followers;
       check_watermarks "replayed";
       kill Replayed;
       Array.iter
         (fun f ->
           let w = Apply.watermark f.f_eng in
           (* The hub's clamp: no follower vouches past leader durable. *)
           f.f_acked <- max f.f_acked (min w !leader_durable))
         followers;
       acked := max !acked (min (commit ()) !leader_durable);
       kill Acked
     done;
     viol "kill point never reached (batch %d of %d)" kill_batch nb
   with Killed -> ());
  (* --- The kill: promote the most-advanced follower. ------------------------- *)
  let promoted =
    Array.fold_left
      (fun best f ->
        if Apply.watermark f.f_eng > Apply.watermark best.f_eng then f else best)
      followers.(0) followers
  in
  let other = if promoted == followers.(0) then followers.(1) else followers.(0) in
  (* Frames of the deposed term still buffered anywhere die unapplied —
     none were ever acked, so no client ack depends on them. *)
  let stale = promoted.f_net @ promoted.f_inbox @ other.f_net @ other.f_inbox in
  promoted.f_net <- [];
  promoted.f_inbox <- [];
  other.f_net <- [];
  other.f_inbox <- [];
  let new_epoch = epoch + 1 in
  Epoch.store ~vfs:promoted.f_vfs promoted.f_path new_epoch;
  if Epoch.load ~vfs:promoted.f_vfs promoted.f_path <> new_epoch then
    viol "promoted epoch did not persist";
  let promoted_n = Apply.watermark promoted.f_eng in
  let audit what ~floor ~ceiling eng =
    List.iter (viol "%s: %s" what) (Scenario.check oracle ~floor ~ceiling eng)
  in
  (* No acked write is lost: that is the semi-sync quorum's promise.
     With [sync_replicas = 0] an ack certifies only the leader's own
     fsync, so failing over can lose acked writes, and the matrix fails
     if it is held to them there. *)
  audit "promoted node"
    ~floor:(if spec.sync_replicas >= 1 then !acked else 0)
    ~ceiling:!issued promoted.f_eng;
  (* Fencing: deliver every stale frame to the promoted node.  Each must
     be refused on its epoch alone, moving nothing. *)
  let fenced = ref 0 in
  List.iter
    (fun fr ->
      if fr.f_epoch < new_epoch then incr fenced
      else begin
        viol "frame shipped under epoch %d not fenced by epoch %d" fr.f_epoch new_epoch;
        ignore (Apply.replay promoted.f_eng fr.f_payload)
      end)
    stale;
  if Apply.watermark promoted.f_eng <> promoted_n then
    viol "stale frames moved the promoted watermark";
  (* --- The deposed leader's disk, under every legal crash image. ------------- *)
  let images = Explorer.enumerate_at (M.ops lfs) in
  List.iter
    (fun (img : Explorer.image) ->
      Scenario.with_image Storage.Store_kind.Memory ~prefix:"lead" img @@ fun vfs path ->
      Scenario.check_recovered oracle ~floor:!acked ~ceiling:!issued (fun () ->
          Durable.open_ ~sync_policy:Wal.Never ~vfs ~max_key:script.max_key ~path ())
      |> List.iter (viol "deposed leader (%a image): %s" Explorer.pp_kind img.kind))
    images;
  (* --- Life after promotion. ------------------------------------------------- *)
  (* Clients retry everything unacked: the script suffix replays onto the
     new leader verbatim (each update was generated against exactly the
     oracle state the new leader now holds). *)
  for i = promoted_n to n - 1 do
    apply_update promoted.f_eng script.steps.(i)
  done;
  Storage.Storage_error.ok_exn (Durable.sync_wal promoted.f_eng);
  audit "promoted leader after the retried suffix" ~floor:n ~ceiling:n promoted.f_eng;
  (* The surviving follower resubscribes — a fresh tail + backlog over
     the promoted node's own WAL, exactly what its hub would serve. *)
  let ptail =
    Wal.Tail.create
      (promoted.f_vfs.Storage.Vfs.v_open `Log (Durable.wal_path promoted.f_path))
  in
  let pbacklog = Backlog.create ~floor:0 () in
  let continue = ref true in
  while !continue do
    match Wal.Tail.poll ptail with
    | Wal.Tail.Frame payload -> Backlog.add pbacklog payload
    | Wal.Tail.Need_more -> continue := false
    | Wal.Tail.Corrupt msg ->
        viol "promoted-leader tail corrupt: %s" msg;
        continue := false
  done;
  (match
     Backlog.from pbacklog ~after:(Apply.watermark other.f_eng) ~max_frames:(n + 1)
       ~max_bytes:max_int
   with
  | None -> viol "surviving follower refused by the promoted backlog floor"
  | Some frames ->
      List.iter
        (fun payload ->
          match Apply.replay other.f_eng payload with
          | Apply.Applied _ | Apply.Skipped -> ()
          | o -> viol "surviving follower resync: %a" Apply.pp_outcome o)
        frames;
      Storage.Storage_error.ok_exn (Durable.sync_wal other.f_eng);
      audit "surviving follower after resync" ~floor:n ~ceiling:n other.f_eng);
  Wal.Tail.close ptail;
  Wal.Tail.close tail;
  Durable.close leng;
  Array.iter (fun f -> Durable.close f.f_eng) followers;
  {
    s_images = List.length images;
    s_fenced = !fenced;
    s_acked = !acked;
    s_violations = List.rev !violations;
  }

(* --- The matrix ---------------------------------------------------------------- *)

let run ?limit spec =
  if spec.batch <= 0 then invalid_arg "Faultsim.Failover: batch must be positive";
  let script =
    Scenario.script `Replica ~seed:spec.seed ~updates:spec.updates ~max_key:spec.max_key
  in
  let oracle = Scenario.oracle script script.steps in
  let nb = (Array.length script.steps + spec.batch - 1) / spec.batch in
  let points =
    List.init nb (fun b -> List.map (fun bd -> { p_boundary = bd; p_batch = b }) boundaries)
    |> List.concat |> Scenario.sample ?limit
  in
  let results =
    List.map
      (fun p ->
        ( p,
          try run_point spec script oracle ~boundary:p.p_boundary ~kill_batch:p.p_batch
          with e ->
            (* What a kill point raises is its violation; the matrix goes on. *)
            { s_images = 0; s_fenced = 0; s_acked = 0;
              s_violations = [ "raised " ^ Printexc.to_string e ] } ))
      points
  in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  {
    Scenario.counts =
      [
        ("kill states", List.length points);
        ("deposed-leader images", sum (fun r -> r.s_images));
        ("fenced", sum (fun r -> r.s_fenced));
        ("max acked", List.fold_left (fun m (_, r) -> max m r.s_acked) 0 results);
      ];
    violations =
      List.concat_map
        (fun (p, r) ->
          let at = Format.asprintf "%a" pp_point p in
          List.map (fun reason -> { Scenario.at; reason }) r.s_violations)
        results;
  }
