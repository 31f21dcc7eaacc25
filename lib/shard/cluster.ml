module E = Storage.Storage_error
module Io_stats = Telemetry.Io_stats
module Phases = Telemetry.Phases
module Tracer = Telemetry.Tracer

type config = {
  readers : int;
  max_batch : int;
  mailbox_capacity : int;
  sim_io_ns : int;
}

let default_config = { readers = 0; max_batch = 64; mailbox_capacity = 1024; sim_io_ns = 0 }

type outcome = Applied | Rejected of string | Failed of E.t

type error =
  | Invalid of string
  | Below_horizon of { at : int; horizon : int }
  | Io of E.t

type gate = max_seq:int -> fire:(unit -> unit) -> unit

(* A write in flight.  Its phase cell crosses at most one domain hop:
   exactly one writer touches it, sequenced by the mailbox on the way in
   and the completion queue on the way out, so there is no concurrent
   mutation. *)
type write = {
  op : Op.t;
  cell : Phases.cell option;
  trace : int64 option;
  k : outcome -> unit;
}

(* One shard's writer: the engine it owns outright and its group-commit
   counters.  The same worker code runs on a writer domain (several
   shards) or inline on the caller's domain (one shard). *)
type worker = {
  shard : int;
  eng : Durable.t;
  cell_ : Snapshot.t option;  (* [None] inline: stats are read live *)
  mutable batches : int;
  mutable acked : int;
}

(* Writes are batched; everything else is a job the writer runs against
   its engine between batches. *)
type wmsg = W_write of write | W_job of (worker -> unit)

type rmsg =
  | R_apply of { shard : int; ops : Op.t list; mark : int }
  | R_vacuum of { shard : int; horizon : int; mark : int }
  | R_query of {
      klo : int;
      khi : int;
      tlo : int;
      thi : int;
      cell : Phases.cell option;
      trace : int64 option;
      reply : (int * int, error) result -> unit;
    }

(* --- Completion queue ----------------------------------------------------------- *)

(* Domains hand results back as thunks; the main domain runs them from
   [drain].  A self-pipe makes pending completions visible to the event
   loop's [select]; [signaled] keeps it to one byte in flight. *)
type completions = {
  cm : Mutex.t;
  cq : (unit -> unit) Queue.t;
  mutable signaled : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let completions_create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { cm = Mutex.create (); cq = Queue.create (); signaled = false; wake_r; wake_w }

let wake_byte = Bytes.make 1 '!'

let post c f =
  Mutex.lock c.cm;
  Queue.add f c.cq;
  let need_wake = not c.signaled in
  c.signaled <- true;
  Mutex.unlock c.cm;
  if need_wake then
    try ignore (Unix.write c.wake_w wake_byte 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let completions_drain c =
  Mutex.lock c.cm;
  let ready = Queue.create () in
  Queue.transfer c.cq ready;
  c.signaled <- false;
  Mutex.unlock c.cm;
  (let junk = Bytes.create 64 in
   try
     while Unix.read c.wake_r junk 0 64 > 0 do
       ()
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let n = Queue.length ready in
  Queue.iter (fun f -> f ()) ready;
  n

(* --- The cluster ---------------------------------------------------------------- *)

type shard_info = {
  shard : int;
  klo : int;
  khi : int;
  stat : Snapshot.stat;
  io : Io_stats.snapshot;
  queue : int;
  reader_watermark : int;
}

type t = {
  cfg : config;
  tel : Tracer.t;
  router : Router.t;
  workers : worker array;
  inline : bool;  (* one shard: its writer runs on the caller's domain *)
  writers : wmsg Mailbox.t array;  (* one per writer domain; empty inline *)
  pending : write Queue.t;  (* inline writes awaiting the next {!flush} *)
  mutable gate : gate option;
  readers : rmsg Mailbox.t array;
  reader_marks : int Atomic.t array array;  (* .(reader).(shard) *)
  comp : completions;
  mutable writer_domains : unit Domain.t list;
  mutable reader_domains : unit Domain.t list;
  mutable next_reader : int;
  mutable outstanding_ : int;
  mutable pending_writes_ : int;
  mutable stopped : bool;
}

let shard_path path ~shards i = if shards = 1 then path else Printf.sprintf "%s.s%d" path i

let sim_sleep t touches =
  if t.cfg.sim_io_ns > 0 && touches > 0 then
    Unix.sleepf (float_of_int (t.cfg.sim_io_ns * touches) /. 1e9)

let worst_health a b =
  let rank = function Durable.Healthy -> 0 | Durable.Degraded -> 1 | Durable.Read_only -> 2 in
  if rank a >= rank b then a else b

let live_stat (w : worker) =
  let r = Durable.warehouse w.eng in
  {
    Snapshot.watermark = Rta.n_updates r;
    now = Rta.now r;
    alive = Rta.alive_count r;
    pages = Rta.page_count r;
    batches = w.batches;
    acked = w.acked;
    wal_syncs = Wal.Stats.fsyncs (Durable.wal_stats w.eng);
    health = Durable.health w.eng;
    horizon = Rta.horizon r;
    published_ns = Tracer.now_ns ();
  }

let publish w = Option.iter (fun c -> Snapshot.publish c (live_stat w)) w.cell_

let charge_items items p =
  Array.iter (fun it -> Option.iter (fun c -> Phases.charge c p) it.cell) items

(* Map what an engine call may raise to the typed error the server answers
   with: a precondition, a window below the retention horizon, an I/O
   failure, a page that fails its checksum.  Anything else escaping would
   end a domain and strand the request. *)
let guard f =
  match Storage.Page_store.protect f with
  | Ok v -> Ok v
  | Error e -> Error (Io e)
  | exception Invalid_argument m -> Error (Invalid m)
  | exception Mvsbt.Below_horizon { at; horizon } -> Error (Below_horizon { at; horizon })

let shut_down = Error (Invalid "cluster is shut down")

(* --- Worker code, shared by writer domains and the inline writer ---------------- *)

let apply_one eng op =
  let r =
    match op with
    | Op.Insert { key; value; at } -> (
        try Ok (Durable.insert eng ~key ~value ~at) with Invalid_argument m -> Error m)
    | Op.Delete { key; at } -> (
        try Ok (Durable.delete eng ~key ~at) with Invalid_argument m -> Error m)
  in
  match r with
  | Ok (Ok ()) -> Applied  (* provisional: awaits the batch sync *)
  | Ok (Error e) -> Failed e
  | Error msg -> Rejected msg

let to_readers t mk =
  if Array.length t.readers > 0 then begin
    let m = mk () in
    Array.iter (fun rmb -> ignore (Mailbox.put rmb m)) t.readers
  end

let mark (w : worker) = Rta.n_updates (Durable.warehouse w.eng)

(* Group commit: apply the batch (each op logged but not synced — the
   engine runs under [Wal.Never]), then one WAL sync covers them all.  A
   failed sync fails every provisionally applied op: they are in the log
   but their durability is unknown, and an ack is a durability claim.
   Phase charging: queue wait ends at pickup; the batch loop minus the
   op's own engine-added append and apply is batch build; one fsync is
   charged to every rider. *)
let commit t (w : worker) items =
  Tracer.with_span t.tel "shard.batch"
    ~attrs:(fun () ->
      [ ("shard", Tracer.Int w.shard); ("size", Tracer.Int (Array.length items)) ])
  @@ fun () ->
  charge_items items Phases.Queue_wait;
  let outcomes =
    Array.map
      (fun it ->
        Durable.set_phase_cell w.eng it.cell;
        let o = Tracer.with_trace ~trace:it.trace (fun () -> apply_one w.eng it.op) in
        Durable.set_phase_cell w.eng None;
        o)
      items
  in
  charge_items items Phases.Batch_build;
  if Array.mem Applied outcomes then begin
    (match Durable.sync_wal w.eng with
    | Ok () -> ()
    | Error e ->
        Array.iteri (fun j o -> if o = Applied then outcomes.(j) <- Failed e) outcomes);
    charge_items items Phases.Fsync
  end;
  w.batches <- w.batches + 1;
  let ops = ref [] in
  Array.iteri (fun j it -> if outcomes.(j) = Applied then ops := it.op :: !ops) items;
  w.acked <- w.acked + List.length !ops;
  (* Broadcast before acknowledging: a query submitted after the ack is
     observed lands behind this batch in every reader's FIFO. *)
  if !ops <> [] then
    to_readers t (fun () -> R_apply { shard = w.shard; ops = List.rev !ops; mark = mark w });
  publish w;
  outcomes

let query t (w : worker) ~klo ~khi ~tlo ~thi ~trace =
  let before = Rta.page_touches (Durable.warehouse w.eng) in
  let res =
    Tracer.with_trace ~trace @@ fun () ->
    Tracer.with_span t.tel "shard.query" ~attrs:(fun () -> [ ("shard", Tracer.Int w.shard) ])
    @@ fun () -> guard (fun () -> Durable.sum_count w.eng ~klo ~khi ~tlo ~thi)
  in
  sim_sleep t (Rta.page_touches (Durable.warehouse w.eng) - before);
  res

let checkpoint (w : worker) =
  let r = Durable.checkpoint w.eng in
  publish w;
  Result.map_error (fun e -> Io e) r

(* Shard clocks advance independently, so each shard vacuums to the
   horizon or to its own clock, whichever is older: a shard that has seen
   no write since the horizon has nothing newer to keep. *)
let vacuum t (w : worker) ~horizon ~max_pages_per_step =
  let horizon = min horizon (Rta.now (Durable.warehouse w.eng)) in
  let r =
    match guard (fun () -> Durable.vacuum w.eng ~max_pages_per_step ~horizon) with
    | Ok (Ok r) ->
        to_readers t (fun () -> R_vacuum { shard = w.shard; horizon; mark = mark w });
        Ok r
    | Ok (Error e) -> Error (Io e)
    | Error e -> Error e
  in
  publish w;
  r

(* --- Writer domain --------------------------------------------------------------- *)

let writer_loop t (w : worker) mb =
  Tracer.set_thread_name (Printf.sprintf "shard-%d-writer" w.shard);
  let rec loop = function
    | None -> ()
    | Some (W_write first) ->
        let items = ref [ first ] and n = ref 1 and next = ref None and more = ref true in
        while !more && !n < t.cfg.max_batch do
          match Mailbox.try_take mb with
          | Some (W_write x) ->
              items := x :: !items;
              incr n
          | job ->
              next := job;
              more := false
        done;
        let items = Array.of_list (List.rev !items) in
        let outcomes = commit t w items in
        (* From the sync the op waits on the bookkeeping above, then in
           the completion queue until the main domain runs its ack. *)
        Array.iteri
          (fun j it ->
            let o = outcomes.(j) in
            post t.comp (fun () ->
                Option.iter (fun c -> Phases.charge c Phases.Queue_wait) it.cell;
                it.k o))
          items;
        loop (if Option.is_some !next then !next else Mailbox.take mb)
    | Some (W_job f) ->
        f w;
        loop (Mailbox.take mb)
  in
  loop (Mailbox.take mb);
  publish w

(* --- Reader domain --------------------------------------------------------------- *)

let reader_loop t r wh =
  Tracer.set_thread_name (Printf.sprintf "reader-%d" r);
  let mb = t.readers.(r) in
  let rec go () =
    match Mailbox.take mb with
    | None -> ()
    | Some (R_apply { shard; ops; mark }) ->
        List.iter (fun op -> Warehouse.apply_to wh ~shard op) ops;
        Atomic.set t.reader_marks.(r).(shard) mark;
        go ()
    | Some (R_vacuum { shard; horizon; mark }) ->
        (* The replica replays the horizon, not the writer's page actions:
           it has its own page graph.  Answers above the horizon and the
           refusal below it are what must match. *)
        ignore (guard (fun () -> Rta.vacuum (Warehouse.replica wh shard) ~horizon));
        Atomic.set t.reader_marks.(r).(shard) mark;
        go ()
    | Some (R_query { klo; khi; tlo; thi; cell; trace; reply }) ->
        (* The whole query runs on this one reader domain, so its phase
           cell crosses exactly one domain hop — same safety argument as
           a write's cell in the writer loop. *)
        Option.iter (fun c -> Phases.charge c Phases.Queue_wait) cell;
        let before = Warehouse.page_touches wh in
        let res =
          Tracer.with_trace ~trace @@ fun () ->
          Tracer.with_span t.tel "reader.query"
            ~attrs:(fun () -> [ ("reader", Tracer.Int r) ])
          @@ fun () -> guard (fun () -> Warehouse.sum_count wh ~klo ~khi ~tlo ~thi)
        in
        sim_sleep t (Warehouse.page_touches wh - before);
        Option.iter (fun c -> Phases.charge c Phases.Apply) cell;
        post t.comp (fun () ->
            Option.iter (fun c -> Phases.charge c Phases.Queue_wait) cell;
            reply res);
        go ()
  in
  go ()

(* --- Construction ---------------------------------------------------------------- *)

(* Deep-copy a recovered warehouse through an in-memory vfs: the replica
   shares no mutable state with the engine, so the reader domain owns it
   outright. *)
let copy_warehouse rta =
  let fs = Storage.Vfs.Memory.create () in
  let vfs = Storage.Vfs.Memory.vfs fs in
  Rta.save ~vfs rta ~path:"replica";
  Rta.load ~vfs ~snapshot:"replica" ()

let create ?(config = default_config) ?(telemetry = Tracer.noop) ?boundaries engines =
  let shards = Array.length engines in
  if shards < 1 || shards > 64 then invalid_arg "Cluster.create: shards must be in [1, 64]";
  if config.readers < 0 || config.readers > 64 then
    invalid_arg "Cluster.create: readers must be in [0, 64]";
  if config.max_batch < 1 then invalid_arg "Cluster.create: max_batch must be >= 1";
  let max_key = Rta.max_key (Durable.warehouse engines.(0)) in
  if Array.exists (fun e -> Rta.max_key (Durable.warehouse e) <> max_key) engines then
    invalid_arg "Cluster.create: the shard engines disagree on max_key";
  let router = Router.create ?boundaries ~shards ~max_key () in
  let inline = shards = 1 in
  let workers =
    Array.mapi
      (fun shard eng ->
        let w = { shard; eng; cell_ = None; batches = 0; acked = 0 } in
        if inline then w else { w with cell_ = Some (Snapshot.create (live_stat w)) })
      engines
  in
  let t =
    {
      cfg = config;
      tel = telemetry;
      router;
      workers;
      inline;
      writers =
        (if inline then [||]
         else Array.init shards (fun _ -> Mailbox.create ~capacity:config.mailbox_capacity ()));
      pending = Queue.create ();
      gate = None;
      readers =
        Array.init config.readers (fun _ ->
            Mailbox.create ~capacity:config.mailbox_capacity ());
      reader_marks =
        Array.init config.readers (fun _ -> Array.map (fun w -> Atomic.make (mark w)) workers);
      comp = completions_create ();
      writer_domains = [];
      reader_domains = [];
      next_reader = 0;
      outstanding_ = 0;
      pending_writes_ = 0;
      stopped = false;
    }
  in
  (* Replicas are seeded before any writer runs, so every reader starts
     at exactly the recovered watermark and the broadcasts continue from
     there. *)
  let reader_warehouses =
    Array.init config.readers (fun _ ->
        Warehouse.of_replicas ~router
          (Array.map (fun eng -> copy_warehouse (Durable.warehouse eng)) engines))
  in
  t.writer_domains <-
    List.mapi (fun i mb -> Domain.spawn (fun () -> writer_loop t workers.(i) mb))
      (Array.to_list t.writers);
  t.reader_domains <-
    List.init config.readers (fun r ->
        Domain.spawn (fun () -> reader_loop t r reader_warehouses.(r)));
  t

let router t = t.router
let config t = t.cfg
let wake_fd t = t.comp.wake_r
let outstanding t = t.outstanding_
let pending_writes t = t.pending_writes_

let set_gate t g =
  if not t.inline then invalid_arg "Cluster.set_gate: needs a one-shard cluster";
  t.gate <- g

(* --- The inline writer ------------------------------------------------------------ *)

(* Commit every write queued on the inline writer, [max_batch] to a WAL
   sync.  With a replication gate installed, a batch that durably applied
   a write hands its acks to the gate, which fires them once enough
   followers hold the batch. *)
let flush t =
  while not (Queue.is_empty t.pending) do
    let items =
      Array.init (min t.cfg.max_batch (Queue.length t.pending)) (fun _ -> Queue.pop t.pending)
    in
    let w = t.workers.(0) in
    let outcomes = commit t w items in
    let fire () = Array.iteri (fun j it -> it.k outcomes.(j)) items in
    match t.gate with
    | Some gate when Array.mem Applied outcomes ->
        (* From the sync to the gate releasing the batch is the quorum
           wait. *)
        gate ~max_seq:(mark w) ~fire:(fun () ->
            charge_items items Phases.Quorum_wait;
            fire ())
    | _ -> fire ()
  done

let drain t =
  flush t;
  (* With no domain to post completions there is no pipe to empty: a
     one-shard cluster without readers costs the loop no syscall here. *)
  if t.writer_domains = [] && t.reader_domains = [] then 0 else completions_drain t.comp

(* --- Submission (main domain) ----------------------------------------------------- *)

let submit_write t ?cell ?trace op k =
  t.outstanding_ <- t.outstanding_ + 1;
  t.pending_writes_ <- t.pending_writes_ + 1;
  let k o =
    t.outstanding_ <- t.outstanding_ - 1;
    t.pending_writes_ <- t.pending_writes_ - 1;
    k o
  in
  let w = { op; cell; trace; k } in
  if t.stopped then k (Rejected "cluster is shut down")
  else if t.inline then Queue.add w t.pending
  else if not (Mailbox.put t.writers.(Router.shard_of_key t.router (Op.key op)) (W_write w))
  then k (Rejected "cluster is shut down")

(* Run [job] on shard [i]'s writer and hand its result to [k] on the main
   domain: inline at once, or through the writer's FIFO mailbox (behind
   every write submitted before it) and the completion queue. *)
let on_writer t i job k =
  if t.stopped then k shut_down
  else if t.inline then k (job t.workers.(i))
  else if
    not
      (Mailbox.put t.writers.(i)
         (W_job
            (fun w ->
              let r = job w in
              post t.comp (fun () -> k r))))
  then k shut_down

(* [n] part results merge on the main domain into one reply; the first
   error wins. *)
let gather t n ~combine k =
  t.outstanding_ <- t.outstanding_ + 1;
  let remaining = ref n and acc = ref None in
  fun res ->
    acc :=
      Some
        (match (!acc, res) with
        | None, r | Some (Ok _), (Error _ as r) -> r
        | Some (Error _ as r), _ -> r
        | Some (Ok a), Ok b -> Ok (combine a b));
    decr remaining;
    if !remaining = 0 then begin
      t.outstanding_ <- t.outstanding_ - 1;
      k (Option.get !acc)
    end

let submit_query t ?cell ?trace ~klo ~khi ~tlo ~thi reply =
  if Array.length t.readers > 0 then begin
    t.outstanding_ <- t.outstanding_ + 1;
    let reply res =
      t.outstanding_ <- t.outstanding_ - 1;
      reply res
    in
    let r = t.next_reader in
    t.next_reader <- (r + 1) mod Array.length t.readers;
    if not (Mailbox.put t.readers.(r) (R_query { klo; khi; tlo; thi; cell; trace; reply }))
    then reply shut_down
  end
  else
    match Plan.scatter t.router ~klo ~khi with
    | [] -> reply (Ok (0, 0))
    | parts ->
        (* Several writer domains may serve parts of this one query
           concurrently, so the phase cell stays on the main domain: the
           whole scatter-gather round trip is the query's apply phase. *)
        let part =
          gather t (List.length parts)
            ~combine:(fun (s, c) (s', c') -> (s + s', c + c'))
            (fun res ->
              Option.iter (fun c -> Phases.charge c Phases.Apply) cell;
              reply res)
        in
        (* The inline writer answers at once from committed state: writes
           queued this iteration are not applied until {!flush}, so the
           query neither sees an unsynced write nor splits their batch. *)
        List.iter
          (fun { Plan.shard; klo; khi } ->
            on_writer t shard (fun w -> query t w ~klo ~khi ~tlo ~thi ~trace) part)
          parts

(* Checkpoint and vacuum go to every shard.  Inline, the queued writes
   commit first, so the checkpoint or the horizon lands after every write
   submitted before it; writer domains get the same barrier from their
   FIFO mailboxes. *)
let to_every_writer t job ~combine k =
  flush t;
  let part = gather t (Array.length t.workers) ~combine k in
  Array.iteri (fun i _ -> on_writer t i job part) t.workers

let submit_checkpoint t k = to_every_writer t checkpoint ~combine:(fun () () -> ()) k

let submit_vacuum t ~horizon ~max_pages_per_step k =
  to_every_writer t
    (fun w -> vacuum t w ~horizon ~max_pages_per_step)
    ~combine:(fun (a : Rta.vacuum_report) (b : Rta.vacuum_report) ->
      {
        Rta.v_horizon = max a.v_horizon b.v_horizon;
        v_steps = a.v_steps + b.v_steps;
        v_progress = Rta.vacuum_progress_add a.v_progress b.v_progress;
      })
    k

let await t =
  while t.outstanding_ > 0 do
    flush t;
    if t.outstanding_ > 0 then (
      match Unix.select [ t.comp.wake_r ] [] [] 0.05 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    ignore (completions_drain t.comp)
  done

(* --- Observation ------------------------------------------------------------------ *)

(* The inline shard lives on the caller's domain, so its stats are read
   live (a follower replaying into the engine moves them too); a writer
   domain's come from its last publication. *)
let stat (w : worker) = match w.cell_ with Some c -> Snapshot.read c | None -> live_stat w

let shard_infos t =
  Array.to_list t.workers
  |> List.map (fun (w : worker) ->
         let klo, khi = Router.range t.router w.shard in
         let stat = stat w in
         let reader_watermark =
           Array.fold_left
             (fun acc marks -> min acc (Atomic.get marks.(w.shard)))
             stat.Snapshot.watermark t.reader_marks
         in
         {
           shard = w.shard;
           klo;
           khi;
           stat;
           io = Io_stats.snapshot (Durable.io_stats w.eng);
           queue =
             (if t.inline then Queue.length t.pending else Mailbox.length t.writers.(w.shard));
           reader_watermark;
         })

let totals t =
  Array.fold_left
    (fun acc (w : worker) ->
      let s = stat w in
      {
        Snapshot.watermark = acc.Snapshot.watermark + s.Snapshot.watermark;
        now = max acc.Snapshot.now s.Snapshot.now;
        alive = acc.Snapshot.alive + s.Snapshot.alive;
        pages = acc.Snapshot.pages + s.Snapshot.pages;
        batches = acc.Snapshot.batches + s.Snapshot.batches;
        acked = acc.Snapshot.acked + s.Snapshot.acked;
        wal_syncs = acc.Snapshot.wal_syncs + s.Snapshot.wal_syncs;
        health = worst_health acc.Snapshot.health s.Snapshot.health;
        horizon = max acc.Snapshot.horizon s.Snapshot.horizon;
        (* Oldest publication across shards: the age of the stalest
           snapshot bounds the whole cluster's. *)
        published_ns =
          (if acc.Snapshot.published_ns = 0L then s.Snapshot.published_ns
           else Int64.min acc.Snapshot.published_ns s.Snapshot.published_ns);
      })
    Snapshot.zero t.workers

let io_totals t =
  Io_stats.merge
    (Array.to_list (Array.map (fun w -> Io_stats.snapshot (Durable.io_stats w.eng)) t.workers))

let health t = (totals t).Snapshot.health

(* --- Shutdown --------------------------------------------------------------------- *)

let shutdown t =
  if not t.stopped then begin
    flush t;
    t.stopped <- true;
    (* Writers first: they drain their mailboxes (acking everything in
       flight) and publish a final watermark.  Readers stay up meanwhile
       so a writer blocked broadcasting into a full reader mailbox always
       makes progress. *)
    Array.iter Mailbox.close t.writers;
    List.iter Domain.join t.writer_domains;
    Array.iter Mailbox.close t.readers;
    List.iter Domain.join t.reader_domains;
    ignore (completions_drain t.comp);
    (try Unix.close t.comp.wake_w with Unix.Unix_error _ -> ());
    (try Unix.close t.comp.wake_r with Unix.Unix_error _ -> ())
  end
