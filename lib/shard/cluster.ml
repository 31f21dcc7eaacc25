module E = Storage.Storage_error
module Io_stats = Telemetry.Io_stats
module Phases = Telemetry.Phases
module Tracer = Telemetry.Tracer

type config = {
  shards : int;
  readers : int;
  max_batch : int;
  mailbox_capacity : int;
  sim_io_ns : int;
}

let default_config =
  { shards = 2; readers = 0; max_batch = 64; mailbox_capacity = 1024; sim_io_ns = 0 }

type outcome = Applied | Rejected of string | Failed of E.t
type query_error = Bad_query of string | Io of E.t

(* Writes carry the request's phase cell across the domain hop: exactly
   one writer domain touches it, sequenced by the mailbox on the way in
   and the completion queue on the way out, so there is no concurrent
   mutation.  The way back is a queue wait too, charged when the main
   domain runs the completion.  Scatter queries may fan one request out
   to several writer domains at once, so they carry only the trace id
   (for span correlation); their phase charging stays on the main
   domain. *)
type wmsg =
  | W_write of Op.t * Phases.cell option * int64 option * (outcome -> unit)
  | W_query of {
      klo : int;
      khi : int;
      tlo : int;
      thi : int;
      trace : int64 option;
      reply : (int * int, query_error) result -> unit;
    }
  | W_checkpoint of ((unit, E.t) result -> unit)

type rmsg =
  | R_apply of { shard : int; ops : Op.t list }
  | R_query of {
      klo : int;
      khi : int;
      tlo : int;
      thi : int;
      cell : Phases.cell option;
      trace : int64 option;
      reply : (int * int, query_error) result -> unit;
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
  queue : int;
  reader_watermark : int;
}

type t = {
  cfg : config;
  tel : Tracer.t;
  router : Router.t;
  writers : wmsg Mailbox.t array;
  readers : rmsg Mailbox.t array;
  published : Snapshot.t array;
  reader_marks : int Atomic.t array array;  (* .(reader).(shard) *)
  shard_io : Io_stats.t array;
  comp : completions;
  recovery_ : (int * Durable.recovery_report) array;
  mutable writer_domains : unit Domain.t list;
  mutable reader_domains : unit Domain.t list;
  mutable next_reader : int;
  mutable outstanding_ : int;
  mutable pending_writes_ : int;
  mutable stopped : bool;
}

let shard_path path i = Printf.sprintf "%s.s%d" path i

let sim_sleep t touches =
  if t.cfg.sim_io_ns > 0 && touches > 0 then
    Unix.sleepf (float_of_int (t.cfg.sim_io_ns * touches) /. 1e9)

let worst_health a b =
  let rank = function Durable.Healthy -> 0 | Durable.Degraded -> 1 | Durable.Read_only -> 2 in
  if rank a >= rank b then a else b

let stat_of_engine eng io =
  let w = Durable.warehouse eng in
  {
    Snapshot.watermark = Rta.n_updates w;
    now = Rta.now w;
    alive = Rta.alive_count w;
    pages = Rta.page_count w;
    batches = 0;
    acked = 0;
    wal_syncs = Wal.Stats.fsyncs (Durable.wal_stats eng);
    health = Durable.health eng;
    io = Io_stats.snapshot io;
    published_ns = 0L;  (* Snapshot.publish stamps the real clock *)
  }

(* --- Writer domain --------------------------------------------------------------- *)

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

let writer_loop t i eng =
  Tracer.set_thread_name (Printf.sprintf "shard-%d-writer" i);
  let mb = t.writers.(i) in
  let batches = ref 0 and acked = ref 0 in
  let publish () =
    Snapshot.publish t.published.(i)
      {
        (stat_of_engine eng t.shard_io.(i)) with
        Snapshot.batches = !batches;
        acked = !acked;
      }
  in
  let handle_query ~klo ~khi ~tlo ~thi ~trace reply =
    let before = Rta.page_touches (Durable.warehouse eng) in
    let res =
      Tracer.with_trace ~trace @@ fun () ->
      Tracer.with_span t.tel "shard.query"
        ~attrs:(fun () -> [ ("shard", Tracer.Int i) ])
      @@ fun () ->
      match Durable.sum_count eng ~klo ~khi ~tlo ~thi with
      | sc -> Ok sc
      | exception Invalid_argument m -> Error (Bad_query m)
      | exception E.Io e -> Error (Io e)
    in
    sim_sleep t (Rta.page_touches (Durable.warehouse eng) - before);
    post t.comp (fun () -> reply res)
  in
  (* Group commit, as in the PR-5 batcher: apply the batch (each op
     logged but not synced — the engine runs under [Wal.Never]), then one
     WAL sync covers them all.  A failed sync fails every provisionally
     applied op: they are in the log but their durability is unknown, and
     an ack is a durability claim. *)
  let commit_batch first_op first_cell first_trace first_k =
    let items = ref [ (first_op, first_cell, first_trace, first_k) ] and n = ref 1 in
    let stash = ref None in
    let continue = ref true in
    while !continue && !n < t.cfg.max_batch do
      match Mailbox.try_take mb with
      | Some (W_write (op, cell, trace, k)) ->
          items := (op, cell, trace, k) :: !items;
          incr n
      | Some other ->
          stash := Some other;
          continue := false
      | None -> continue := false
    done;
    let items = Array.of_list (List.rev !items) in
    Tracer.with_span t.tel "shard.batch"
      ~attrs:(fun () ->
        [ ("shard", Tracer.Int i); ("size", Tracer.Int (Array.length items)) ])
    @@ fun () ->
    let any_cell = Array.exists (fun (_, c, _, _) -> c <> None) items in
    let charge_all p =
      if any_cell then
        Array.iter
          (fun (_, c, _, _) -> match c with Some c -> Phases.charge c p | None -> ())
          items
    in
    (* Phase charging mirrors the single-engine batcher: queue wait ends
       at pickup; the batch loop minus the op's own engine-added append
       and apply is batch build; one fsync is charged to every rider. *)
    charge_all Phases.Queue_wait;
    let outcomes =
      Array.map
        (fun (op, cell, trace, _) ->
          Durable.set_phase_cell eng cell;
          let o = Tracer.with_trace ~trace (fun () -> apply_one eng op) in
          Durable.set_phase_cell eng None;
          o)
        items
    in
    charge_all Phases.Batch_build;
    let applied = Array.exists (function Applied -> true | _ -> false) outcomes in
    (if applied then begin
       (match Durable.sync_wal eng with
       | Ok () -> ()
       | Error e ->
           Array.iteri
             (fun j o -> match o with Applied -> outcomes.(j) <- Failed e | _ -> ())
             outcomes);
       charge_all Phases.Fsync
     end);
    incr batches;
    let applied_ops = ref [] in
    Array.iteri
      (fun j (op, _, _, _) ->
        match outcomes.(j) with
        | Applied ->
            incr acked;
            applied_ops := op :: !applied_ops
        | _ -> ())
      items;
    let applied_ops = List.rev !applied_ops in
    (* Broadcast before acknowledging: a query submitted after the ack is
       observed lands behind this batch in every reader's FIFO. *)
    if applied_ops <> [] then
      Array.iter
        (fun rmb -> ignore (Mailbox.put rmb (R_apply { shard = i; ops = applied_ops })))
        t.readers;
    publish ();
    (* From the sync the op waits on the bookkeeping above, then in the
       completion queue until the main domain runs its ack. *)
    Array.iteri
      (fun j (_, cell, _, k) ->
        let o = outcomes.(j) in
        post t.comp (fun () ->
            (match cell with Some c -> Phases.charge c Phases.Queue_wait | None -> ());
            k o))
      items;
    !stash
  in
  let rec loop next =
    match next with
    | None -> ()
    | Some (W_write (op, cell, trace, k)) -> loop_step (commit_batch op cell trace k)
    | Some (W_query { klo; khi; tlo; thi; trace; reply }) ->
        handle_query ~klo ~khi ~tlo ~thi ~trace reply;
        loop_step None
    | Some (W_checkpoint k) ->
        let res = Durable.checkpoint eng in
        publish ();
        post t.comp (fun () -> k res);
        loop_step None
  and loop_step stash =
    match stash with Some _ -> loop stash | None -> loop (Mailbox.take mb)
  in
  loop (Mailbox.take mb);
  publish ();
  Durable.close eng

(* --- Reader domain --------------------------------------------------------------- *)

let reader_loop t r wh =
  Tracer.set_thread_name (Printf.sprintf "reader-%d" r);
  let mb = t.readers.(r) in
  let rec go () =
    match Mailbox.take mb with
    | None -> ()
    | Some (R_apply { shard; ops }) ->
        List.iter (fun op -> Warehouse.apply_to wh ~shard op) ops;
        Atomic.set t.reader_marks.(r).(shard) (Warehouse.watermark wh shard);
        go ()
    | Some (R_query { klo; khi; tlo; thi; cell; trace; reply }) ->
        (* The whole query runs on this one reader domain, so its phase
           cell crosses exactly one domain hop — same safety argument as
           a write's cell in the writer loop. *)
        (match cell with Some c -> Phases.charge c Phases.Queue_wait | None -> ());
        let before = Warehouse.page_touches wh in
        let res =
          Tracer.with_trace ~trace @@ fun () ->
          Tracer.with_span t.tel "reader.query"
            ~attrs:(fun () -> [ ("reader", Tracer.Int r) ])
          @@ fun () ->
          match Warehouse.sum_count wh ~klo ~khi ~tlo ~thi with
          | sc -> Ok sc
          | exception Invalid_argument m -> Error (Bad_query m)
        in
        sim_sleep t (Warehouse.page_touches wh - before);
        (match cell with Some c -> Phases.charge c Phases.Apply | None -> ());
        post t.comp (fun () ->
            (match cell with Some c -> Phases.charge c Phases.Queue_wait | None -> ());
            reply res);
        go ()
  in
  go ()

(* --- Construction ---------------------------------------------------------------- *)

(* Deep-copy a recovered warehouse through an in-memory vfs: the replica
   shares no mutable state with the engine, so the reader domain owns it
   outright. *)
let copy_warehouse ?pool_capacity rta =
  let fs = Storage.Vfs.Memory.create () in
  let vfs = Storage.Vfs.Memory.vfs fs in
  Rta.save ~vfs rta ~path:"replica";
  Rta.load ?pool_capacity ~vfs ~path:"replica" ()

let create ?(config = default_config) ?(telemetry = Tracer.noop) ?engine_config
    ?pool_capacity ?checkpoint_every ?boundaries ?store ?arena_backing ~max_key
    ~path () =
  if config.shards < 1 || config.shards > 64 then
    invalid_arg "Cluster.create: shards must be in [1, 64]";
  if config.readers < 0 || config.readers > 64 then
    invalid_arg "Cluster.create: readers must be in [0, 64]";
  if config.max_batch < 1 then invalid_arg "Cluster.create: max_batch must be >= 1";
  let router = Router.create ?boundaries ~shards:config.shards ~max_key () in
  let shard_io = Array.init config.shards (fun _ -> Io_stats.create ()) in
  let engines =
    Array.init config.shards (fun i ->
        Durable.open_ ?config:engine_config ?pool_capacity ?checkpoint_every
          ?store ?arena_backing ~stats:shard_io.(i) ~sync_policy:Wal.Never
          ~max_key ~telemetry ~path:(shard_path path i) ())
  in
  let recovery_ =
    Array.mapi (fun i eng -> (i, Durable.recovery_report eng)) engines
  in
  let published =
    Array.mapi (fun i eng -> Snapshot.create (stat_of_engine eng shard_io.(i))) engines
  in
  let reader_marks =
    Array.init config.readers (fun _ ->
        Array.init config.shards (fun i ->
            Atomic.make (Rta.n_updates (Durable.warehouse engines.(i)))))
  in
  let t =
    {
      cfg = config;
      tel = telemetry;
      router;
      writers =
        Array.init config.shards (fun _ ->
            Mailbox.create ~capacity:config.mailbox_capacity ());
      readers =
        Array.init config.readers (fun _ ->
            Mailbox.create ~capacity:config.mailbox_capacity ());
      published;
      reader_marks;
      shard_io;
      comp = completions_create ();
      recovery_;
      writer_domains = [];
      reader_domains = [];
      next_reader = 0;
      outstanding_ = 0;
      pending_writes_ = 0;
      stopped = false;
    }
  in
  (* Replicas are seeded before the writers spawn, so every reader starts
     at exactly the recovered watermark and the broadcasts continue from
     there. *)
  let reader_warehouses =
    Array.init config.readers (fun _ ->
        Warehouse.of_replicas ~router
          (Array.map (fun eng -> copy_warehouse ?pool_capacity (Durable.warehouse eng)) engines))
  in
  t.writer_domains <-
    List.init config.shards (fun i ->
        Domain.spawn (fun () -> writer_loop t i engines.(i)));
  t.reader_domains <-
    List.init config.readers (fun r ->
        Domain.spawn (fun () -> reader_loop t r reader_warehouses.(r)));
  t

let router t = t.router
let config t = t.cfg
let recovery t = t.recovery_
let wake_fd t = t.comp.wake_r
let drain t = completions_drain t.comp
let outstanding t = t.outstanding_
let pending_writes t = t.pending_writes_

(* --- Submission (main domain) ----------------------------------------------------- *)

let submit_write t ?cell ?trace op k =
  t.outstanding_ <- t.outstanding_ + 1;
  t.pending_writes_ <- t.pending_writes_ + 1;
  let k' o =
    t.outstanding_ <- t.outstanding_ - 1;
    t.pending_writes_ <- t.pending_writes_ - 1;
    k o
  in
  let s = Router.shard_of_key t.router (Op.key op) in
  if not (Mailbox.put t.writers.(s) (W_write (op, cell, trace, k'))) then
    k' (Rejected "cluster is shut down")

let closed_query_reply reply = reply (Error (Bad_query "cluster is shut down"))

let submit_query t ?cell ?trace ~klo ~khi ~tlo ~thi reply =
  if Array.length t.readers > 0 then begin
    t.outstanding_ <- t.outstanding_ + 1;
    let reply' res =
      t.outstanding_ <- t.outstanding_ - 1;
      reply res
    in
    let r = t.next_reader in
    t.next_reader <- (r + 1) mod Array.length t.readers;
    if
      not
        (Mailbox.put t.readers.(r)
           (R_query { klo; khi; tlo; thi; cell; trace; reply = reply' }))
    then closed_query_reply reply'
  end
  else begin
    match Plan.scatter t.router ~klo ~khi with
    | [] -> reply (Ok (0, 0))
    | parts ->
        t.outstanding_ <- t.outstanding_ + 1;
        (* The part replies all run on the main domain (from [drain]), so
           the gather state needs no lock.  Several writer domains may
           serve parts of this one query concurrently, so the phase cell
           stays here: the whole scatter-gather round trip is charged as
           the query's apply phase from the main domain. *)
        let remaining = ref (List.length parts) in
        let sum = ref 0 and count = ref 0 in
        let first_err = ref None in
        let finish_part res =
          (match res with
          | Ok (s, c) ->
              sum := !sum + s;
              count := !count + c
          | Error e -> if !first_err = None then first_err := Some e);
          decr remaining;
          if !remaining = 0 then begin
            t.outstanding_ <- t.outstanding_ - 1;
            (match cell with Some c -> Phases.charge c Phases.Apply | None -> ());
            match !first_err with
            | None -> reply (Ok (!sum, !count))
            | Some e -> reply (Error e)
          end
        in
        List.iter
          (fun { Plan.shard; klo; khi } ->
            if
              not
                (Mailbox.put t.writers.(shard)
                   (W_query { klo; khi; tlo; thi; trace; reply = finish_part }))
            then closed_query_reply finish_part)
          parts
  end

let submit_checkpoint t k =
  t.outstanding_ <- t.outstanding_ + 1;
  let n = Array.length t.writers in
  let remaining = ref n in
  let first_err = ref None in
  let finish res =
    (match res with
    | Ok () -> ()
    | Error e -> if !first_err = None then first_err := Some e);
    decr remaining;
    if !remaining = 0 then begin
      t.outstanding_ <- t.outstanding_ - 1;
      match !first_err with None -> k (Ok ()) | Some e -> k (Error e)
    end
  in
  Array.iter
    (fun mb ->
      if not (Mailbox.put mb (W_checkpoint finish)) then
        finish
          (Error
             (E.v ~detail:"cluster is shut down" ~op:E.Fsync ~path:"" (E.Errno "ESHUTDOWN"))))
    t.writers

let await t =
  while t.outstanding_ > 0 do
    (match Unix.select [ t.comp.wake_r ] [] [] 0.05 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    ignore (drain t)
  done

(* --- Observation ------------------------------------------------------------------ *)

let shard_infos t =
  List.init (Array.length t.writers) (fun i ->
      let klo, khi = Router.range t.router i in
      let stat = Snapshot.read t.published.(i) in
      let reader_watermark =
        if Array.length t.reader_marks = 0 then stat.Snapshot.watermark
        else
          Array.fold_left
            (fun acc marks -> min acc (Atomic.get marks.(i)))
            max_int t.reader_marks
      in
      { shard = i; klo; khi; stat; queue = Mailbox.length t.writers.(i); reader_watermark })

let totals t =
  Array.fold_left
    (fun acc cell ->
      let s = Snapshot.read cell in
      {
        Snapshot.watermark = acc.Snapshot.watermark + s.Snapshot.watermark;
        now = max acc.Snapshot.now s.Snapshot.now;
        alive = acc.Snapshot.alive + s.Snapshot.alive;
        pages = acc.Snapshot.pages + s.Snapshot.pages;
        batches = acc.Snapshot.batches + s.Snapshot.batches;
        acked = acc.Snapshot.acked + s.Snapshot.acked;
        wal_syncs = acc.Snapshot.wal_syncs + s.Snapshot.wal_syncs;
        health = worst_health acc.Snapshot.health s.Snapshot.health;
        io = Io_stats.add acc.Snapshot.io s.Snapshot.io;
        (* Oldest publication across shards: the age of the staleest
           snapshot bounds the whole cluster's. *)
        published_ns =
          (if acc.Snapshot.published_ns = 0L then s.Snapshot.published_ns
           else if s.Snapshot.published_ns = 0L then acc.Snapshot.published_ns
           else Int64.min acc.Snapshot.published_ns s.Snapshot.published_ns);
      })
    Snapshot.zero t.published

let io_totals t = Io_stats.merge (Array.to_list (Array.map Io_stats.snapshot t.shard_io))

let health t = (totals t).Snapshot.health

(* --- Shutdown --------------------------------------------------------------------- *)

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    (* Writers first: they drain their mailboxes (acking everything in
       flight), publish a final watermark, close their engines.  Readers
       stay up meanwhile so a writer blocked broadcasting into a full
       reader mailbox always makes progress. *)
    Array.iter Mailbox.close t.writers;
    List.iter Domain.join t.writer_domains;
    Array.iter Mailbox.close t.readers;
    List.iter Domain.join t.reader_domains;
    ignore (drain t);
    (try Unix.close t.comp.wake_w with Unix.Unix_error _ -> ());
    (try Unix.close t.comp.wake_r with Unix.Unix_error _ -> ())
  end
