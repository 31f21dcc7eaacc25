module E = Storage.Storage_error
module Phases = Telemetry.Phases

type op =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }

type outcome = Applied | Rejected of string | Failed of E.t

type t = {
  eng : Durable.t;
  max_batch : int;
  tel : Telemetry.Tracer.t;
  on_batch : int -> unit;
  q : (op * Phases.cell option * int64 option * (outcome -> unit)) Queue.t;
      (* op, phase vector, trace id, completion *)
  mutable batches : int;
  mutable acked : int;
  mutable gate : (max_seq:int -> fire:(unit -> unit) -> unit) option;
}

let create ?(max_batch = 64) ?(telemetry = Telemetry.Tracer.noop)
    ?(on_batch = fun _ -> ()) eng =
  if max_batch < 1 then invalid_arg "Batcher: max_batch must be >= 1";
  { eng; max_batch; tel = telemetry; on_batch; q = Queue.create (); batches = 0;
    acked = 0; gate = None }

let enqueue t ?cell ?trace op k = Queue.add (op, cell, trace, k) t.q

let pending t = Queue.length t.q

let apply_one eng op =
  let r =
    match op with
    | Insert { key; value; at } -> (
        try Ok (Durable.insert eng ~key ~value ~at) with Invalid_argument m -> Error m)
    | Delete { key; at } -> (
        try Ok (Durable.delete eng ~key ~at) with Invalid_argument m -> Error m)
  in
  match r with
  | Ok (Ok ()) -> Applied (* provisional: awaits the batch sync *)
  | Ok (Error e) -> Failed e
  | Error msg -> Rejected msg

let flush_batch t =
  let n = min t.max_batch (Queue.length t.q) in
  Telemetry.Tracer.with_span t.tel "server.batch"
    ~attrs:(fun () -> [ ("size", Telemetry.Tracer.Int n) ])
  @@ fun () ->
  let items = Array.init n (fun _ -> Queue.pop t.q) in
  let any_cell = Array.exists (fun (_, c, _, _) -> c <> None) items in
  let charge_all p =
    if any_cell then
      Array.iter
        (fun (_, c, _, _) -> match c with Some c -> Phases.charge c p | None -> ())
        items
  in
  (* Queue wait ends here: the batch has picked the op up.  Everything
     from now to the end of the apply loop that is not the op's own WAL
     append or tree apply (added inside the engine) is batch build —
     including time spent applying the op's batch-mates, which the op
     does wait for before its sync. *)
  charge_all Phases.Queue_wait;
  let outcomes =
    Array.map
      (fun (op, cell, trace, _) ->
        Durable.set_phase_cell t.eng cell;
        let o =
          Telemetry.Tracer.with_trace ~trace (fun () -> apply_one t.eng op)
        in
        Durable.set_phase_cell t.eng None;
        o)
      items
  in
  charge_all Phases.Batch_build;
  (* One fsync covers every append the batch landed.  If it fails, every
     provisionally applied op must fail too: the records are in the log
     but their durability is unknown, and an ack is a durability claim. *)
  let applied = Array.exists (function Applied -> true | _ -> false) outcomes in
  (if applied then begin
     (match Durable.sync_wal t.eng with
     | Ok () -> ()
     | Error e ->
         Array.iteri
           (fun i o -> match o with Applied -> outcomes.(i) <- Failed e | _ -> ())
           outcomes);
     charge_all Phases.Fsync
   end);
  t.batches <- t.batches + 1;
  Array.iter (function Applied -> t.acked <- t.acked + 1 | _ -> ()) outcomes;
  t.on_batch n;
  let fire () = Array.iteri (fun i (_, _, _, k) -> k outcomes.(i)) items in
  (* Re-tested after the sync: a failed sync downgraded every Applied to
     Failed, and a batch with nothing durably applied has nothing for a
     replication gate to wait on. *)
  let durably_applied = Array.exists (function Applied -> true | _ -> false) outcomes in
  match t.gate with
  | Some gate when durably_applied ->
      (* From the sync to the replication gate releasing the batch is the
         quorum wait. *)
      gate ~max_seq:(Rta.n_updates (Durable.warehouse t.eng)) ~fire:(fun () ->
          charge_all Phases.Quorum_wait;
          fire ())
  | _ -> fire ()

let flush t =
  while not (Queue.is_empty t.q) do
    flush_batch t
  done

let batches t = t.batches
let acked t = t.acked
let engine t = t.eng
let set_gate t g = t.gate <- g
