module Make (Store : Page_store.S) = struct
  type entry = { payload : Store.payload; mutable dirty : bool }

  (* [intents] is the durable pin ledger: Evict only knows about resident
     entries, so a pin must survive the page being dropped ([drop_cache])
     and re-establish itself when the page faults back in.  Evict's own
     pin state is derived: pinned there iff resident with intent > 0. *)
  type t = {
    store : Store.t;
    cache : (Page_id.t, entry) Evict.t;
    intents : (Page_id.t, int) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable touches : int;
  }

  let create ?(capacity = 64) ?(policy = Evict.Lru) store =
    {
      store;
      cache = Evict.create ~policy ~capacity ();
      intents = Hashtbl.create 8;
      hits = 0;
      misses = 0;
      touches = 0;
    }

  let store t = t.store
  let capacity t = Evict.capacity t.cache
  let policy t = Evict.policy t.cache
  let stats t = Store.stats t.store
  let hits t = t.hits
  let misses t = t.misses
  let touches t = t.touches
  let pinned t = Evict.pinned t.cache
  let alloc t = Store.alloc t.store

  let intent t id = match Hashtbl.find_opt t.intents id with None -> 0 | Some n -> n

  let write_back t id (entry : entry) =
    if entry.dirty then begin
      Store.write t.store id entry.payload;
      entry.dirty <- false
    end

  let insert t id entry =
    (match Evict.add t.cache id entry with
    | None -> ()
    | Some (evicted_id, evicted) -> write_back t evicted_id evicted);
    (* Apply the pin intent only if the entry is not already pinned in the
       index: [Evict.add] on a resident key updates in place, and re-pinning
       there would leak a pin [unpin] (intent 1 -> 0) never releases. *)
    if intent t id > 0 && Evict.pin_count t.cache id = 0 then Evict.pin t.cache id

  let read t id =
    t.touches <- t.touches + 1;
    match Evict.find t.cache id with
    | Some entry ->
        t.hits <- t.hits + 1;
        entry.payload
    | None ->
        t.misses <- t.misses + 1;
        let payload = Store.read t.store id in
        insert t id { payload; dirty = false };
        payload

  let write t id payload =
    t.touches <- t.touches + 1;
    insert t id { payload; dirty = true }

  let mem t id = Evict.mem t.cache id || Store.mem t.store id

  let mark_dirty t id =
    match Evict.peek t.cache id with
    | Some entry -> entry.dirty <- true
    | None -> ()

  let pin t id =
    let n = intent t id in
    Hashtbl.replace t.intents id (n + 1);
    if Evict.mem t.cache id then begin
      if n = 0 then Evict.pin t.cache id
    end
    else
      (* Fault the page in; [insert] applies the pin intent. *)
      ignore (read t id)

  let unpin t id =
    match Hashtbl.find_opt t.intents id with
    | None -> invalid_arg "Buffer_pool.unpin: page not pinned"
    | Some 1 ->
        Hashtbl.remove t.intents id;
        if Evict.mem t.cache id then Evict.unpin t.cache id
    | Some n -> Hashtbl.replace t.intents id (n - 1)

  let pin_count t id = intent t id

  let free t id =
    Hashtbl.remove t.intents id;
    ignore (Evict.remove t.cache id);
    Store.free t.store id

  let flush t = Evict.iter (fun id entry -> write_back t id entry) t.cache

  let clean t id =
    match Evict.peek t.cache id with Some entry -> write_back t id entry | None -> ()

  let drop_cache t =
    flush t;
    Evict.clear t.cache
end
