module G = Aggregate.Group.Sum_count

module Value_codec = struct
  type t = G.t

  let words = 2

  let encode put ((s, c) : G.t) =
    put s;
    put c

  let decode next =
    let s = next () in
    let c = next () in
    (s, c)
end

module Index = Mvsbt.Make (G) (Value_codec)

type t = {
  lkst : Index.t; (* tuples alive at a given time *)
  lklt : Index.t; (* tuples ended by a given time *)
  alive : (int, int * int) Hashtbl.t; (* key -> (value, start time): the base table *)
  max_key : int;
  mutable now_ : int;
  mutable n_updates : int;
  mutable tel : Telemetry.Tracer.t;
}

let set_telemetry t tel =
  t.tel <- tel;
  Index.set_telemetry t.lkst tel;
  Index.set_telemetry t.lklt tel

let telemetry t = t.tel

let apply_telemetry telemetry t =
  (match telemetry with Some tel -> set_telemetry t tel | None -> ());
  t

let page_touches t = Index.page_touches t.lkst + Index.page_touches t.lklt

(* The base table and counters, as a checkpoint's [.meta] carries them. *)
let encode_meta t w =
  Storage.Codec.Writer.i64 w t.max_key;
  Storage.Codec.Writer.i64 w t.now_;
  Storage.Codec.Writer.i64 w t.n_updates;
  Storage.Codec.Writer.i32 w (Hashtbl.length t.alive);
  Hashtbl.iter
    (fun key (value, started) ->
      Storage.Codec.Writer.i64 w key;
      Storage.Codec.Writer.i64 w value;
      Storage.Codec.Writer.i64 w started)
    t.alive

let decode_meta rd =
  let max_key = Storage.Codec.Reader.i64 rd in
  let now_ = Storage.Codec.Reader.i64 rd in
  let n_updates = Storage.Codec.Reader.i64 rd in
  let n_alive = Storage.Codec.Reader.i32 rd in
  let alive = Hashtbl.create (max 16 (2 * n_alive)) in
  for _ = 1 to n_alive do
    let key = Storage.Codec.Reader.i64 rd in
    let value = Storage.Codec.Reader.i64 rd in
    let started = Storage.Codec.Reader.i64 rd in
    Hashtbl.replace alive key (value, started)
  done;
  (max_key, now_, n_updates, alive)

let lkst_suffix = ".lkst.pages"
let lklt_suffix = ".lklt.pages"

(* Each tree's overlay is at [path] and its suffix, or in RAM. *)
let overlay_path path suffix = Option.map (fun path -> path ^ suffix) path

let create ?config ?pool_capacity ?policy ?stats ?telemetry ?backing ?path ~max_key () =
  if max_key < 1 then invalid_arg "Rta.create: max_key must be >= 1";
  let stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
  (* Key domain [0, max_key]: insertions land on k+1, queries on range
     bounds up to max_key. *)
  let key_space = max_key + 1 in
  let mk suffix =
    Index.create ?config ?pool_capacity ?policy ~stats ?backing
      ?path:(overlay_path path suffix) ~key_space ()
  in
  apply_telemetry telemetry
    {
      lkst = mk lkst_suffix;
      lklt = mk lklt_suffix;
      alive = Hashtbl.create 1024;
      max_key;
      now_ = 0;
      n_updates = 0;
      tel = Telemetry.Tracer.noop;
    }

(* Both trees' files are released even when the first close fails. *)
let close t =
  match Index.close t.lkst with
  | () -> Index.close t.lklt
  | exception e ->
      (try Index.close t.lklt with _ -> ());
      raise e

let max_key t = t.max_key
let config t = Index.config t.lkst
let stats t = Index.stats t.lkst
let now t = t.now_
let n_updates t = t.n_updates
let alive_count t = Hashtbl.length t.alive
let horizon t = Index.horizon t.lkst

let advance t at =
  if at < t.now_ then invalid_arg "Rta: time went backwards (transaction time is monotone)";
  t.now_ <- at

let update_attrs ~key ~at () =
  [ ("key", Telemetry.Tracer.Int key); ("at", Telemetry.Tracer.Int at) ]

let insert t ~key ~value ~at =
  if key < 0 || key >= t.max_key then invalid_arg "Rta.insert: key outside key space";
  if Hashtbl.mem t.alive key then
    invalid_arg (Printf.sprintf "Rta.insert: key %d is already alive (1TNF)" key);
  advance t at;
  Telemetry.Tracer.with_span t.tel ~level:`Debug "rta.insert" ~attrs:(update_attrs ~key ~at)
  @@ fun () ->
  Index.insert t.lkst ~key:(key + 1) ~at (value, 1);
  Hashtbl.replace t.alive key (value, at);
  t.n_updates <- t.n_updates + 1

let delete t ~key ~at =
  match Hashtbl.find_opt t.alive key with
  | None -> invalid_arg (Printf.sprintf "Rta.delete: key %d is not alive" key)
  | Some (value, started) ->
      advance t at;
      Telemetry.Tracer.with_span t.tel ~level:`Debug "rta.delete" ~attrs:(update_attrs ~key ~at)
      @@ fun () ->
      Index.insert t.lkst ~key:(key + 1) ~at (-value, -1);
      (* A version deleted at its own start instant never existed for any
         query, so it must not appear as "ended by" either. *)
      if at > started then Index.insert t.lklt ~key:(key + 1) ~at (value, 1);
      Hashtbl.remove t.alive key;
      t.n_updates <- t.n_updates + 1

let is_alive t ~key = Hashtbl.mem t.alive key

let alive_value t ~key =
  Option.map (fun (v, _started) -> v) (Hashtbl.find_opt t.alive key)

let clamp_key t k = if k < 0 then 0 else if k > t.max_key then t.max_key else k

let point_attrs index ~key ~at () =
  [ ("index", Telemetry.Tracer.Str index);
    ("key", Telemetry.Tracer.Int key);
    ("at", Telemetry.Tracer.Int at) ]

let lkst t ~key ~at =
  if at < 0 then (0, 0)
  else
    Telemetry.Tracer.with_span t.tel ~level:`Debug "rta.point_query"
      ~attrs:(point_attrs "lkst" ~key ~at)
    @@ fun () -> Index.query t.lkst ~key:(clamp_key t key) ~at

let lklt t ~key ~at =
  if at < 0 then (0, 0)
  else
    Telemetry.Tracer.with_span t.tel ~level:`Debug "rta.point_query"
      ~attrs:(point_attrs "lklt" ~key ~at)
    @@ fun () -> Index.query t.lklt ~key:(clamp_key t key) ~at

(* Theorem 1.  With half-open [tlo, thi), the last instant of the query
   interval is t3 = thi - 1, and:

     RTA = LKST(k2,t3) + LKLT(k2,t3) + LKLT(k1,t1)
         - LKST(k1,t3) - LKLT(k1,t3) - LKLT(k2,t1)

   where a tuple "ended by t" intersects the window iff its end exceeds
   tlo, i.e. it is counted by LKLT(., t3) but not LKLT(., t1). *)
let sum_count t ~klo ~khi ~tlo ~thi =
  if klo >= khi || tlo >= thi then (0, 0)
  else begin
    Telemetry.Tracer.with_span t.tel ~level:`Debug "rta.range_query"
      ~attrs:(fun () ->
        [ ("klo", Telemetry.Tracer.Int klo); ("khi", Telemetry.Tracer.Int khi);
          ("tlo", Telemetry.Tracer.Int tlo); ("thi", Telemetry.Tracer.Int thi) ])
    @@ fun () ->
    let k1 = clamp_key t klo and k2 = clamp_key t khi in
    let t1 = max 0 tlo and t3 = thi - 1 in
    (* The window reaches below the retention horizon: the versions that
       would be subtracted at [t1] may have been vacuumed, so refuse
       loudly here (with the window's first instant) rather than letting
       whichever point query runs first raise with a confusing time. *)
    if t1 < horizon t then raise (Mvsbt.Below_horizon { at = t1; horizon = horizon t });
    let ( -- ) (s1, c1) (s2, c2) = (s1 - s2, c1 - c2) in
    let ( ++ ) (s1, c1) (s2, c2) = (s1 + s2, c1 + c2) in
    lkst t ~key:k2 ~at:t3 -- lkst t ~key:k1 ~at:t3
    ++ (lklt t ~key:k2 ~at:t3 -- lklt t ~key:k1 ~at:t3)
    -- (lklt t ~key:k2 ~at:t1 -- lklt t ~key:k1 ~at:t1)
  end

let sum t ~klo ~khi ~tlo ~thi = fst (sum_count t ~klo ~khi ~tlo ~thi)
let count t ~klo ~khi ~tlo ~thi = snd (sum_count t ~klo ~khi ~tlo ~thi)

let avg t ~klo ~khi ~tlo ~thi =
  let s, c = sum_count t ~klo ~khi ~tlo ~thi in
  if c = 0 then None else Some (float_of_int s /. float_of_int c)

let page_count t = Index.page_count t.lkst + Index.page_count t.lklt
let overlay_bytes t = Index.overlay_bytes t.lkst + Index.overlay_bytes t.lklt
let record_count t = Index.record_count t.lkst + Index.record_count t.lklt
let root_count t = Index.root_count t.lkst + Index.root_count t.lklt
let height t = max (Index.height t.lkst) (Index.height t.lklt)

let drop_cache t =
  Index.drop_cache t.lkst;
  Index.drop_cache t.lklt

let check_invariants t =
  Index.check_invariants t.lkst;
  Index.check_invariants t.lklt

let pp_dot ppf t =
  Format.fprintf ppf "// LKST index@.%a@.// LKLT index@.%a@." Index.pp_dot t.lkst
    Index.pp_dot t.lklt

(* --- Persistence --------------------------------------------------------- *)

let meta_magic = "RTA-META-2"

(* [.meta] is the magic and one chunk: the base table and counters. *)
let save_meta ~vfs t ~path =
  let oc = vfs.Storage.Vfs.v_open `Create (path ^ ".meta") in
  Fun.protect ~finally:(fun () -> oc.Storage.Vfs.f_close ()) @@ fun () ->
  oc.Storage.Vfs.f_append (Bytes.of_string meta_magic) 0 (String.length meta_magic);
  let w = Storage.Frame.writer (64 + (Hashtbl.length t.alive * 24)) in
  encode_meta t w;
  Storage.Frame.append oc w

let save ?(vfs = Storage.Vfs.os) t ~path =
  Index.save ~vfs t.lkst ~path:(path ^ ".lkst");
  Index.save ~vfs t.lklt ~path:(path ^ ".lklt");
  save_meta ~vfs t ~path

let save_staged ?(vfs = Storage.Vfs.os) t ~path =
  let lkst = Index.save_staged ~vfs t.lkst ~path:(path ^ ".lkst") in
  let lklt = Index.save_staged ~vfs t.lklt ~path:(path ^ ".lklt") in
  save_meta ~vfs t ~path;
  (* Each tree moves on its own: one that fails stays whole on its old
     base, and does not keep the other from moving. *)
  fun () ->
    match lkst () with
    | () -> lklt ()
    | exception e ->
        (try lklt () with _ -> ());
        raise e

let try_save ?vfs t ~path = Storage.Page_store.protect (fun () -> save ?vfs t ~path)

let snapshot_files = [ (".lkst", Mvsbt.snapshot_magic); (".lklt", Mvsbt.snapshot_magic);
                       (".meta", meta_magic) ]

let read_meta ~vfs ~path =
  Storage.Frame.Reader.with_file vfs ~path:(path ^ ".meta") ~magic:meta_magic @@ fun rd ->
  let meta = decode_meta (Storage.Frame.Reader.payload rd) in
  Storage.Frame.Reader.finish rd;
  meta

let snapshot_updates ?(vfs = Storage.Vfs.os) ~path () =
  let _, _, n_updates, _ = read_meta ~vfs ~path in
  n_updates

(* The base table and counters come from the snapshot's [.meta]; a tree
   that fails to load closes the one built before it. *)
let load ?pool_capacity ?stats ?telemetry ?(vfs = Storage.Vfs.os) ?backing ?path ~snapshot () =
  let stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
  let max_key, now_, n_updates, alive = read_meta ~vfs ~path:snapshot in
  let tree ext suffix =
    Index.of_snapshot ?pool_capacity ~stats ~vfs ?backing ?path:(overlay_path path suffix)
      ~snapshot:(snapshot ^ ext) ()
  in
  let lkst = tree ".lkst" lkst_suffix in
  let lklt =
    try tree ".lklt" lklt_suffix
    with e ->
      Index.close lkst;
      raise e
  in
  apply_telemetry telemetry
    { lkst; lklt; alive; max_key; now_; n_updates; tel = Telemetry.Tracer.noop }

(* --- Vacuum (retention) ---------------------------------------------------- *)

(* The warehouse-level vacuum is split into [begin]/[plan]/[apply] so the
   WAL engine can log each piece before applying it: [vacuum_begin]
   corresponds to one WAL record (the horizon), each applied chunk of the
   plan to another (the explicit page actions, so replay is deterministic
   regardless of scan order).  Both mutators consume one update sequence
   number — that keeps checkpoint cut-offs, replica watermarks and the
   scrub twin check ([n_updates] equality) honest about vacuums. *)

type side = Lkst | Lklt

type vacuum_action = { va_side : side; va_free : bool; va_pid : int }

type vacuum_progress = {
  pages_freed : int;
  pages_pruned : int;
  records_dropped : int;
}

let vacuum_progress_zero = { pages_freed = 0; pages_pruned = 0; records_dropped = 0 }

let vacuum_progress_add a b =
  {
    pages_freed = a.pages_freed + b.pages_freed;
    pages_pruned = a.pages_pruned + b.pages_pruned;
    records_dropped = a.records_dropped + b.records_dropped;
  }

let side_tree t = function Lkst -> t.lkst | Lklt -> t.lklt

let vacuum_begin t ~horizon:h =
  if h < 0 then invalid_arg "Rta.vacuum_begin: negative horizon";
  if h < horizon t then
    invalid_arg
      (Printf.sprintf "Rta.vacuum_begin: horizon moves backwards (%d < %d)" h (horizon t));
  if h > t.now_ then
    invalid_arg
      (Printf.sprintf "Rta.vacuum_begin: horizon %d beyond current time %d" h t.now_);
  Index.set_horizon t.lkst h;
  Index.set_horizon t.lklt h;
  t.n_updates <- t.n_updates + 1

let vacuum_plan ?(max_pages = 128) t =
  if max_pages < 1 then invalid_arg "Rta.vacuum_plan: max_pages must be >= 1";
  let acts side tree =
    Index.vacuum_scan tree
    |> List.map (fun (pid, a) ->
           { va_side = side;
             va_free = (a = Index.Free_page);
             va_pid = Storage.Page_id.to_int pid })
  in
  let all = acts Lkst t.lkst @ acts Lklt t.lklt in
  let rec chunk = function
    | [] -> []
    | l ->
        let rec take n = function
          | x :: rest when n > 0 ->
              let taken, left = take (n - 1) rest in
              (x :: taken, left)
          | rest -> ([], rest)
        in
        let c, rest = take max_pages l in
        c :: chunk rest
  in
  chunk all

let vacuum_apply t actions =
  Telemetry.Tracer.with_span t.tel "rta.vacuum_step" @@ fun () ->
  let progress =
    List.fold_left
      (fun acc a ->
        let tree = side_tree t a.va_side in
        let pid = Storage.Page_id.of_int a.va_pid in
        if a.va_free then
          if Index.vacuum_free tree pid then
            { acc with pages_freed = acc.pages_freed + 1 }
          else acc
        else
          let n = Index.vacuum_prune tree pid in
          if n > 0 then
            { acc with pages_pruned = acc.pages_pruned + 1;
              records_dropped = acc.records_dropped + n }
          else acc)
      vacuum_progress_zero actions
  in
  Storage.Io_stats.record_vacuum_step (stats t);
  t.n_updates <- t.n_updates + 1;
  progress

type vacuum_report = {
  v_horizon : int;
  v_steps : int;
  v_progress : vacuum_progress;
}

let vacuum ?max_pages t ~horizon:h =
  vacuum_begin t ~horizon:h;
  let chunks = vacuum_plan ?max_pages t in
  let progress =
    List.fold_left
      (fun acc chunk -> vacuum_progress_add acc (vacuum_apply t chunk))
      vacuum_progress_zero chunks
  in
  { v_horizon = h; v_steps = List.length chunks; v_progress = progress }
