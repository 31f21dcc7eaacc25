let forever = max_int

(* Raised (not returned) so the refusal propagates through every query
   entry point — point query, dominance sum, wire handler — without
   widening each return type; callers that can answer it catch it. *)
exception Below_horizon of { at : int; horizon : int }

type variant = Plain | Logical

type config = {
  b : int;
  f : float;
  variant : variant;
  merging : bool;
  disposal : bool;
  root_star_btree : bool;
}

let default_config ~b =
  { b; f = 0.9; variant = Logical; merging = true; disposal = true;
    root_star_btree = false }

(* Checkpoint files: a magic naming the format, then chunks framed
   [len u32][crc32 u32][payload] — the frame of WAL records and page
   blocks.  Chunks are written with one [f_append] for the frame header
   and one for the payload, so [Vfs.Memory] journals each as a disk
   operation.  The reader streams through one buffer, refilled by large
   preads and grown only for a chunk larger than itself, so reading never
   holds more than a buffer of the file. *)
module Chunks = struct
  let frame_bytes = 8
  let max_len = 1 lsl 30 (* of a payload: a length past it is corrupt *)

  let writer n =
    let w = Storage.Codec.Writer.create (frame_bytes + n) in
    Storage.Codec.Writer.i64 w 0;
    w

  let append_frame out buf =
    let len = Bytes.length buf - frame_bytes in
    out.Storage.Vfs.f_append buf 0 frame_bytes;
    out.Storage.Vfs.f_append buf frame_bytes len

  (* Fill in the header of the frame whose [len]-byte payload follows it
     in [buf]. *)
  let seal buf ~len =
    Bytes.set_int32_le buf 0 (Int32.of_int len);
    Bytes.set_int32_le buf 4
      (Int32.of_int (Storage.Codec.crc32 buf ~pos:frame_bytes ~len))

  let append out w =
    let buf = Storage.Codec.Writer.contents w in
    let len = Storage.Codec.Writer.pos w - frame_bytes in
    seal buf ~len;
    out.Storage.Vfs.f_append buf 0 frame_bytes;
    out.Storage.Vfs.f_append buf frame_bytes len

  type reader = {
    file : Storage.Vfs.file;
    path : string;
    size : int;
    mutable buf : bytes;
    mutable pos : int; (* next unread byte of [buf] *)
    mutable lim : int; (* end of the bytes read into [buf] *)
    mutable file_pos : int; (* file offset of [buf]'s byte [lim] *)
    mutable index : int; (* of the next chunk *)
  }

  type frame = { offset : int; index : int; buf : bytes; pos : int; len : int; ok : bool }

  let fail (rd : reader) msg = failwith (Printf.sprintf "Mvsbt.Chunks: %s: %s" rd.path msg)

  (* Make the next [n] bytes contiguous in [rd.buf] from [rd.pos].  A
     request past the end of the file fails before any buffer is grown
     for it. *)
  let fill (rd : reader) n =
    let have = rd.lim - rd.pos in
    if have < n then begin
      if have + (rd.size - rd.file_pos) < n then fail rd "truncated file";
      let dst =
        if n <= Bytes.length rd.buf then rd.buf
        else Bytes.create (max n (2 * Bytes.length rd.buf))
      in
      Bytes.blit rd.buf rd.pos dst 0 have;
      rd.buf <- dst;
      rd.pos <- 0;
      rd.lim <- have;
      let want = min (Bytes.length dst - have) (rd.size - rd.file_pos) in
      while rd.lim < have + want do
        let got =
          rd.file.Storage.Vfs.f_pread rd.file_pos dst rd.lim (have + want - rd.lim)
        in
        if got <= 0 then fail rd "truncated file";
        rd.lim <- rd.lim + got;
        rd.file_pos <- rd.file_pos + got
      done
    end

  let at_end (rd : reader) = rd.pos = rd.lim && rd.file_pos = rd.size

  let next (rd : reader) =
    if at_end rd then None
    else begin
      fill rd frame_bytes;
      let len = Int32.to_int (Bytes.get_int32_le rd.buf rd.pos) land 0xFFFFFFFF in
      if len > max_len then fail rd "corrupt chunk length";
      let crc = Int32.to_int (Bytes.get_int32_le rd.buf (rd.pos + 4)) land 0xFFFFFFFF in
      fill rd (frame_bytes + len);
      let pos = rd.pos and index = rd.index in
      rd.pos <- pos + frame_bytes + len;
      rd.index <- index + 1;
      Some
        { offset = rd.file_pos - (rd.lim - pos); index; buf = rd.buf; pos; len;
          ok = Storage.Codec.crc32 rd.buf ~pos:(pos + frame_bytes) ~len = crc }
    end

  let frame rd =
    match next rd with
    | None -> fail rd "truncated file"
    | Some f when f.ok -> f
    | Some f ->
        Storage.Storage_error.raise_io ~op:Storage.Storage_error.Pread ~path:rd.path
          ~detail:(Printf.sprintf "chunk %d" f.index) Storage.Storage_error.Checksum_mismatch

  let chunk rd =
    let f = frame rd in
    Storage.Codec.Reader.create ~pos:(f.pos + frame_bytes) ~len:f.len f.buf

  (* A file of another format — including this one's predecessors, whose
     chunks carry no CRC — is refused by name; there is no second reader. *)
  let with_file vfs ~path ~magic k =
    let file = vfs.Storage.Vfs.v_open `Reopen path in
    Fun.protect ~finally:(fun () -> file.Storage.Vfs.f_close ()) @@ fun () ->
    let rd =
      { file; path; size = file.Storage.Vfs.f_size (); buf = Bytes.create 65536; pos = 0;
        lim = 0; file_pos = 0; index = 0 }
    in
    let n = String.length magic in
    let got =
      if rd.size < n then ""
      else begin
        fill rd n;
        rd.pos <- n;
        Bytes.sub_string rd.buf 0 n
      end
    in
    if got <> magic then begin
      let family = String.sub magic 0 (String.rindex magic '-' + 1) in
      if String.starts_with ~prefix:family got then
        fail rd (Printf.sprintf "format %s is not readable (this build reads %s)" got magic)
      else fail rd "bad magic"
    end;
    k rd
end

(* A snapshot ({!Make.Persist.save}) is this magic, then {!Chunks}: the
   state, the page count, then one chunk per page — the page's frame
   exactly as a durable tree stores it, and reads it in place. *)
let snapshot_magic = "MVSBT-SNAPSHOT-4"

module Make (G : Aggregate.Group.S) = struct
  type record = {
    range : Interval.t;
    rt_start : int;
    mutable rt_end : int; (* [forever] while alive *)
    mutable value : G.t;
    child : Storage.Page_id.t option; (* [None] for leaf records *)
  }

  type page = {
    pid : Storage.Page_id.t;
    level : int; (* 0 = leaf *)
    prange : Interval.t;
    created : int;
    mutable closed : int; (* [forever] while alive *)
    mutable records : record list;
  }

  module Store = Storage.Page_store.Mem (struct
    type t = page
  end)

  module Pool = Storage.Buffer_pool.Make (Store)

  (* A save of a page-file tree stages the base it writes: each frame at
     its offset in the file, then, once the file is durable, the move of
     the tree onto it. *)
  type staging = {
    add : Storage.Page_id.t -> offset:int -> bytes -> unit;
    commit : unit -> unit;
  }

  type frames = {
    frame : Storage.Page_id.t -> bytes; (* a page's stored frame, CRC-checked *)
    stage : string -> staging; (* the base a save to this file builds *)
    overlay : unit -> int; (* bytes of the frames sealed since the last rebase *)
  }

  (* A point query's state as it descends: the point, the sum so far,
     and the child the record containing the point names in the page
     just scanned — [leaf] at a leaf, [missing] if none does. *)
  type cursor = {
    key : int;
    at : int;
    logical : bool; (* sum every alive record at or below the key, not just the one *)
    mutable sum : G.t;
    mutable next : int;
  }

  let leaf = -1
  let missing = -2

  (* One pass over a decoded page (Appendix A): a record alive at [at]
     whose low key is at or below [key] adds its value under logical
     splitting, and the one containing [key] adds it under either
     variant and names the child. *)
  let scan_page q page =
    q.next <- missing;
    List.iter
      (fun r ->
        if r.rt_start <= q.at && q.at < r.rt_end && r.range.Interval.lo <= q.key then
          if q.key < r.range.Interval.hi then begin
            q.sum <- G.add q.sum r.value;
            q.next <- (match r.child with None -> leaf | Some c -> Storage.Page_id.to_int c)
          end
          else if q.logical then q.sum <- G.add q.sum r.value)
      page.records

  let point ~logical ~key ~at page =
    let q = { key; at; logical; sum = G.zero; next = missing } in
    scan_page q page;
    (q.sum, q.next)

  (* The tree is agnostic to where its pages live; a backend bundles the
     operations of one buffer-pooled page store (in the heap by default,
     frames through {!Durable}).  [b_read] hands a writer the page,
     decoded; [b_scan] runs a query's scan over it, wherever it is.  The
     tree calls [b_root] each time it sets its current root. *)
  type backend = {
    b_root : Storage.Page_id.t -> unit;
    b_alloc : unit -> Storage.Page_id.t;
    b_read : Storage.Page_id.t -> page;
    b_scan : Storage.Page_id.t -> cursor -> unit;
    b_write : Storage.Page_id.t -> page -> unit;
    b_free : Storage.Page_id.t -> unit;
    b_exists : Storage.Page_id.t -> bool;
    b_list : unit -> Storage.Page_id.t list;
    b_live : unit -> int;
    b_drop : unit -> unit;
    b_frames : frames option; (* [Some] on a frame store *)
    b_close : unit -> unit;
  }

  let mem_backend ~pool_capacity ~io_stats =
    let store = Store.create ~stats:io_stats () in
    let pool = Pool.create ~capacity:pool_capacity store in
    {
      b_root = ignore;
      b_alloc = (fun () -> Pool.alloc pool);
      b_read = (fun pid -> Pool.read pool pid);
      b_scan = (fun pid q -> scan_page q (Pool.read pool pid));
      b_write = (fun pid page -> Pool.write pool pid page);
      b_free = (fun pid -> Pool.free pool pid);
      b_exists = (fun pid -> Pool.mem pool pid);
      (* Flush first: ids must reflect pages still sitting in the pool. *)
      b_list = (fun () -> Pool.flush pool; Store.ids store);
      b_live = (fun () -> Store.live_pages store);
      b_drop = (fun () -> Pool.drop_cache pool);
      b_frames = None;
      b_close = ignore;
    }

  type t = {
    backend : backend;
    io_stats : Storage.Io_stats.t;
    cfg : config;
    key_space : int;
    root_star : Root_star.t;
    mutable cur_root : Storage.Page_id.t;
    mutable height : int;
    mutable now_ : int;
    mutable horizon : int; (* queries below this time are refused *)
    mutable touches : int; (* logical page accesses; see [page_touches] *)
    mutable tel : Telemetry.Tracer.t;
  }

  let strong_cap cfg = int_of_float (cfg.f *. float_of_int cfg.b)

  let validate_create cfg key_space =
    if cfg.b < 4 then invalid_arg "Mvsbt.create: b must be >= 4";
    if not (cfg.f > 0. && cfg.f <= 1.) then invalid_arg "Mvsbt.create: f must be in (0, 1]";
    if strong_cap cfg < 2 then
      invalid_arg "Mvsbt.create: f*b must be >= 2 (fan-out of at least 2)";
    if key_space < 1 then invalid_arg "Mvsbt.create: key_space must be >= 1"

  (* Allocate the initial root (one all-covering zero record) and assemble
     the handle. *)
  let boot ~cfg ~key_space ~io_stats backend =
    let root_star = Root_star.create ~btree:cfg.root_star_btree ~stats:io_stats () in
    let pid = backend.b_alloc () in
    let root =
      {
        pid;
        level = 0;
        prange = Interval.make 0 key_space;
        created = 0;
        closed = forever;
        records =
          [ { range = Interval.make 0 key_space; rt_start = 0; rt_end = forever;
              value = G.zero; child = None } ];
      }
    in
    backend.b_write pid root;
    backend.b_root pid;
    Root_star.register root_star ~at:0 pid;
    { backend; io_stats; cfg; key_space; root_star; cur_root = pid; height = 1;
      now_ = 0; horizon = 0; touches = 0; tel = Telemetry.Tracer.noop }

  let create ?config ?(pool_capacity = 64) ?stats ~key_space () =
    let cfg = match config with Some c -> c | None -> default_config ~b:64 in
    validate_create cfg key_space;
    let io_stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
    boot ~cfg ~key_space ~io_stats (mem_backend ~pool_capacity ~io_stats)

  let config t = t.cfg
  let key_space t = t.key_space
  let stats t = t.io_stats
  let now t = t.now_
  let horizon t = t.horizon
  let page_count t = t.backend.b_live ()
  let overlay_bytes t = match t.backend.b_frames with Some f -> f.overlay () | None -> 0
  let height t = t.height
  let root_count t = Root_star.count t.root_star

  let drop_cache t =
    t.backend.b_drop ();
    Root_star.drop_cache t.root_star

  let close t = t.backend.b_close ()

  let read t pid =
    t.touches <- t.touches + 1;
    t.backend.b_read pid

  let touch t page =
    t.touches <- t.touches + 1;
    t.backend.b_write page.pid page

  let set_root t pid =
    t.cur_root <- pid;
    t.backend.b_root pid

  let page_touches t = t.touches
  let telemetry t = t.tel
  let set_telemetry t tel = t.tel <- tel

  let alive r = r.rt_end = forever
  let alive_at tau r = r.rt_start <= tau && tau < r.rt_end

  (* Partly-covered record: intersects [k, maxkey) without being contained
     in it, i.e. it contains [k] with its low end strictly below. *)
  let partly_covered page k =
    List.find_opt
      (fun r -> alive r && r.range.Interval.lo < k && Interval.mem k r.range)
      page.records

  (* Fully-covered records, ascending by range. *)
  let fully_covered page k =
    List.filter (fun r -> alive r && r.range.Interval.lo >= k) page.records
    |> List.sort (fun a b -> Int.compare a.range.Interval.lo b.range.Interval.lo)

  let first_fully_covered page k =
    List.fold_left
      (fun best r ->
        if alive r && r.range.Interval.lo >= k then
          match best with
          | Some b when b.range.Interval.lo <= r.range.Interval.lo -> best
          | _ -> Some r
        else best)
      None page.records

  (* --- Insertion ---------------------------------------------------------- *)

  type op = { killed : record list; added : record list }

  let mk_record ~now range value child =
    { range; rt_start = now; rt_end = forever; value; child }

  (* Vertical split of [r] at the current time, adding [v]. *)
  let plus_v_copy ~now v r = mk_record ~now r.range (G.add r.value v) r.child

  (* The records receiving [v] by vertical split at this page, lowest page
     case — the single "representative" under logical splitting, all
     fully-covered records under the plain algorithm. *)
  let covered_targets t page k =
    match t.cfg.variant with
    | Plain -> fully_covered page k
    | Logical -> ( match first_fully_covered page k with None -> [] | Some r -> [ r ])

  let op_for_lowest t page k v ~now : op =
    if page.level = 0 then
      match partly_covered page k with
      | Some rc ->
          (* Split into three: vertically at [now], horizontally at [k].
             Under logical splitting the top-right piece carries just the
             delta [v]; under the plain algorithm values are absolute. *)
          let low, high = Interval.split_at k rc.range in
          let high_value =
            match t.cfg.variant with Logical -> v | Plain -> G.add rc.value v
          in
          let extra =
            match t.cfg.variant with
            | Logical -> []
            | Plain -> fully_covered page k
          in
          {
            killed = rc :: extra;
            added =
              mk_record ~now low rc.value None
              :: mk_record ~now high high_value None
              :: List.map (plus_v_copy ~now v) extra;
          }
      | None ->
          let targets = covered_targets t page k in
          { killed = targets; added = List.map (plus_v_copy ~now v) targets }
    else begin
      (* Index page without a partly-covered record. *)
      let targets = covered_targets t page k in
      { killed = targets; added = List.map (plus_v_copy ~now v) targets }
    end

  (* Op for a path page whose partly-covered record is [partly];
     [child_descs] are the replacement pages when the child was split. *)
  let op_for_path t page k v ~now ~partly ~child_descs : op =
    let targets = covered_targets t page k in
    let from_child =
      match child_descs with
      | [] -> []
      | descs ->
          List.mapi
            (fun i (range, pid) ->
              let value =
                match t.cfg.variant with
                | Plain -> partly.value
                | Logical -> if i = 0 then partly.value else G.zero
              in
              mk_record ~now range value (Some pid))
            descs
    in
    {
      killed = (if child_descs <> [] then [ partly ] else []) @ targets;
      added = from_child @ List.map (plus_v_copy ~now v) targets;
    }

  (* Record merging (section 4.2.2).  Time merge: an alive record whose
     dead predecessor has the same rectangle sides, value and child is
     folded back into it.  Key merge: under logical splitting an alive
     zero-valued record is absorbed by its alive left neighbour when both
     started together (the zero delta contributes nothing); under the
     plain algorithm values are absolute, so the neighbours must carry
     equal values instead. *)
  let merge_pass t page candidates =
    let key_mergeable m n =
      match t.cfg.variant with
      | Logical -> G.equal n.value G.zero
      | Plain -> G.equal m.value n.value
    in
    (* Only freshly added (or just-merged) records can take part in a new
       merge, so the worklist stays tiny and the pass is O(|added| * b). *)
    let work = Queue.create () in
    List.iter (fun r -> Queue.add r work) candidates;
    while not (Queue.is_empty work) do
      let a = Queue.pop work in
      if List.memq a page.records && alive a then begin
        (* Time merge: fold [a] back into a dead twin ending where [a]
           starts. *)
        match
          List.find_opt
            (fun d ->
              d != a && (not (alive d)) && d.rt_end = a.rt_start
              && Interval.equal d.range a.range
              && G.equal d.value a.value && d.child = a.child)
            page.records
        with
        | Some d ->
            d.rt_end <- forever;
            page.records <- List.filter (fun r -> r != a) page.records;
            Queue.add d work
        | None -> (
            (* Key merge with the alive neighbour above or below. *)
            let try_pair m n =
              if
                n.range.Interval.lo = m.range.Interval.hi
                && n.rt_start = m.rt_start && n.rt_end = m.rt_end
                && key_mergeable m n && n.child = m.child
              then begin
                let merged = { m with range = Interval.hull m.range n.range } in
                page.records <-
                  List.filter_map
                    (fun r ->
                      if r == m then Some merged
                      else if r == n then None
                      else Some r)
                    page.records;
                Queue.add merged work;
                true
              end
              else false
            in
            let neighbour_above =
              List.find_opt
                (fun n -> n != a && alive n && n.range.Interval.lo = a.range.Interval.hi)
                page.records
            in
            let merged_up =
              match neighbour_above with Some n -> try_pair a n | None -> false
            in
            if not merged_up then
              let neighbour_below =
                List.find_opt
                  (fun m -> m != a && alive m && m.range.Interval.hi = a.range.Interval.lo)
                  page.records
              in
              match neighbour_below with
              | Some m -> ignore (try_pair m a)
              | None -> ())
      end
    done

  (* Split [buffer] (alive records of an overflowing page, restarted at the
     current time) into chunks obeying the strong condition. *)
  let distribute t buffer =
    let n = List.length buffer in
    let cap = strong_cap t.cfg in
    if n <= cap then [ buffer ]
    else begin
      let m = (n + cap - 1) / cap in
      let base = n / m and extra = n mod m in
      let rec take k xs =
        if k = 0 then ([], xs)
        else
          match xs with
          | x :: rest ->
              let taken, left = take (k - 1) rest in
              (x :: taken, left)
          | [] -> assert false
      in
      let rec go i xs =
        if xs = [] then []
        else
          let size = base + if i < extra then 1 else 0 in
          let chunk, rest = take size xs in
          chunk :: go (i + 1) rest
      in
      go 0 buffer
    end

  let chunk_span chunk =
    List.fold_left (fun acc r -> Interval.hull acc r.range) Interval.empty chunk

  (* Apply [op] to [page] at time [now].  Returns the replacement
     descriptors when the page had to be time split (possibly key split),
     or [] when the op fit in place. *)
  let apply_op t page op ~now : (Interval.t * Storage.Page_id.t) list =
    let remaining =
      List.filter_map
        (fun r ->
          if List.memq r op.killed then
            if t.cfg.disposal && r.rt_start = now then None
            else begin
              r.rt_end <- now;
              Some r
            end
          else Some r)
        page.records
    in
    if List.length remaining + List.length op.added <= t.cfg.b then begin
      page.records <- remaining @ op.added;
      if t.cfg.merging then merge_pass t page op.added;
      touch t page;
      []
    end
    else begin
      (* Time split: alive records restart at [now] in fresh pages. *)
      let survivors =
        List.filter alive remaining
        |> List.map (fun r -> { r with rt_start = now; rt_end = forever })
      in
      let buffer =
        List.sort
          (fun a b -> Int.compare a.range.Interval.lo b.range.Interval.lo)
          (survivors @ op.added)
      in
      page.closed <- now;
      touch t page;
      let chunks = distribute t buffer in
      Telemetry.Tracer.event t.tel "mvsbt.time_split"
        ~attrs:
          [
            ("page", Telemetry.Tracer.Int (Storage.Page_id.to_int page.pid));
            ("level", Telemetry.Tracer.Int page.level);
          ];
      if List.length chunks > 1 then
        Telemetry.Tracer.event t.tel "mvsbt.key_split"
          ~attrs:
            [
              ("page", Telemetry.Tracer.Int (Storage.Page_id.to_int page.pid));
              ("chunks", Telemetry.Tracer.Int (List.length chunks));
            ];
      (* Key-split value adjustment under logical splitting: queries in a
         higher chunk must still see the mass of the lower chunks, so the
         lowest record of chunk j gains the sum of chunks 1..j-1. *)
      (match (t.cfg.variant, chunks) with
      | Logical, _ :: _ :: _ ->
          let prefix = ref G.zero in
          List.iter
            (fun chunk ->
              let chunk_sum =
                List.fold_left (fun acc r -> G.add acc r.value) G.zero chunk
              in
              (match chunk with
              | lowest :: _ ->
                  if not (G.equal !prefix G.zero) then
                    lowest.value <- G.add lowest.value !prefix
              | [] -> assert false);
              prefix := G.add !prefix chunk_sum)
            chunks
      | _ -> ());
      let descs =
        List.map
          (fun chunk ->
            let pid = t.backend.b_alloc () in
            let p =
              { pid; level = page.level; prange = chunk_span chunk;
                created = now; closed = forever; records = chunk }
            in
            touch t p;
            (p.prange, pid))
          chunks
      in
      if t.cfg.disposal && page.created = now then t.backend.b_free page.pid;
      descs
    end

  (* Install a fresh root covering the whole key space above [descs]. *)
  let grow_root t descs ~now =
    match descs with
    | [] -> ()
    | [ (_, pid) ] ->
        (* A pure time split of the root: the copy is the new root of the
           same height. *)
        set_root t pid;
        Root_star.register t.root_star ~at:now pid
    | pieces ->
        let pid = t.backend.b_alloc () in
        let level = (read t (snd (List.hd pieces))).level + 1 in
        let records =
          List.map
            (fun (range, child) -> mk_record ~now range G.zero (Some child))
            pieces
        in
        let root =
          { pid; level; prange = Interval.make 0 t.key_space; created = now;
            closed = forever; records }
        in
        touch t root;
        set_root t pid;
        t.height <- t.height + 1;
        Telemetry.Tracer.event t.tel "mvsbt.root_grow"
          ~attrs:[ ("height", Telemetry.Tracer.Int t.height) ];
        Root_star.register t.root_star ~at:now pid

  let insert t ~key ~at v =
    if key < 0 || key >= t.key_space then
      invalid_arg "Mvsbt.insert: key outside key domain";
    if at < t.now_ then
      invalid_arg
        (Printf.sprintf
           "Mvsbt.insert: time %d precedes current time %d (transaction time is monotone)"
           at t.now_);
    Telemetry.Tracer.with_span t.tel ~level:`Debug "mvsbt.insert" @@ fun () ->
    t.now_ <- at;
    (* Phase 1: descend along partly-covered records, keeping the chain of
       (page, partly-covered record), nearest ancestor first. *)
    let rec descend page path =
      if page.level = 0 then (page, path)
      else
        match partly_covered page key with
        | None -> (page, path)
        | Some r -> (
            match r.child with
            | None -> assert false
            | Some c -> descend (read t c) ((page, r) :: path))
    in
    let lowest, path = descend (read t t.cur_root) [] in
    (* Phase 2: handle the lowest page. *)
    let descs = apply_op t lowest (op_for_lowest t lowest key v ~now:at) ~now:at in
    (* Phase 3: walk back up the partly-covered chain. *)
    let descs =
      List.fold_left
        (fun child_descs (page, partly) ->
          let op = op_for_path t page key v ~now:at ~partly ~child_descs in
          apply_op t page op ~now:at)
        descs path
    in
    (* Phase 4: the root itself was split. *)
    grow_root t descs ~now:at

  (* --- Point query ---------------------------------------------------------- *)

  let query t ~key ~at =
    if key < 0 || key >= t.key_space then
      invalid_arg "Mvsbt.query: key outside key domain";
    if at < 0 then invalid_arg "Mvsbt.query: negative time";
    if at < t.horizon then raise (Below_horizon { at; horizon = t.horizon });
    Telemetry.Tracer.with_span t.tel ~level:`Debug "mvsbt.query" @@ fun () ->
    let root = if at >= t.now_ then t.cur_root else Root_star.find t.root_star ~at in
    let q = { key; at; logical = t.cfg.variant = Logical; sum = G.zero; next = missing } in
    let rec go pid =
      t.touches <- t.touches + 1;
      t.backend.b_scan pid q;
      if q.next = missing then
        Format.kasprintf failwith "Mvsbt: no record containing (%d, %d) in page %d" key at
          (Storage.Page_id.to_int pid);
      if q.next <> leaf then go (Storage.Page_id.of_int q.next)
    in
    go root;
    q.sum

  (* --- Vacuum (retention) ---------------------------------------------------- *)

  (* Partial persistence gives vacuum its correctness argument for free:
     a page with [closed <= h] is invisible to every query at a time
     [>= h] (nothing in it is alive there), and inside a still-visible
     page a record with [rt_end <= h] is equally invisible, so it can be
     dropped *in place* — no copying into fresh pages, no parent-pointer
     rewrites.  Conversely any page with [closed > h] stays reachable at
     some time in [h, now], so pruning can never orphan a live page. *)

  let set_horizon t h =
    if h < 0 then invalid_arg "Mvsbt.set_horizon: negative horizon";
    if h < t.horizon then
      invalid_arg
        (Printf.sprintf "Mvsbt.set_horizon: horizon moves backwards (%d < %d)" h t.horizon);
    (* A horizon past [now] is legal here — alive records ([rt_end =
       forever]) survive any horizon, so the tree stays well-formed; it
       just refuses more queries.  The warehouse ([Rta]) bounds the
       horizon by its own clock, which can run ahead of either tree's
       (the LKLT side only ticks on deletes). *)
    t.horizon <- h;
    (* Tenures wholly below the horizon would keep traversals anchored on
       root pages vacuum is about to free. *)
    ignore (Root_star.prune t.root_star ~below:h)

  type vacuum_action = Free_page | Prune_records

  (* Deterministic scan of the whole store (not just the reachable graph:
     a crash between tenure pruning and page freeing leaves dead pages
     that are no longer reachable, and re-vacuum must still find them). *)
  let vacuum_scan t =
    let h = t.horizon in
    t.backend.b_list ()
    |> List.filter_map (fun pid ->
           match t.backend.b_read pid with
           | exception Not_found -> None
           | page ->
               if page.closed <= h then Some (pid, Free_page)
               else if List.exists (fun r -> r.rt_end <= h) page.records then
                 Some (pid, Prune_records)
               else None)
    |> List.sort (fun (a, _) (b, _) ->
           Int.compare (Storage.Page_id.to_int a) (Storage.Page_id.to_int b))

  (* Appliers are tolerant of already-done work (missing page, nothing to
     drop): WAL replay after a crash re-applies actions idempotently, and
     a checkpoint taken mid-vacuum may already omit the dead pages. *)
  let vacuum_free t pid =
    if t.backend.b_exists pid then begin
      t.backend.b_free pid;
      Storage.Io_stats.record_pages_reclaimed t.io_stats 1;
      true
    end
    else false

  let vacuum_prune t pid =
    if not (t.backend.b_exists pid) then 0
    else begin
      let page = read t pid in
      let h = t.horizon in
      let keep, drop = List.partition (fun r -> r.rt_end > h) page.records in
      (* [keep] is never empty: a page with [closed > h] had records alive
         just below its close time, and their [rt_end >= closed > h]. *)
      if drop = [] then 0
      else begin
        page.records <- keep;
        touch t page;
        List.length drop
      end
    end

  (* --- Whole-graph traversal ------------------------------------------------ *)

  let page_exists t pid = t.backend.b_exists pid

  (* Preorder walk from the root tenures, each page once.  [f pid page]
     gets the page read, or [None] under [~leaves:false] for a leaf
     reached from its parent: its level is known, so it is not read. *)
  let walk t ~leaves f =
    let visited = ref Storage.Page_id.Set.empty in
    let rec go pid ~leaf =
      if not (Storage.Page_id.Set.mem pid !visited) then begin
        visited := Storage.Page_id.Set.add pid !visited;
        if leaf && not leaves then f pid None
        else begin
          let page = read t pid in
          f pid (Some page);
          List.iter
            (fun r ->
              match r.child with
              (* Dead record copies may reference disposed pages; queries can
                 never follow them (their effective lifetime is empty). *)
              | Some c when page_exists t c -> go c ~leaf:(page.level = 1)
              | Some _ | None -> ())
            page.records
        end
      end
    in
    List.iter (fun (_, pid) -> go pid ~leaf:false) (Root_star.tenures t.root_star)

  let iter_pages t f = walk t ~leaves:true (fun _ page -> Option.iter f page)

  let record_count t =
    let n = ref 0 in
    iter_pages t (fun p -> n := !n + List.length p.records);
    !n

  (* --- Invariant checking ---------------------------------------------------- *)

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let root_pids =
      List.fold_left
        (fun s (_, pid) -> Storage.Page_id.Set.add pid s)
        Storage.Page_id.Set.empty
        (Root_star.tenures t.root_star)
    in
    iter_pages t (fun page ->
        let pid = Storage.Page_id.to_int page.pid in
        if page.records = [] then fail "Mvsbt: page %d empty" pid;
        if List.length page.records > t.cfg.b then fail "Mvsbt: page %d over-full" pid;
        let lifetime_hi = min page.closed (t.now_ + 1) in
        List.iter
          (fun r ->
            if Interval.is_empty r.range then fail "Mvsbt: empty record range";
            if not (Interval.subset r.range page.prange) then
              fail "Mvsbt: record range escapes page %d" pid;
            if r.rt_start > r.rt_end then fail "Mvsbt: inverted record interval";
            if r.rt_start < page.created then
              fail "Mvsbt: record starts before page %d was created" pid;
            (match (page.level, r.child) with
            | 0, Some _ -> fail "Mvsbt: leaf record with child in page %d" pid
            | 0, None | _, Some _ -> ()
            | _, None -> fail "Mvsbt: index record without child in page %d" pid);
            match r.child with
            | None -> ()
            | Some c -> (
                let slice =
                  Interval.inter
                    (Interval.make r.rt_start (min r.rt_end lifetime_hi))
                    (Interval.make page.created lifetime_hi)
                in
                let visible =
                  (* Queries below the horizon are refused, so only the
                     part of the slice at or above it must stay sound. *)
                  Interval.inter slice (Interval.make t.horizon lifetime_hi)
                in
                match read t c with
                | exception Not_found ->
                    (* A reference to a disposed page is legal only when no
                       query can follow it. *)
                    if not (Interval.is_empty visible) then
                      fail "Mvsbt: reachable record references a disposed page"
                | child ->
                    if child.level <> page.level - 1 then fail "Mvsbt: level mismatch";
                    if not (Interval.equal child.prange r.range) then
                      fail "Mvsbt: record range differs from child page range";
                    if
                      not
                        (Interval.subset visible
                           (Interval.make child.created (min child.closed (t.now_ + 1))))
                    then fail "Mvsbt: record refers to child page outside its lifetime"))
          page.records;
        (* Property 1 at every interesting instant of the page lifetime. *)
        (* Property 1 is only promised at queryable instants: vacuum
           prunes records dead below the horizon, so coverage below it is
           deliberately full of holes. *)
        let times =
          page.created :: t.horizon
          :: List.concat_map (fun r -> [ r.rt_start; r.rt_end ]) page.records
          |> List.filter (fun x -> page.created <= x && t.horizon <= x && x < lifetime_hi)
          |> List.sort_uniq Int.compare
        in
        List.iter
          (fun tau ->
            let alive_recs =
              List.filter (fun r -> alive_at tau r) page.records
              |> List.sort (fun a b ->
                     Int.compare a.range.Interval.lo b.range.Interval.lo)
            in
            let rec chain pos = function
              | [] ->
                  if pos <> page.prange.Interval.hi then
                    fail "Mvsbt: page %d not covered at time %d (stops at %d)" pid tau
                      pos
              | r :: rest ->
                  if r.range.Interval.lo <> pos then
                    fail "Mvsbt: gap/overlap in page %d at time %d (key %d, expected %d)"
                      pid tau r.range.Interval.lo pos;
                  chain r.range.Interval.hi rest
            in
            chain page.prange.Interval.lo alive_recs;
            (* Lemma 3: without merging, non-root pages keep at least
               ceil(f*b/2) alive records. *)
            if
              (not t.cfg.merging)
              && (not (Storage.Page_id.Set.mem page.pid root_pids))
              && List.length alive_recs < (strong_cap t.cfg + 1) / 2
            then
              fail "Mvsbt: page %d below Lemma-3 density at time %d (%d alive)" pid tau
                (List.length alive_recs))
          times);
    (* Root tenures partition the time axis from the horizon up (vacuum
       prunes tenures that end at or below it). *)
    let rec tenure_chain pos = function
      | [] -> if pos <> forever then fail "Mvsbt: root tenures do not reach maxtime"
      | (iv, _) :: rest ->
          if iv.Interval.lo <> pos then fail "Mvsbt: root tenure gap at %d" pos;
          tenure_chain iv.Interval.hi rest
    in
    (match Root_star.tenures t.root_star with
    | [] -> fail "Mvsbt: no root tenures"
    | (iv0, _) :: _ as ts ->
        if iv0.Interval.lo > t.horizon then
          fail "Mvsbt: root tenures start at %d, above the horizon %d" iv0.Interval.lo
            t.horizon;
        tenure_chain iv0.Interval.lo ts)

  (* --- On-disk formats ---------------------------------------------------------- *)

  module type VALUE_CODEC = sig
    val words : int
    val encode : (int -> unit) -> G.t -> unit
    val decode : (unit -> int) -> G.t
  end

  (* A page's payload, one layout for snapshots and stored frames alike,
     its records stored as frame-of-reference columns.  A header:

       id i64 | level i32 | low key i64 | high key i64 | created i64
       | closed i64 | record count i32                      (48 bytes)
       | a width byte (0-8) per column | an i64 base per value word,
       then one for the child

     then the records, [stride] bytes each, then [pad] zero bytes.  A
     record has one field per column: its low and high keys, less the
     page's low key; its start and end times, less [created], the
     column's all-ones code standing for [forever]; each word of its
     value, and its child, less the column's base, the page's minimum.
     A field takes its column's width, the fewest bytes that hold every
     code of the page, at one offset in every record, so any field reads
     as one unaligned 64-bit load, a mask and an add.  A column of width
     0 reads at offset 0, masked to nothing, and the pad keeps every load
     inside the payload.  The level says whether records have children:
     at a leaf the child column is empty, of width 0 and base -1, so
     every child there reads as -1, no page id. *)
  module Record_codec (V : VALUE_CODEC) = struct
    module Z = Storage.Zcodec

    let level_at = 8
    let low_at = 12
    let high_at = 20
    let created_at = 28
    let closed_at = 36
    let count_at = 44
    let widths_at = 48
    let lo_col = 0
    let hi_col = 1
    let start_col = 2
    let end_col = 3
    let value_col = 4
    let child_col = value_col + V.words
    let columns = child_col + 1
    let bases_at = widths_at + columns
    let header_bytes = bases_at + (8 * (V.words + 1))
    let pad = 7
    let max_payload ~b = header_bytes + (b * 8 * columns) + pad
    let mask w = if w >= 8 then -1 else (1 lsl (8 * w)) - 1

    (* The fewest bytes that hold [code], unsigned: a negative code is a
       difference that wrapped, and takes all 8. *)
    let width code =
      let rec go w = if w = 8 || code lsr (8 * w) = 0 then w else go (w + 1) in
      if code < 0 then 8 else go 0

    (* A payload's header, checked against its length. *)
    type shape = {
      level : int;
      count : int;
      stride : int;
      off : int array; (* each column's offset in a record *)
      mask : int array;
      base : int array; (* what each column's codes are relative to *)
    }

    (* The shape of the [len]-byte payload at [off] of [buf], read from
       its header alone: the level, the record count, and each column's
       offset, mask and base; [None] unless every width is at most 8 and
       the records and the pad fill the payload exactly, one byte or
       more per record.  It runs once per scan, so it reads the header
       directly. *)
    let frame_shape buf off len =
      if len < header_bytes then None
      else begin
        let o = Array.make columns 0 and m = Array.make columns 0 in
        let stride = ref 0 and wide = ref false in
        for c = 0 to columns - 1 do
          let w = Z.get_u8 buf (off + widths_at + c) in
          if w > 8 then wide := true;
          if w > 0 then o.(c) <- !stride;
          m.(c) <- mask w;
          stride := !stride + w
        done;
        let stride = !stride and count = Z.get_i32 buf (off + count_at) in
        if (not !wide) && count >= 0 && (count = 0 || stride > 0)
           && header_bytes + (count * stride) + pad = len
        then begin
          let base = Array.make columns (Z.get_i64 buf (off + low_at)) in
          base.(start_col) <- Z.get_i64 buf (off + created_at);
          base.(end_col) <- base.(start_col);
          for c = value_col to child_col do
            base.(c) <- Z.get_i64 buf (off + bases_at + (8 * (c - value_col)))
          done;
          Some { level = Z.get_i32 buf (off + level_at); count; stride; off = o; mask = m; base }
        end
        else None
      end

    (* The word at [i] of a buffer whose bounds the caller has checked. *)
    let[@inline] load buf i =
      let v = Z.load64 buf i in
      Int64.to_int (if Sys.big_endian then Z.bswap64 v else v)

    let[@inline] store buf i code =
      let v = Int64.of_int code in
      Z.store64 buf i (if Sys.big_endian then Z.bswap64 v else v)

    (* A time column's field, from its code: all ones is [forever]. *)
    let[@inline] instant code mask created = if code = mask then forever else created + code

    (* Field [c] of the record at [at] of a frame in [buf]. *)
    let[@inline] field buf s at c = s.base.(c) + (load buf (at + s.off.(c)) land s.mask.(c))

    (* [value_reader buf s r] decodes the value of the record at [r]:
       each call of [next] reads the next value column. *)
    let value_reader buf s =
      let at = ref 0 and k = ref 0 in
      let next () =
        let c = !k in
        incr k;
        field buf s !at c
      in
      fun r ->
        at := r;
        k := value_col;
        V.decode next

    let malformed buf off len =
      Format.kasprintf failwith "Mvsbt: page %d: its %d-byte frame is malformed"
        (if len >= 8 then Z.get_i64 buf off else -1)
        len

    let bad_page (p : page) what =
      Format.kasprintf invalid_arg "Mvsbt: page %d: %s" (Storage.Page_id.to_int p.pid) what

    (* A time column's largest code so far, [x] included: [forever]
       takes none, and every other code stays clear of the all-ones. *)
    let[@inline] time_top p top x created =
      if x = forever then top
      else begin
        let code = x - created in
        if code < 0 then bad_page p "a time before the page's";
        Int.max top (code + 1)
      end

    (* [p]'s payload into the [len] bytes of [buf] from [off], in two
       passes over the records: one finds each column's codes, hence its
       base and width, the other stores each field with one 64-bit store,
       in offset order, so the bytes a store writes past its field are
       overwritten by the next field, or are the pad.  Its length. *)
    let encode buf ~off ~len (p : page) =
      if off < 0 || len < 0 || off > Bigarray.Array1.dim buf - len then
        invalid_arg "Mvsbt.Record_codec.encode: slice outside buffer";
      let leaf = p.level = 0 and plo = p.prange.Interval.lo and created = p.created in
      (* Each record's value words, as the first pass finds them. *)
      let words = Array.make (List.length p.records * V.words) 0 and k = ref 0 in
      let put x =
        words.(!k) <- x;
        incr k
      in
      let child r =
        match (r.child, leaf) with
        | Some c, false -> Storage.Page_id.to_int c
        | None, true -> -1
        | _ -> bad_page p "a child the level contradicts"
      in
      (* Per column: the largest code, or the least and the largest
         value, from which the base and the largest code follow. *)
      let top = Array.make columns 0 in
      let least = Array.make columns max_int and most = Array.make columns min_int in
      List.iter
        (fun r ->
          let lo = r.range.Interval.lo - plo and hi = r.range.Interval.hi - plo in
          if lo < 0 || hi < 0 then bad_page p "a key below the page's";
          top.(lo_col) <- Int.max top.(lo_col) lo;
          top.(hi_col) <- Int.max top.(hi_col) hi;
          top.(start_col) <- time_top p top.(start_col) r.rt_start created;
          top.(end_col) <- time_top p top.(end_col) r.rt_end created;
          V.encode put r.value;
          for j = 0 to V.words - 1 do
            let c = value_col + j and x = words.(!k - V.words + j) in
            least.(c) <- Int.min least.(c) x;
            most.(c) <- Int.max most.(c) x
          done;
          if not leaf then begin
            let c = child r in
            least.(child_col) <- Int.min least.(child_col) c;
            most.(child_col) <- Int.max most.(child_col) c
          end)
        p.records;
      let base = Array.make columns 0 in
      if leaf then base.(child_col) <- -1;
      for c = value_col to child_col do
        if least.(c) <= most.(c) then begin
          base.(c) <- least.(c);
          top.(c) <- most.(c) - least.(c)
        end
      done;
      let w = Array.map width top and at = Array.make columns 0 and stride = ref 0 in
      for c = 0 to columns - 1 do
        at.(c) <- !stride;
        stride := !stride + w.(c)
      done;
      let stride = !stride and n = List.length p.records in
      let total = header_bytes + (n * stride) + pad in
      if total > len then
        raise
          (Storage.Codec.Overflow
             (Printf.sprintf "a %d-byte page payload exceeds its %d bytes" total len));
      Z.set_i64 buf off (Storage.Page_id.to_int p.pid);
      Z.set_i32 buf (off + level_at) p.level;
      Z.set_i64 buf (off + low_at) plo;
      Z.set_i64 buf (off + high_at) p.prange.Interval.hi;
      Z.set_i64 buf (off + created_at) created;
      Z.set_i64 buf (off + closed_at) p.closed;
      Z.set_i32 buf (off + count_at) n;
      for c = 0 to columns - 1 do
        Z.set_u8 buf (off + widths_at + c) w.(c)
      done;
      for c = value_col to child_col do
        Z.set_i64 buf (off + bases_at + (8 * (c - value_col))) base.(c)
      done;
      (* Every store lies inside [total]: the last one starts at least a
         byte before the pad, which is 7 bytes long. *)
      let[@inline] put_code r c code = if w.(c) > 0 then store buf (r + at.(c)) code in
      let[@inline] put_time r c x = put_code r c (if x = forever then mask w.(c) else x - created) in
      List.iteri
        (fun i rc ->
          let r = off + header_bytes + (i * stride) in
          put_code r lo_col (rc.range.Interval.lo - plo);
          put_code r hi_col (rc.range.Interval.hi - plo);
          put_time r start_col rc.rt_start;
          put_time r end_col rc.rt_end;
          for j = 0 to V.words - 1 do
            let c = value_col + j in
            put_code r c (words.((i * V.words) + j) - base.(c))
          done;
          if not leaf then put_code r child_col (child rc - base.(child_col)))
        p.records;
      for i = total - pad to total - 1 do
        Z.set_u8 buf (off + i) 0
      done;
      total

    let decode buf off len =
      let s = match frame_shape buf off len with Some s -> s | None -> malformed buf off len in
      let value = value_reader buf s in
      let time at c = instant (load buf (at + s.off.(c)) land s.mask.(c)) s.mask.(c) s.base.(c) in
      let record i =
        let at = off + header_bytes + (i * s.stride) in
        let range = Interval.make (field buf s at lo_col) (field buf s at hi_col) in
        let rt_start = time at start_col and rt_end = time at end_col in
        let value = value at in
        let child =
          if s.level = 0 then None
          else Some (Storage.Page_id.of_int (field buf s at child_col))
        in
        { range; rt_start; rt_end; value; child }
      in
      { pid = Storage.Page_id.of_int (Z.get_i64 buf off); level = s.level;
        prange = Interval.make (Z.get_i64 buf (off + low_at)) (Z.get_i64 buf (off + high_at));
        created = Z.get_i64 buf (off + created_at); closed = Z.get_i64 buf (off + closed_at);
        records = List.init s.count record }

    (* [scan_page] over a frame in place, decoding nothing but the values
       it adds: the key and time columns' offsets, masks and bases are
       read once, and each field is one load. *)
    let scan_frame q (buf, off, len) =
      let s = match frame_shape buf off len with Some s -> s | None -> malformed buf off len in
      (* The records lie inside the frame, and the frame inside [buf]
         ({!Storage.Page_store.Mmap.frame}), so the loads go unchecked. *)
      let lo_at = s.off.(lo_col) and lo_mask = s.mask.(lo_col) in
      let hi_at = s.off.(hi_col) and hi_mask = s.mask.(hi_col) in
      let start_at = s.off.(start_col) and start_mask = s.mask.(start_col) in
      let end_at = s.off.(end_col) and end_mask = s.mask.(end_col) in
      let low = s.base.(lo_col) and created = s.base.(start_col) in
      let value = value_reader buf s in
      let key = q.key and t = q.at and stride = s.stride in
      q.next <- missing;
      (* Loop invariants are hoisted by hand: the compiler does not. *)
      let at = ref (off + header_bytes) in
      for _ = 1 to s.count do
        let r = !at in
        if instant (load buf (r + start_at) land start_mask) start_mask created <= t
           && t < instant (load buf (r + end_at) land end_mask) end_mask created
           && low + (load buf (r + lo_at) land lo_mask) <= key
        then
          if key < low + (load buf (r + hi_at) land hi_mask) then begin
            q.sum <- G.add q.sum (value r);
            q.next <- (if s.level = 0 then leaf else field buf s r child_col)
          end
          else if q.logical then q.sum <- G.add q.sum (value r);
        at := r + stride
      done

    let point ~logical ~key ~at frame =
      let q = { key; at; logical; sum = G.zero; next = missing } in
      scan_frame q frame;
      (q.sum, q.next)
  end

  (* The handle state — configuration, clock, current root, root*
     directory — as the snapshot's state chunk carries it. *)
  type state = {
    s_cfg : config;
    s_key_space : int;
    s_now : int;
    s_horizon : int;
    s_cur_root : Storage.Page_id.t;
    s_height : int;
    s_roots : (int * Storage.Page_id.t) list;
  }

  let state_bytes t = 128 + (List.length (Root_star.tenures t.root_star) * 16)

  let encode_state w t =
    let module W = Storage.Codec.Writer in
    let tenures = Root_star.tenures t.root_star in
    W.i32 w t.cfg.b;
    W.i64 w (Int64.to_int (Int64.bits_of_float t.cfg.f));
    W.u8 w (match t.cfg.variant with Plain -> 0 | Logical -> 1);
    W.bool w t.cfg.merging;
    W.bool w t.cfg.disposal;
    W.bool w t.cfg.root_star_btree;
    W.i64 w t.key_space;
    W.i64 w t.now_;
    W.i64 w t.horizon;
    W.i64 w (Storage.Page_id.to_int t.cur_root);
    W.i32 w t.height;
    W.i32 w (List.length tenures);
    List.iter
      (fun (iv, pid) ->
        W.i64 w iv.Interval.lo;
        W.i64 w (Storage.Page_id.to_int pid))
      tenures

  let decode_state ~who rd =
    let module R = Storage.Codec.Reader in
    let b = R.i32 rd in
    let f = Int64.float_of_bits (Int64.of_int (R.i64 rd)) in
    let variant =
      match R.u8 rd with
      | 0 -> Plain
      | 1 -> Logical
      | _ -> failwith (who ^ ": bad variant")
    in
    let merging = R.bool rd in
    let disposal = R.bool rd in
    let root_star_btree = R.bool rd in
    let s_key_space = R.i64 rd in
    let s_now = R.i64 rd in
    let s_horizon = R.i64 rd in
    let s_cur_root = Storage.Page_id.of_int (R.i64 rd) in
    let s_height = R.i32 rd in
    let n_roots = R.i32 rd in
    let s_roots =
      List.init n_roots (fun _ ->
          let ts = R.i64 rd in
          let pid = Storage.Page_id.of_int (R.i64 rd) in
          (ts, pid))
    in
    { s_cfg = { b; f; variant; merging; disposal; root_star_btree }; s_key_space;
      s_now; s_horizon; s_cur_root; s_height; s_roots }

  let of_state ~io_stats backend st =
    let root_star = Root_star.create ~btree:st.s_cfg.root_star_btree ~stats:io_stats () in
    List.iter (fun (ts, pid) -> Root_star.register root_star ~at:ts pid) st.s_roots;
    backend.b_root st.s_cur_root;
    { backend; io_stats; cfg = st.s_cfg; key_space = st.s_key_space; root_star;
      cur_root = st.s_cur_root; height = st.s_height; now_ = st.s_now;
      horizon = st.s_horizon; touches = 0; tel = Telemetry.Tracer.noop }

  let corrupt_chunk path what =
    failwith (Printf.sprintf "Mvsbt.Persist: %s: corrupt %s chunk" path what)

  (* Stream the snapshot at [path]: [k] gets its state, the file's size
     and a function that feeds each verified page frame to a consumer, as
     a slice of a reused buffer valid only during the call.  A short,
     misframed, overlong or checksum-failing file fails. *)
  let with_snapshot ~vfs ~path k =
    Chunks.with_file vfs ~path ~magic:snapshot_magic @@ fun rd ->
    let st = decode_state ~who:"Mvsbt.Durable.of_snapshot" (Chunks.chunk rd) in
    k st rd.Chunks.size (fun page ->
        let n_pages = Storage.Codec.Reader.i32 (Chunks.chunk rd) in
        for _ = 1 to n_pages do
          page (Chunks.frame rd)
        done;
        if not (Chunks.at_end rd) then Chunks.fail rd "bytes after the last page")

  module Durable (V : VALUE_CODEC) = struct
    module RC = Record_codec (V)

    (* A page is sealed once it closes: only vacuum changes it after. *)
    module Mmap_store = Storage.Page_store.Mmap (struct
      type t = page

      let encode = RC.encode
      let sealed p = p.closed <> forever
    end)

    module Mmap_pool = Storage.Buffer_pool.Make (Mmap_store)

    (* The room a page's frame may take: [b] records in the widest
       layout.  A sealed page's frame takes only the bytes it encodes to. *)
    let min_page_size cfg = Mmap_store.block_overhead + RC.max_payload ~b:cfg.b

    (* The mapped store pairs with clock eviction: with queries scanning
       frames in place, eviction is pure bookkeeping, so the cheaper
       approximation beats exact LRU's list surgery per touch. *)
    let make_backend ~pool_capacity store =
      let pool =
        Mmap_pool.create ~capacity:pool_capacity ~policy:Storage.Evict.Second_chance store
      in
      (* The current root is pinned in the pool: every descent starts
         there.  The pin moves when the tree moves its root. *)
      let pinned_root = ref None in
      {
        b_root =
          (fun pid ->
            (match !pinned_root with
            | Some old when Mmap_pool.pin_count pool old > 0 -> Mmap_pool.unpin pool old
            | _ -> ());
            Mmap_pool.pin pool pid;
            pinned_root := Some pid);
        b_alloc = (fun () -> Mmap_pool.alloc pool);
        (* Only writers and maintenance passes decode a frame. *)
        b_read =
          (fun pid ->
            match Mmap_pool.read pool pid with
            | Storage.Page_store.Decoded page -> page
            | Framed ->
                let buf, off, len = Mmap_store.frame store pid in
                RC.decode buf off len);
        b_scan =
          (fun pid q ->
            match Mmap_pool.read pool pid with
            | Storage.Page_store.Decoded page -> scan_page q page
            | Framed -> RC.scan_frame q (Mmap_store.frame store pid));
        b_write = (fun pid page -> Mmap_pool.write pool pid (Storage.Page_store.Decoded page));
        b_free = (fun pid -> Mmap_pool.free pool pid);
        b_exists = (fun pid -> Mmap_pool.mem pool pid);
        b_list =
          (fun () ->
            Mmap_pool.flush pool;
            Mmap_store.written_ids store);
        b_live = (fun () -> Mmap_store.live_pages store);
        b_drop = (fun () -> Mmap_pool.drop_cache pool);
        b_frames =
          Some
            {
              frame =
                (fun pid ->
                  Mmap_pool.clean pool pid;
                  Mmap_store.read_frame store pid);
              stage =
                (fun file ->
                  let staged = Mmap_store.stage store ~file () in
                  {
                    add =
                      (fun pid ~offset frame ->
                        ignore
                          (Mmap_store.stage_frame staged pid ~offset frame ~pos:0
                             ~len:(Bytes.length frame)));
                    (* Pages the new base left out leave the pool too, so a
                       dirty one is never written back into the store. *)
                    commit =
                      (fun () ->
                        Mmap_store.rebase store staged;
                        Mmap_pool.retain pool (Mmap_store.mem store));
                  });
              overlay = (fun () -> Mmap_store.overlay_bytes store);
            };
        b_close = (fun () -> Mmap_store.close store);
      }

    let create ?config ?(pool_capacity = 64) ?stats ?(backing = `Auto) ~key_space ~path () =
      let cfg = match config with Some c -> c | None -> default_config ~b:64 in
      validate_create cfg key_space;
      let io_stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
      let store =
        Mmap_store.create ~stats:io_stats ~page_size:(min_page_size cfg) ~backing ~path ()
      in
      boot ~cfg ~key_space ~io_stats (make_backend ~pool_capacity store)

    (* A state chunk brings in only what {!create} accepts: a
       configuration that passes {!validate_create}, and a [b] whose
       largest page payload fits a chunk, so a snapshot's config can never
       size its pages past what a snapshot can hold. *)
    let check_state ~path st =
      match validate_create st.s_cfg st.s_key_space with
      | () when RC.max_payload ~b:st.s_cfg.b <= Chunks.max_len -> ()
      | () | (exception Invalid_argument _) -> corrupt_chunk path "state"

    (* A page chunk's structure, checked without building the page: a
       level, a record count within [b], column widths of at most 8 bytes,
       records and a pad that fill the chunk exactly (so every record of
       the page has the size a query's scan steps by, and every load of
       the scan stays inside the chunk), a pad of zeros, an empty child
       column at a leaf, and at an index level children that are page ids
       (a negative one would read as a scan's [leaf] sentinel, and end a
       descent early with a partial sum).  A level flipped either way
       breaks one of the last two.  {!of_snapshot} runs it before
       it stages a frame into a base.  The CRC only catches bit rot;
       these rules check input from outside the program. *)
    let check_page_chunk ~b ~path ~header (f : Chunks.frame) =
      let buf = f.buf and p = f.pos + Chunks.frame_bytes in
      let u8 i = Bytes.get_uint8 buf (p + i)
      and i64 i = Int64.to_int (Bytes.get_int64_le buf (p + i)) in
      let well_formed =
        f.len >= RC.header_bytes
        &&
        (* The header is parsed as a scan parses it, from a copy. *)
        match
          Storage.Zcodec.blit_of_bytes buf p header 0 RC.header_bytes;
          RC.frame_shape header 0 f.len
        with
        | None -> false
        | Some s ->
            let c = RC.child_col in
            let record i = RC.header_bytes + (i * s.stride) in
            let rec zeros i = i >= f.len || (u8 i = 0 && zeros (i + 1)) in
            let rec children i =
              i = s.count
              || s.base.(c) + (i64 (record i + s.off.(c)) land s.mask.(c)) >= 0
                 && children (i + 1)
            in
            s.level >= 0 && s.count <= b
            && zeros (record s.count)
            && if s.level = 0 then s.mask.(c) = 0 && s.base.(c) = -1 else children 0
      in
      if not well_formed then corrupt_chunk path "page"

    (* Open a tree over a {!Persist} snapshot without decoding a page:
       each verified chunk frame already is the page's frame, CRC
       included, so the base records where it is — mapped, or copied
       into a RAM image — and the overlay at [path] starts empty.  The
       snapshot's config, checked before any store exists, sizes the
       pages. *)
    let of_snapshot ?(pool_capacity = 64) ?stats ?(vfs = Storage.Vfs.os)
        ?(backing = `Auto) ~snapshot ~path () =
      let io_stats = match stats with Some s -> s | None -> Storage.Io_stats.create () in
      with_snapshot ~vfs ~path:snapshot @@ fun st size pages ->
      check_state ~path:snapshot st;
      let store =
        Mmap_store.create ~stats:io_stats ~page_size:(min_page_size st.s_cfg) ~backing ~path ()
      in
      (try
         let staged = Mmap_store.stage store ~file:snapshot ~size () in
         let header = Bigarray.Array1.create Bigarray.char Bigarray.c_layout RC.header_bytes in
         pages (fun f ->
             check_page_chunk ~b:st.s_cfg.b ~path:snapshot ~header f;
             let id = Int64.to_int (Bytes.get_int64_le f.buf (f.pos + Chunks.frame_bytes)) in
             if
               id < 0
               || not
                    (Mmap_store.stage_frame staged (Storage.Page_id.of_int id)
                       ~offset:f.offset f.buf ~pos:f.pos ~len:(Chunks.frame_bytes + f.len))
             then corrupt_chunk snapshot "page");
         Mmap_store.rebase store staged;
         (* The root is pinned now, so it must be a page of the base. *)
         if not (Mmap_store.mem store st.s_cur_root) then corrupt_chunk snapshot "state";
         of_state ~io_stats (make_backend ~pool_capacity store) st
       with e ->
         Mmap_store.close store;
         raise e)
  end

  (* --- Snapshot persistence --------------------------------------------------- *)

  module Persist (V : VALUE_CODEC) = struct
    module RC = Record_codec (V)

    let write ~stage ~vfs t ~path =
      let file = vfs.Storage.Vfs.v_open `Create path in
      Fun.protect ~finally:(fun () -> file.Storage.Vfs.f_close ()) @@ fun () ->
      (* Counting what is appended gives each frame's offset in the file. *)
      let written = ref 0 in
      let oc =
        { file with
          Storage.Vfs.f_append =
            (fun buf pos len ->
              file.Storage.Vfs.f_append buf pos len;
              written := !written + len) }
      in
      let magic = Bytes.of_string snapshot_magic in
      oc.Storage.Vfs.f_append magic 0 (Bytes.length magic);
      let w = Chunks.writer (state_bytes t) in
      encode_state w t;
      Chunks.append oc w;
      (* Pages in the reverse of the walk's preorder, one frame each.  A
         heap tree's pages are in memory already and are encoded, one at
         a time into one scratch buffer, their CRC computed as they are
         framed.  A durable tree already holds each page's frame, so its
         walk decodes only roots and index pages, to find children, and
         every frame is copied as stored, its CRC verified on the way out:
         holding the decoded index pages until they are written would put
         a slice of the tree back in the heap.  When [stage], each copied
         frame is staged, at its offset, into the base the tree moves onto
         once the file is durable. *)
      let writes = ref [] in
      let commit =
        match t.backend.b_frames with
        | None ->
            let room = RC.max_payload ~b:t.cfg.b in
            let scratch = Bigarray.Array1.create Bigarray.char Bigarray.c_layout room in
            iter_pages t (fun p ->
                writes :=
                  (fun () ->
                    let len = RC.encode scratch ~off:0 ~len:room p in
                    let frame = Bytes.create (Chunks.frame_bytes + len) in
                    Storage.Zcodec.blit_to_bytes scratch 0 frame Chunks.frame_bytes len;
                    Chunks.seal frame ~len;
                    Chunks.append_frame oc frame)
                  :: !writes);
            ignore
        | Some frames ->
            let staging = if stage then Some (frames.stage path) else None in
            walk t ~leaves:false (fun pid _ ->
                writes :=
                  (fun () ->
                    let frame = frames.frame pid in
                    Option.iter (fun s -> s.add pid ~offset:!written frame) staging;
                    Chunks.append_frame oc frame)
                  :: !writes);
            Option.fold ~none:ignore ~some:(fun s -> s.commit) staging
      in
      let w = Chunks.writer 4 in
      Storage.Codec.Writer.i32 w (List.length !writes);
      Chunks.append oc w;
      List.iter (fun write -> write ()) !writes;
      commit

    let save ?(vfs = Storage.Vfs.os) t ~path =
      let (_ : unit -> unit) = write ~stage:false ~vfs t ~path in
      ()

    let save_staged ?(vfs = Storage.Vfs.os) t ~path = write ~stage:true ~vfs t ~path
  end

  let pp_dot ppf t =
    Format.fprintf ppf "digraph mvsbt {@.  node [shape=record];@.";
    iter_pages t (fun page ->
        let label =
          String.concat "|"
            (List.map
               (fun r ->
                 Format.asprintf "%a@%d..%s: %a" Interval.pp r.range r.rt_start
                   (if r.rt_end = forever then "inf" else string_of_int r.rt_end)
                   G.pp r.value)
               page.records)
        in
        Format.fprintf ppf "  p%d [label=\"{p%d lvl%d %a|%s}\"];@."
          (Storage.Page_id.to_int page.pid)
          (Storage.Page_id.to_int page.pid)
          page.level Interval.pp page.prange label;
        List.iter
          (fun r ->
            match r.child with
            | Some c ->
                Format.fprintf ppf "  p%d -> p%d;@."
                  (Storage.Page_id.to_int page.pid)
                  (Storage.Page_id.to_int c)
            | None -> ())
          page.records);
    Format.fprintf ppf "}@."
end
