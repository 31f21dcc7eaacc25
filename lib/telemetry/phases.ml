type phase =
  | Decode
  | Admission_wait
  | Queue_wait
  | Batch_build
  | Wal_append
  | Fsync
  | Quorum_wait
  | Apply
  | Reply_flush

let n_phases = 9

let index = function
  | Decode -> 0
  | Admission_wait -> 1
  | Queue_wait -> 2
  | Batch_build -> 3
  | Wal_append -> 4
  | Fsync -> 5
  | Quorum_wait -> 6
  | Apply -> 7
  | Reply_flush -> 8

let name = function
  | Decode -> "decode"
  | Admission_wait -> "admission_wait"
  | Queue_wait -> "queue_wait"
  | Batch_build -> "batch_build"
  | Wal_append -> "wal_append"
  | Fsync -> "fsync"
  | Quorum_wait -> "quorum_wait"
  | Apply -> "apply"
  | Reply_flush -> "reply_flush"

let all =
  [ Decode; Admission_wait; Queue_wait; Batch_build; Wal_append; Fsync; Quorum_wait;
    Apply; Reply_flush ]

let now_ns = Tracer.now_ns

type cell = {
  kind : string;
  trace : int64 option;
  start_ns : int64;
  ns : float array;  (* accumulated nanoseconds per phase *)
  mutable open_ns : int64;  (* where the open window started *)
  mutable inside_ns : float;  (* [add]ed since then, left out of its charge *)
}

let cell ~kind ~trace ~start_ns =
  { kind; trace; start_ns; ns = Array.make n_phases 0.; open_ns = start_ns; inside_ns = 0. }

let add c p ~ns =
  let i = index p and v = Int64.to_float ns in
  c.ns.(i) <- c.ns.(i) +. v;
  c.inside_ns <- c.inside_ns +. v

let charge c p =
  let now = now_ns () in
  let i = index p in
  c.ns.(i) <- c.ns.(i) +. max 0. (Int64.to_float (Int64.sub now c.open_ns) -. c.inside_ns);
  c.open_ns <- now;
  c.inside_ns <- 0.

let kind c = c.kind
let trace c = c.trace

let cell_to_json ?(typ = "slow_request") c ~total_ns =
  let ms v = Json.Float (v /. 1e6) in
  let phases =
    List.filter_map
      (fun p ->
        let v = c.ns.(index p) in
        if v > 0. then Some (name p, ms v) else None)
      all
  in
  Json.Obj
    (("type", Json.Str typ)
    :: ("kind", Json.Str c.kind)
    :: (match c.trace with
       | None -> []
       | Some id -> [ ("trace_id", Json.Int (Int64.to_int id)) ])
    @ [
        ("start_ns", Json.Int (Int64.to_int c.start_ns));
        ("total_ms", ms (Int64.to_float total_ns));
        ("phases_ms", Json.Obj phases);
      ])

(* --- Recorder ---------------------------------------------------------------- *)

type recorder = {
  hists : Metrics.histogram array;  (* nanoseconds, one per phase *)
  total : Metrics.histogram;
  mutable slow_ns : float;  (* 0. = slow logging off *)
  mutable on_slow : Json.t -> unit;
}

let create ?(slow_ms = 0.) ?(on_slow = ignore) reg =
  {
    hists =
      Array.of_list
        (List.map
           (fun p ->
             Metrics.histogram reg
               ~help:(Printf.sprintf "Request time in the %s phase (ns)." (name p))
               (Printf.sprintf "request_phase_%s_ns" (name p)))
           all);
    total =
      Metrics.histogram reg ~help:"Request wall time, decode to reply flush (ns)."
        "request_total_ns";
    slow_ns = slow_ms *. 1e6;
    on_slow;
  }

let set_slow r ~slow_ms on_slow =
  r.slow_ns <- slow_ms *. 1e6;
  r.on_slow <- on_slow

let finish r c =
  let total_ns = Int64.sub (now_ns ()) c.start_ns in
  Array.iteri (fun i v -> if v > 0. then Metrics.observe r.hists.(i) v) c.ns;
  Metrics.observe r.total (Int64.to_float total_ns);
  if r.slow_ns > 0. && Int64.to_float total_ns >= r.slow_ns then
    r.on_slow (cell_to_json c ~total_ns)

(* Per-phase quantiles in milliseconds — the payload behind the Observe
   opcode's "phases" object and netbench's latency-breakdown columns. *)
let summary_json r =
  let h2j h =
    let ms v = Json.Float (v /. 1e6) in
    Json.Obj
      [
        ("count", Json.Int (Metrics.hist_count h));
        ("p50_ms", ms (Metrics.quantile h 0.5));
        ("p95_ms", ms (Metrics.quantile h 0.95));
        ("p99_ms", ms (Metrics.quantile h 0.99));
        ("max_ms", ms (Metrics.hist_max h));
        ("sum_ms", ms (Metrics.hist_sum h));
      ]
  in
  Json.Obj
    (List.map (fun p -> (name p, h2j r.hists.(index p))) all
    @ [ ("total", h2j r.total) ])
