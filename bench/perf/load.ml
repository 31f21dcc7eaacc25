(* The four workloads and the load they put on a [serve] child over its
   Unix socket, from this one process. *)

open Inputs

let now = Proc.now

(* A connection with its own response buffer, so the select loop of the
   mixed workload can see whether a complete response is waiting:
   [Client.recv] would keep extra frames where [select] cannot see them. *)
module Conn = struct
  type t = { cli : Client.t; mutable buf : bytes; mutable len : int }

  let of_client cli = { cli; buf = Bytes.create 65536; len = 0 }
  let connect sock = of_client (Client.connect_unix ~timeout:60. ~path:sock ())
  let fd c = Client.fd c.cli
  let send c req = Client.send c.cli req
  let close c = Client.close c.cli

  let pop c =
    match Wire.decode_response ~buf:c.buf ~pos:0 ~avail:c.len with
    | Wire.Complete (r, used) ->
        Bytes.blit c.buf used c.buf 0 (c.len - used);
        c.len <- c.len - used;
        Some r
    | Wire.Incomplete -> None
    | Wire.Fail e -> failwith (Format.asprintf "undecodable response: %a" Wire.pp_error e)

  let fill c =
    if c.len = Bytes.length c.buf then begin
      let nb = Bytes.create (2 * c.len) in
      Bytes.blit c.buf 0 nb 0 c.len;
      c.buf <- nb
    end;
    match Unix.read (fd c) c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> failwith "server closed the connection"
    | n -> c.len <- c.len + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

  let rec recv c =
    match pop c with
    | Some r -> r
    | None ->
        fill c;
        recv c

  let call c req =
    send c req;
    recv c
end

(* --- Workloads ------------------------------------------------------------------ *)

type traffic =
  | Queries  (** Closed loop, one connection, window 1. *)
  | Ingest  (** Closed loop, one connection, pipeline window 64, B's events in order. *)
  | Mixed
      (** B's writes open loop at [write_rate], in bursts of
          [write_window], on one connection; queries closed loop at
          window 1 on a second. *)

type workload = {
  name : string;
  store : Storage.Store_kind.t;
  buffer : int;  (** Buffer pool pages. *)
  flags : string list;  (** Further [serve] flags. *)
  traffic : traffic;
}

let write_window = 64
let write_rate = 1000.
let in_flight_cap = 2 * write_window

let workloads =
  [
    {
      name = "query-mem";
      store = Storage.Store_kind.Memory;
      buffer = 64;
      flags = [];
      traffic = Queries;
    };
    {
      name = "query-mmap";
      store = Storage.Store_kind.Mmap;
      buffer = 8;
      flags = [];
      traffic = Queries;
    };
    {
      name = "ingest";
      store = Storage.Store_kind.Memory;
      buffer = 64;
      flags = [ "--max-batch"; "64" ];
      traffic = Ingest;
    };
    {
      name = "mixed";
      store = Storage.Store_kind.Mmap;
      buffer = 64;
      flags = [ "--checkpoint-every"; "5000" ];
      traffic = Mixed;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let serve_args ~max_key w =
  [ "--max-key"; string_of_int max_key; "--store"; Storage.Store_kind.to_string w.store;
    "--buffer"; string_of_int w.buffer ]
  @ w.flags

(* --- One session of traffic --------------------------------------------------- *)

(* Query streams: what a workload sends, the recent-window half of the
   mixed workload, and the rectangles checked at the end of a run. *)
let stream_history = 1
let stream_recent = 2
let stream_final = 3

let checked_answers = 1000
let n_final_checks = 200

type session = {
  q : Stats.Series.t;  (** Query latency (ms) of queries sent after warm-up. *)
  w : Stats.Series.t;  (** Write ack latency (ms), from the time the write was due. *)
  late : Stats.Series.t;  (** How late (ms) the generator sent each request. *)
  t_warm : float;
  t_end : float;
  fins : Stats.Series.t;  (** Completion times after warm-up. *)
  mutable done_total : int;  (** Completions over the whole timed phase. *)
  mutable attempted : int;
  mutable errors : int;  (** Responses other than the expected [Agg] or [Ack]. *)
  mutable checks : (rect * int * int) list;  (** Answers to compare with the oracle. *)
  mutable n_checks : int;
  mutable acked : Bytes.t;  (** Per B event sent: ['\001'] once acknowledged. *)
  mutable sent_b : int;
  mutable acked_inserts : int;
  mutable newest_ack : int;  (** Time of the newest acknowledged write. *)
}

(* The first 5% of the time is warm-up: its samples are discarded. *)
let session ~inputs ~seconds =
  let t0 = now () in
  {
    q = Stats.Series.create ();
    w = Stats.Series.create ();
    late = Stats.Series.create ();
    t_warm = t0 +. (0.05 *. seconds);
    t_end = t0 +. seconds;
    fins = Stats.Series.create ();
    done_total = 0;
    attempted = 0;
    errors = 0;
    checks = [];
    n_checks = 0;
    acked = Bytes.empty;
    sent_b = 0;
    acked_inserts = 0;
    newest_ack = inputs.p_end;
  }

let completed s ~fin =
  s.done_total <- s.done_total + 1;
  if fin >= s.t_warm then Stats.Series.add s.fins ~at:fin 0.

(* The latency a workload's user waits on: query answers where the
   workload queries, write acknowledgements where it only writes. *)
let primary w s = match w.traffic with Queries | Mixed -> s.q | Ingest -> s.w

(* The run's measured window in slices of [slice_s] seconds: median
   latency is read in the fastest tenth of the slices, throughput in the
   busiest tenth. *)
let slice_s = 0.25
let quiet = 0.1
let sliced s series ~q f = Stats.Series.sliced series ~t0:s.t_warm ~t1:s.t_end ~width:slice_s ~q f
let op_p50_ms w s = sliced s (primary w s) ~q:quiet (fun _ vs -> Stats.quantile vs 0.5)

(* Completions per second, from the first to the last completion of a
   slice, so that a run at a fixed rate still reads its own clock. *)
let ops_per_s s =
  sliced s s.fins ~q:(1. -. quiet) (fun ats _ ->
      let lo = Array.fold_left Float.min infinity ats and hi = Array.fold_left Float.max neg_infinity ats in
      float_of_int (Array.length ats - 1) /. (hi -. lo))

(* Count an unexpected response; the first few are shown. *)
let error s resp =
  if s.errors < 5 then Format.eprintf "perf: unexpected response %a@." Wire.pp_response resp;
  s.errors <- s.errors + 1

let on_query s r ~sent ~fin resp =
  s.attempted <- s.attempted + 1;
  completed s ~fin;
  match resp with
  | Wire.Agg { sum; count } ->
      if sent >= s.t_warm then begin
        Stats.Series.add s.q ~at:fin ((fin -. sent) *. 1000.);
        if s.n_checks < checked_answers then begin
          s.checks <- (r, sum, count) :: s.checks;
          s.n_checks <- s.n_checks + 1
        end
      end
  | _ -> error s resp

let on_write s b i ~due ~fin resp =
  s.attempted <- s.attempted + 1;
  completed s ~fin;
  match resp with
  | Wire.Ack ->
      Bytes.set s.acked i '\001';
      s.newest_ack <- max s.newest_ack (Workload.Generator.event_time b.(i));
      if is_insert b.(i) then s.acked_inserts <- s.acked_inserts + 1;
      if due >= s.t_warm then Stats.Series.add s.w ~at:fin ((fin -. due) *. 1000.)
  | _ -> error s resp

let send_write s conn b i =
  if Bytes.length s.acked = 0 then s.acked <- Bytes.make (Array.length b) '\000';
  Conn.send conn (request_of_event b.(i));
  s.sent_b <- i + 1

let late s ~sent ~due = if due >= s.t_warm then Stats.Series.add s.late ~at:sent ((sent -. due) *. 1000.)

(* Closed loop with up to [window] requests in flight on [conn], until
   [t_end] or until [more ()] is false.  [send ()] sends the next request
   and returns what [on_resp] needs to account for its response.  A
   closed-loop generator is late by the time it takes to send the next
   request once a reply has freed its slot. *)
let pipelined s conn ~window ~more ~send ~on_resp =
  let pending = Queue.create () in
  let prev = ref (now ()) in
  let take () =
    let x, sent = Queue.pop pending in
    let resp = Conn.recv conn in
    let fin = now () in
    on_resp x ~sent ~fin resp;
    prev := fin
  in
  while now () < s.t_end && more () do
    while Queue.length pending >= window do
      take ()
    done;
    let sent = now () in
    late s ~sent ~due:!prev;
    Queue.push (send (), sent) pending;
    prev := sent
  done;
  while not (Queue.is_empty pending) do
    take ()
  done

let closed_queries s conn next =
  pipelined s conn ~window:1 ~more:(fun () -> true)
    ~send:(fun () ->
      let r = next () in
      Conn.send conn (query_request r);
      r)
    ~on_resp:(on_query s)

(* B in order with [write_window] writes in flight, until [t_end] or
   [limit] events have been sent. *)
let pipelined_writes s conn b ~limit =
  pipelined s conn ~window:write_window
    ~more:(fun () -> s.sent_b < limit)
    ~send:(fun () ->
      let i = s.sent_b in
      send_write s conn b i;
      i)
    ~on_resp:(fun i ~sent ~fin resp -> on_write s b i ~due:sent ~fin resp)

(* B's writes open loop at [write_rate] on one connection, beside
   closed-loop queries at window 1 on the other.  The writes go out in
   bursts of [write_window], all due at the burst's start and timed from
   then, so that each burst is about one group commit: written one at a
   time, every write is its own fsync, and the query latency then follows
   the device and the host's scheduling more than the program.  Queries
   alternate between P's history and a window ending at the newest
   acknowledged write — every write before that instant is applied, so
   the answer is already final.  At most [in_flight_cap]
   writes are outstanding: a checkpoint stall then holds the sender back
   instead of overflowing the server's admission queue (256 writes), and
   the hold-up still counts in the latency. *)
let mixed s ~wconn ~qconn b ~history ~recent =
  let t0 = now () in
  let due i = t0 +. (float_of_int (i / write_window * write_window) /. write_rate) in
  let writes = Queue.create () and queries = Queue.create () in
  let sent_q = ref 0 and q_free = ref t0 in
  let drain conn queue on_response =
    Conn.fill conn;
    let rec go () =
      match Conn.pop conn with
      | Some resp ->
          on_response (Queue.pop queue) resp;
          go ()
      | None -> ()
    in
    go ()
  in
  let write_done (i, d) resp = on_write s b i ~due:d ~fin:(now ()) resp in
  let query_done (r, sent) resp =
    let fin = now () in
    on_query s r ~sent ~fin resp;
    q_free := fin
  in
  let wfd = Conn.fd wconn and qfd = Conn.fd qconn in
  while now () < s.t_end do
    while s.sent_b < Array.length b && due s.sent_b <= now () && Queue.length writes < in_flight_cap do
      let i = s.sent_b and d = due s.sent_b in
      late s ~sent:(now ()) ~due:d;
      send_write s wconn b i;
      Queue.push (i, d) writes
    done;
    if Queue.is_empty queries then begin
      let r = if !sent_q land 1 = 0 then history () else recent ~newest:s.newest_ack in
      let sent = now () in
      late s ~sent ~due:!q_free;
      Conn.send qconn (query_request r);
      Queue.push (r, sent) queries;
      incr sent_q
    end;
    let next_w = if Queue.length writes < in_flight_cap then due s.sent_b else s.t_end in
    let timeout = Float.max 0. (Float.min next_w s.t_end -. now ()) in
    match Unix.select [ wfd; qfd ] [] [] timeout with
    | rd, _, _ ->
        if List.mem wfd rd then drain wconn writes write_done;
        if List.mem qfd rd then drain qconn queries query_done
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  while not (Queue.is_empty writes) do
    drain wconn writes write_done
  done;
  while not (Queue.is_empty queries) do
    drain qconn queries query_done
  done

(* Run [w]'s traffic for [seconds] on a server listening at [sock] ([conn]
   is already connected there), then ask the end-of-run rectangles. *)
let drive ~inputs ~w ~sock conn ~seconds =
  let s = session ~inputs ~seconds in
  let next = rects inputs ~stream:stream_history in
  let history () = next ~max_time:inputs.p_end in
  (match w.traffic with
  | Queries -> closed_queries s conn history
  | Ingest ->
      let b = Lazy.force inputs.b in
      pipelined_writes s conn b ~limit:(Array.length b)
  | Mixed ->
      let b = Lazy.force inputs.b in
      let next_recent = rects inputs ~stream:stream_recent in
      let recent ~newest =
        let r = next_recent ~max_time:inputs.p_end in
        { r with tlo = newest - (r.thi - r.tlo); thi = newest }
      in
      let qconn = Conn.connect sock in
      Fun.protect
        ~finally:(fun () -> Conn.close qconn)
        (fun () -> mixed s ~wconn:conn ~qconn b ~history ~recent));
  s

let final_checks s ~inputs conn ~n =
  let next = rects inputs ~stream:stream_final in
  let horizon = s.newest_ack in
  for _ = 1 to n do
    let r = next ~max_time:horizon in
    s.attempted <- s.attempted + 1;
    match Conn.call conn (query_request r) with
    | Wire.Agg { sum; count } -> s.checks <- (r, sum, count) :: s.checks
    | resp -> error s resp
  done

(* Checked answers that disagree with the oracle over P plus the
   acknowledged prefix of B, each with the oracle's (sum, count). *)
let wrong_answers s ~inputs ~oracle_p =
  let oracle_b = Oracle.create ~max_key:inputs.max_key in
  if s.sent_b > 0 then begin
    let b = Lazy.force inputs.b in
    for i = 0 to s.sent_b - 1 do
      if Bytes.get s.acked i = '\001' then Oracle.apply oracle_b b.(i)
    done
  end;
  List.filter_map
    (fun (r, sum, count) ->
      let expected = Oracle.sum_count [ oracle_p; oracle_b ] r in
      if expected = (sum, count) then None else Some (r, (sum, count), expected))
    s.checks
