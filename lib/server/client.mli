(** Blocking client for the {!Wire} protocol — used by the tests, the
    bench harness, and [rta_cli netbench].

    The client is deliberately simple: one connection, blocking writes
    and reads.  {!send} and {!recv} are split so a caller can pipeline —
    send a window of requests, then collect the window of responses; the
    server answers strictly in request order, so matching is positional.
    {!call} is the one-shot convenience.

    {2 Timeouts and reconnection}

    Without [timeout], every operation blocks indefinitely — a dead or
    wedged peer blocks the client forever.  With [timeout], connecting
    (non-blocking connect + [select]) and each blocking read or write
    ([SO_RCVTIMEO]/[SO_SNDTIMEO]) is bounded and raises the typed
    {!Timeout} instead.

    A client built from an endpoint ({!connect_unix}/{!connect_tcp})
    additionally retries {e once}, after [backoff] seconds, when a
    {!send} hits a closed peer before any byte of the request reached
    the socket and no response is owed — the stale-pooled-connection
    case, where retrying cannot double-apply anything.  Failures past
    that single attempt, or at any less safe point, surface as
    {!Connection_closed}. *)

type t

exception Connection_closed
(** The peer closed the stream while a response was still owed. *)

exception Protocol_error of Wire.error
(** The response stream failed to decode; the connection is unusable. *)

exception Timeout of string
(** An operation exceeded the configured [timeout]; the argument names
    it ("connect", "send", "receive").  The connection may have a partial
    frame in flight and should be closed. *)

val connect_unix : ?timeout:float -> ?backoff:float -> path:string -> unit -> t
val connect_tcp : ?timeout:float -> ?backoff:float -> ?host:string -> port:int -> unit -> t
(** Default host 127.0.0.1; [timeout] in seconds bounds connect and each
    subsequent blocking operation (default: block forever); [backoff]
    (default 0.05 s) is the delay before the single reconnect attempt. *)

val reconnect : t -> unit
(** Close and re-establish the connection to the original endpoint after
    [backoff] seconds, discarding any buffered response bytes.
    @raise Connection_closed on a client wrapping a raw fd. *)

val reconnects : t -> int
(** Reconnections performed over this client's life. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The underlying socket — for [select]-based callers and for tests
    that need to write raw bytes past the codec. *)

val send : ?trace:int64 -> t -> Wire.request -> unit
(** Write one framed request (complete, blocking).  With [trace] — or,
    absent that, an ambient {!Telemetry.Tracer.with_trace} id — the
    request goes out as a v2 traced frame and the server tags every span
    and phase sample it causes, across processes, with that id. *)

val recv : t -> Wire.response
(** Block until the next complete response frame.
    @raise Connection_closed on EOF mid-stream.
    @raise Protocol_error on an undecodable frame. *)

val call : ?trace:int64 -> t -> Wire.request -> Wire.response
(** [send] then [recv]. *)

(** {1 Conveniences} — thin wrappers over {!call}. *)

val ping : t -> bool
(** [true] iff the server answered [Pong]. *)

val insert : t -> key:int -> value:int -> at:int -> Wire.response
val delete : t -> key:int -> at:int -> Wire.response

val query :
  t -> agg:Wire.agg -> klo:int -> khi:int -> tlo:int -> thi:int -> Wire.response

val checkpoint : t -> Wire.response
val stats : t -> Wire.stats option

(** Per-shard rows; a one-shard server reports one row covering the
    whole key domain. *)
val shard_stats : t -> Wire.shard_stat list option
val health : t -> Durable.health option
val shutdown : t -> Wire.response

val replica_stats : t -> Wire.replica_stats option
val promote : t -> Wire.response

val vacuum : ?max_pages_per_step:int -> t -> horizon:int -> Wire.response
(** Raise the retention horizon and reclaim dead pages online.
    [max_pages_per_step] 0 (the default) lets the server pick. *)

val observe : t -> string option
(** The server's live observability document (JSON): health, per-shard
    watermark lag and snapshot age, replication lag per follower, phase
    summaries, flight-recorder state. *)
