(** Admission control: bounded in-flight work, a bounded write queue,
    and the follower's closed write path.

    The server is a single event loop; what protects it from a client
    flood is refusing work {e at the door}, before any engine I/O:

    - at most [max_in_flight] admitted requests may be awaiting a
      response at once (queries in execution, writes queued for group
      commit) — beyond that every request is shed with a typed
      [Overloaded] response the client can back off on;
    - writes are additionally bounded by [max_queue_depth] against the
      group-commit queue, so a write burst cannot grow the batch queue
      (and the ack latency of everything in it) without bound;
    - on a replication follower ({!set_standby}), writes are rejected
      with [Read_only] {e without touching the engine}, while queries
      keep being admitted.

    A degraded engine needs no gate here: it refuses writes itself with
    [Read_only_store], which the server answers as [Read_only].

    Shedding is cheap by design: a shed request costs one decoded frame
    and one small response, never an engine call or an fsync. *)

type config = {
  max_in_flight : int;  (** Admitted-but-unanswered cap (default 1024). *)
  max_queue_depth : int;  (** Group-commit queue cap for writes (default 256). *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

type decision =
  | Admit
  | Shed  (** Over a limit — answer [Overloaded], engine untouched. *)
  | Reject_read_only
      (** A write to a standby follower — answer [Read_only], engine
          untouched.  Not counted as shed: the server is not
          overloaded. *)

val admit : t -> queue_depth:int -> write:bool -> decision
(** Decide one request.  [queue_depth] is the current group-commit queue
    length (only consulted for writes).  [Admit] takes an in-flight slot
    the caller must eventually {!release}. *)

val release : t -> unit
(** Return one in-flight slot — call exactly once per admitted request,
    when its response is handed to the connection. *)

val set_standby : t -> bool -> unit
(** Follower mode: reject writes with [Read_only] even though the engine
    is healthy — the node serves replicated reads and must not diverge
    from its leader.  Independent of engine health, so a promotion
    (standby off) does not clear a genuine degradation. *)

val standby : t -> bool

val in_flight : t -> int

val shed : t -> int
(** Requests shed over this admission gate's life. *)

val rejected_read_only : t -> int
val config : t -> config
