(** Request phase breakdown: where a request's wall time went.

    A {!cell} rides along with one request through the server — decode,
    the admission gate, the group-commit queue, the batch's WAL append
    and fsync, the replication-quorum gate, engine apply, and finally
    the reply flush — and each stage {e charges} the time since the
    previous stage's charge.  The phases tile the request's wall time:
    every window starts where the last one ended, so a pause that falls
    between two stages (a preempted thread, a stop-the-world collection
    waiting on another domain) lands in the next phase instead of
    nowhere.  When the reply bytes reach the socket the cell is
    {!finish}ed against a {!recorder}: every phase feeds a log-scale
    histogram in {!Metrics} (so [request_phase_fsync_ns] p99 is one
    Prometheus query away) and requests slower than the configured
    threshold dump their whole phase vector as one JSON slow-log line.

    Cells are written by one stage at a time, handed off through the
    same queues that order the request itself, so no locking is needed;
    the phase arrays are plain floats. *)

type phase =
  | Decode  (** Wire frame → request value. *)
  | Admission_wait  (** The admission gate's decision. *)
  | Queue_wait
      (** Enqueue → the batch/mailbox picks the op up; on the sharded
          plane also a domain's finished op → the event loop runs its
          completion. *)
  | Batch_build  (** Assembling the group-commit batch. *)
  | Wal_append  (** The op's own WAL append. *)
  | Fsync  (** The op's share: its batch's single WAL sync. *)
  | Quorum_wait  (** Replication gate → enough follower acks. *)
  | Apply  (** Engine work: tree update or query evaluation. *)
  | Reply_flush  (** Result in hand → response encoded and on the socket. *)

val all : phase list
val n_phases : int
val index : phase -> int
val name : phase -> string

val now_ns : unit -> int64
(** {!Tracer.now_ns}, re-exported for charge sites. *)

type cell

val cell : kind:string -> trace:int64 option -> start_ns:int64 -> cell
(** A fresh vector for a request that began at [start_ns] (the monotonic
    clock when its frame's decode started), which opens the first
    window.  [kind] names the request ("insert", "query", …) in
    slow-log lines. *)

val charge : cell -> phase -> unit
(** Close the open window at the current clock: charge [p] with its
    length, less what {!add} put inside it, and open the next window
    there. *)

val add : cell -> phase -> ns:int64 -> unit
(** Add a duration measured inside the open window — the engine's own
    WAL append and tree apply inside a group-commit batch — to [p].  The
    window's {!charge} leaves it out, so it is counted once. *)

val kind : cell -> string
val trace : cell -> int64 option

val cell_to_json : ?typ:string -> cell -> total_ns:int64 -> Json.t
(** One slow-log line: kind, trace id, start, total, and every nonzero
    phase in milliseconds. *)

type recorder

val create : ?slow_ms:float -> ?on_slow:(Json.t -> unit) -> Metrics.t -> recorder
(** Registers [request_phase_<name>_ns] histograms plus
    [request_total_ns] in the registry.  [slow_ms] > 0 turns on the slow
    log: a finished cell whose wall time meets the threshold is rendered
    with {!cell_to_json} and handed to [on_slow]. *)

val set_slow : recorder -> slow_ms:float -> (Json.t -> unit) -> unit

val finish : recorder -> cell -> unit
(** Observe the cell into the histograms ([now - start] as the total)
    and fire the slow log if it qualifies.  Call exactly once, when the
    reply has flushed. *)

val summary_json : recorder -> Json.t
(** Per-phase count and p50/p95/p99/max/sum in milliseconds. *)
