(** Catch-up replay of shipped WAL records into a {e live} follower
    engine.

    Each shipped frame is the payload of one leader WAL record.  Replay
    decodes it with {!Durable.decode_record} and re-applies the operation through the follower engine's
    ordinary write path ({!Durable.insert}/[delete]), which logs it to
    the follower's {e own} WAL under the identical sequence number — the
    follower is a full engine, recoverable and promotable, not a passive
    byte copy.  Durability is the caller's move: batch frames, then
    {!Durable.sync_wal}, then acknowledge the last sequence. *)

type outcome =
  | Applied of int  (** Applied and logged; the new watermark. *)
  | Skipped
      (** At or below the watermark — a resend or a record the
          follower's checkpoint already covers. *)
  | Gap of { expect : int; got : int }
      (** Out of order: frames were lost upstream.  Resubscribe from the
          current watermark; nothing was applied. *)
  | Rejected of string
      (** Undecodable or precondition-refused — the leader applied this
          but we cannot: replica divergence, stop replaying. *)
  | Failed of Storage.Storage_error.t
      (** Local I/O failure; the op may retry after recovery. *)

val replay : Durable.t -> bytes -> outcome
(** Apply one shipped record payload to the engine. *)

val watermark : Durable.t -> int
(** The engine's replayed sequence ([Rta.n_updates] of its warehouse). *)

val pp_outcome : Format.formatter -> outcome -> unit
