(** The snapshot publication protocol.

    Each writer domain, after every committed batch (ops applied {e and}
    the shard's WAL synced), publishes one immutable {!stat} record into
    its shard's cell with a single [Atomic.set].  Any domain may read
    the cell at any time with [Atomic.get] and obtains a consistent
    point-in-time view — the record is immutable, so there are no torn
    reads and no locks on the read side.

    The [watermark] is the shard's version number: the count of updates
    applied to the shard engine over its life (recovery included).  It
    is monotone, and because it is published {e after} the batch's WAL
    sync, any watermark a reader observes counts only durable updates.
    Reader domains publish their own per-shard applied watermark the
    same way, so the gap between a writer's published watermark and a
    reader's is exactly the replication lag in updates. *)

type stat = {
  watermark : int;  (** Durable updates applied over the shard's life. *)
  now : int;  (** The shard clock: last transaction time applied. *)
  alive : int;
  pages : int;
  batches : int;  (** Group commits on this shard. *)
  acked : int;  (** Writes acknowledged through group commit. *)
  wal_syncs : int;
  health : Durable.health;
  horizon : int;  (** Retention horizon: windows reaching below it are refused. *)
  published_ns : int64;
      (** Monotonic clock at publication — stamped by {!create}/
          {!publish} themselves, so [now_ns () - published_ns] is the
          snapshot's age. *)
}

val zero : stat

type t
(** One shard's publication cell. *)

val create : stat -> t
val publish : t -> stat -> unit
val read : t -> stat

val pp_stat : Format.formatter -> stat -> unit
