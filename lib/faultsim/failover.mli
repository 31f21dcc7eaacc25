(** The failover matrix: kill the leader at every replication boundary
    and prove the no-lost-acks guarantee holds.

    One simulated cluster per kill point — a leader {!Durable} engine
    whose WAL is tailed through the real {!Wal.Tail} into a real
    {!Replica.Backlog}, and two follower engines replaying shipped frames
    through {!Replica.Apply} — all over {!Storage.Vfs.Memory}, driven by
    one deterministic update script ({!Scenario.script}).  Updates flow
    in batches through six pipeline stages, and the leader is killed at
    each stage of each batch:

    - {e logged} — batch appended to the leader's WAL, not yet fsynced;
    - {e synced} — fsynced and visible to the tail, nothing shipped;
    - {e shipped} — frames serialized onto the wire, not yet received
      (in-flight bytes die with the network);
    - {e received} — buffered in a follower's inbox, not yet applied;
    - {e replayed} — applied and fsynced by a follower, ack not delivered;
    - {e acked} — acks processed, client acks released up to the commit
      watermark ([sync_replicas]-th largest follower ack, clamped to the
      leader's durable watermark).

    Followers drop offline on a fixed schedule (one lags every other
    batch, the other hiccups every fifth) so the kill lands on genuinely
    skewed replicas.  At the kill the most-advanced follower is promoted:
    its inbox is discarded (never acked, so no client ack depends on it),
    the fencing epoch is bumped through {!Replica.Epoch}, and the checks
    run, each through {!Scenario.check}:

    - the promoted node passes with floor [acked] and ceiling [issued]:
      no client-acked write is lost, nothing is invented.  The floor
      holds when [sync_replicas >= 1], the quorum that promises it (with
      [0] an ack certifies only the leader's own fsync, and the matrix
      indeed observes acked writes dying with the leader), and is 0
      otherwise;
    - late frames from the deposed term carry a stale epoch and are
      refused without moving the promoted watermark;
    - the deposed leader's own disk, under every distinct crash image of
      its journal's final cut ({!Explorer.enumerate_at}), passes
      {!Scenario.check_recovered} with floor [acked] and ceiling
      [issued];
    - the cluster continues: the promoted leader re-applies the unacked
      script suffix, the surviving follower resubscribes through a fresh
      tail + backlog over the {e promoted} node's WAL, and both pass
      with the whole script as floor and ceiling.

    Every follower watermark is also checked against the leader's durable
    watermark at every stage of every batch — a follower must never hold
    a record its leader could still lose. *)

type spec = {
  seed : int;
  max_key : int;
  updates : int;  (** Length of the update script. *)
  batch : int;  (** Updates per pipeline round; rounds × 6 = kill points. *)
  sync_replicas : int;  (** The semi-sync ack quorum (>= 1 to defer acks). *)
}

val default_spec : spec
(** 96 updates over 24 keys in batches of 4 — 24 rounds × 6 boundaries =
    144 kill points — with [sync_replicas = 1]. *)

val run : ?limit:int -> spec -> Scenario.report
(** The full matrix.  [limit] stride-samples the kill points down to at
    most that many (for smoke runs); default checks every point.  What a
    kill point raises is a violation at that point.  Counts: [kill
    states], [deposed-leader images] audited, stale-epoch frames
    [fenced], and the [max acked] watermark at any kill. *)
