(** Vacuum crash matrix: kill the {!Durable} engine at every compaction
    boundary and prove retention is crash-safe.

    {!run_trace} drives a churn workload with two online vacuums spliced
    in (tiny chunks, auto-checkpoints armed) over {!Storage.Vfs.Memory},
    so the journal contains every boundary worth killing at: between the
    vacuum-begin record and the first chunk, between chunks, between a
    chunk and the auto checkpoint it tripped, between the checkpoint's
    pointer rename and the WAL truncate.  {!check} then enumerates every
    distinct post-crash disk image with {!Explorer}, runs real recovery
    on each, and verifies:

    - recovery completes, with a record count within
      [\[durable floor, issued ceiling\]] (vacuum records counted like
      updates — they consume sequence numbers);
    - the recovered horizon is exactly what the recovered WAL prefix
      prescribes — never ahead (refusing answerable queries), never
      behind (serving vacuumed garbage);
    - structural invariants hold: no freed page reachable, no live page
      lost ({!Rta.check_invariants} walks the whole graph);
    - a query panel is oracle-exact above the horizon and refused with
      [Below_horizon] below it;
    - recovery is idempotent, and so is vacuuming: re-vacuuming the
      recovered state (finishing any interrupted retention work)
      converges, and a second pass frees and drops nothing. *)

type update =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }

type trace = {
  prefix : string;
  max_key : int;
  max_t : int;  (** Exclusive bound on update times, for query bounds. *)
  sync_policy : Wal.sync_policy;
  checkpoint_every : int;
  store : Storage.Store_kind.t;
      (** Page store every recovery runs under ({!Harness.with_image}). *)
  vacuum_step_pages : int;  (** Chunk bound the trace vacuumed with. *)
  horizons : int list;  (** The vacuum targets the trace ran, in order. *)
  ops : Storage.Vfs.Memory.op array;  (** The journal, in program order. *)
  updates : update array;  (** The logical updates, in order. *)
  marks : (int * int) array;
      (** [(op_count, n_updates)] after each engine call completed. *)
  data_prefix : int array;
      (** Per WAL sequence number: how many of [updates] the first [seq]
          records carry (vacuum records carry none). *)
  horizon_at : int array;  (** Per sequence number: the horizon it leaves. *)
}

val run_trace :
  ?sync_policy:Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?store:Storage.Store_kind.t ->
  ?seed:int ->
  ?updates:int ->
  ?vacuum_step_pages:int ->
  max_key:int ->
  unit ->
  trace
(** Deterministic in [seed].  Defaults: [Every_n 4] group commit,
    auto-checkpoint every 40 records, 110 updates, 4-page vacuum
    chunks, [Memory] page store for the recoveries (the trace itself
    runs on the memory store, since nothing can map the journaled
    filesystem, and the crash images are the same under both); vacuums
    to [now/2] after 3/5 of the updates and to [2*now/3] at the end. *)

type violation = { cut : int; kind : Explorer.kind; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type report = {
  ops : int;  (** Journal length of the trace. *)
  distinct_images : int;  (** Distinct crash images enumerated. *)
  checked : int;  (** Images recovery ran on ([<=] distinct when [limit] sampled). *)
  horizons : int list;
  violations : violation list;
}

val pp_report : Format.formatter -> report -> unit

val check : ?limit:int -> ?query_count:int -> ?query_seed:int -> trace -> report
(** Enumerate, recover, and verify.  [limit] stride-samples the image
    list down to at most that many recoveries (for smoke runs); default
    checks every image.  [query_count] (default 20) rectangles are drawn
    deterministically from [query_seed]. *)
