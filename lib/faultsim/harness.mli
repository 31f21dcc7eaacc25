(** Crash-matrix driver: generate a workload trace over the {!Durable}
    engine on an in-memory filesystem, enumerate every distinct post-crash
    disk image of its journal with {!Explorer}, run real recovery on each,
    and check the recovered warehouse against bounds and a brute-force
    oracle.

    The invariants checked per image:

    - recovery completes without raising;
    - the recovered update count lies in
      [\[durable floor, issued ceiling\]] — at least everything an fsync
      or committed checkpoint made durable, at most everything the trace
      had issued by the crash point;
    - the recovered warehouse answers a fixed panel of range-temporal
      queries exactly like a {!Reference.Warehouse} oracle replaying the
      same update prefix;
    - recovery is idempotent: opening a second time on whatever the first
      recovery left behind lands on the identical state. *)

type update =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }

type trace = {
  prefix : string;  (** Path prefix the engine ran under (["w"]). *)
  max_key : int;
  max_t : int;  (** Exclusive bound on update times, for query bounds. *)
  sync_policy : Wal.sync_policy;
  checkpoint_every : int;
  store : Storage.Store_kind.t;
      (** Page store every recovery runs under (see {!with_image}). *)
  ops : Storage.Vfs.Memory.op array;  (** The journal, in program order. *)
  updates : update array;  (** The logical updates, in order. *)
  marks : (int * int) array;
      (** [(op_count, n_updates)] snapshot after each update completed —
          how journal positions map to logical progress. *)
}

val run_trace :
  ?sync_policy:Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?store:Storage.Store_kind.t ->
  ?seed:int ->
  ?updates:int ->
  max_key:int ->
  unit ->
  trace
(** Drive a seeded random insert/delete workload (about one delete per
    three updates) through a {!Durable} engine over
    {!Storage.Vfs.Memory}, recording the journal.  Deterministic in
    [seed].  Defaults: [Every_n 4] group commit, no automatic
    checkpoints, 120 updates, [Memory] page store for the recoveries.
    The trace itself always runs on the memory store, since nothing can
    map the journaled filesystem; neither store's working set reaches
    its files, so the crash images are the same under both — recovery
    must rebuild the working set from checkpoint + WAL on each. *)

val with_image :
  Storage.Store_kind.t ->
  prefix:string ->
  Explorer.image ->
  (Storage.Vfs.t -> string -> 'a) ->
  'a
(** [with_image store ~prefix img k] runs [k vfs path] over the crash
    image [img] as recovery under [store] reads it, [path] standing for
    the warehouse [prefix].  [Memory] opens the image in a fresh
    {!Storage.Vfs.Memory}.  [Mmap] maps the checkpoint it recovers
    from, so the image is written to a fresh temporary directory
    ({!Explorer.materialize}) and opened there through {!Storage.Vfs.os},
    its checkpoint mapped; the directory is removed once [k] returns. *)

val issued_ceiling : trace -> cut:int -> int
(** Updates that could possibly be recovered at [cut]: everything fully
    issued, plus the one in flight. *)

val durable_floor : trace -> cut:int -> int
(** Updates that {e must} be recovered at [cut]: the better of the last
    committed checkpoint and the last fsync-covered log prefix. *)

val queries : max_key:int -> max_t:int -> seed:int -> count:int -> (int * int * int * int) list
(** A deterministic panel of [(klo, khi, tlo, thi)] query rectangles. *)

val oracle_answers : trace -> (int * int * int * int) list -> int -> (int * int) list
(** [(sum, count)] per rectangle from a {!Reference.Warehouse} replaying
    the first [n] updates of the trace. *)

type violation = { cut : int; kind : Explorer.kind; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type report = {
  ops : int;  (** Journal length of the trace. *)
  distinct_images : int;  (** Distinct crash images enumerated. *)
  checked : int;  (** Images recovery actually ran on ([<=] distinct when [limit] sampled). *)
  violations : violation list;
}

val pp_report : Format.formatter -> report -> unit

val check : ?limit:int -> ?query_count:int -> ?query_seed:int -> trace -> report
(** Enumerate, recover, and verify.  [limit] stride-samples the image
    list down to at most that many recoveries (for smoke runs); default
    checks every image.  [query_count] (default 20) rectangles are drawn
    deterministically from [query_seed]. *)
