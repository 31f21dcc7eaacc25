(** One fault-scenario engine: a script of engine steps, the faults it
    runs under, and one check of what an engine recovers.

    A script is drawn by a pure simulation ({!script}), so every run of
    it issues the same steps.  Two dimensions run a script under faults:

    - the {e crash} dimension ({!crash}) records the script's journal on
      {!Storage.Vfs.Memory} and recovers every post-crash disk image
      {!Explorer} enumerates;
    - the {e errno} dimension ({!errno}) replays the script once per
      (errno class, syscall index), with {!Storage.Vfs.Inject} failing
      exactly that syscall, then heals the disk and recovers.

    Both end in {!check_recovered}, the contract of a recovered
    warehouse: its record count lies in [\[floor, ceiling\]], its
    retention horizon is exactly what the recovered WAL prefix says,
    {!Rta.check_invariants} holds, and a panel of range-temporal queries
    answers exactly as a {!Reference.Warehouse} oracle over that prefix
    above the horizon and is refused with [Below_horizon] below it.
    {!Failover} runs the same check on its promoted node and on every
    crash image of its deposed leader. *)

(** {2 Scripts} *)

type step =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }
  | Checkpoint
  | Vacuum of { horizon : int }
      (** In 4-page chunks, so one vacuum spreads over many WAL records. *)

type preset = [ `Crash | `Vacuum | `Errsweep | `Replica ]

val presets : (string * preset) list
(** Each preset by its command-line name. *)

type script = {
  steps : step array;
  max_key : int;
  max_t : int;  (** Exclusive bound on step times, for the query panel. *)
}

val script : preset -> seed:int -> updates:int -> max_key:int -> script
(** [updates] inserts and deletes over [max_key] keys (about one delete
    in three), deterministic in [seed]; no engine runs.  A preset shapes
    the script: [`Vacuum] vacuums to [now/2] after 3/5 of the updates and
    to [2 now/3] at the end, [`Errsweep] checkpoints after half of them,
    and [`Crash] and [`Replica] are updates only.  [`Vacuum] draws from
    its own stream, so each preset keeps the script its matrix always
    ran. *)

val apply : Durable.t -> step -> (unit, Storage.Storage_error.t) result
(** Run one step on an engine. *)

val counted :
  step -> (unit, Storage.Storage_error.t) result -> moved:int -> step list * string option
(** [counted step r ~moved]: the steps an {!oracle} log holds for a
    step that answered [r] and moved the engine's record count by
    [moved], one per WAL record: an update once if it answered [Ok] and
    not at all if it answered an error, a checkpoint not at all, a
    vacuum once per record it logged.  An update counts by its answer,
    not by [moved], so an engine that acknowledges an update it never
    logged falls short of the oracle.  The second element says what is
    wrong when [moved] disagrees with the answer: an acknowledged update
    moves the count by one, a refused update or a checkpoint not at
    all. *)

(** {2 The check} *)

val rectangles :
  max_key:int -> max_t:int -> seed:int -> count:int -> (int * int * int * int) list
(** [count] query rectangles [(klo, khi, tlo, thi)], non-empty and
    inside [\[0, max_key) x \[0, max_t)], deterministic in [seed]. *)

type oracle
(** What a recovery that finds the first [n] records of a WAL must
    show, for every [n]. *)

val oracle : script -> step array -> oracle
(** [oracle script log] over a WAL holding one record per element of
    [log]: each acknowledged update, and a vacuum once for each record it
    logged.  Its panel is the 20 {!rectangles} of seed 42 over the
    script's keys and times. *)

val check : oracle -> floor:int -> ceiling:int -> Durable.t -> string list
(** The violations of the contract above by an open engine, whose WAL
    record count ({!Rta.n_updates}) must lie in [\[floor, ceiling\]];
    never raises. *)

val check_recovered : oracle -> floor:int -> ceiling:int -> (unit -> Durable.t) -> string list
(** {!check} over the engine the function opens, closed whatever
    happens; an exception from the open is a violation. *)

(** {2 Reports} *)

type violation = { at : string; reason : string }
(** [at] names the fault: a crash cut, an errno point, a leader kill. *)

type report = { counts : (string * int) list; violations : violation list }

val count : report -> string -> int
(** The count of that label. @raise Not_found *)

val pp_report : Format.formatter -> report -> unit
(** Each count as [label N], the number of violations, then the first 20
    violations one a line. *)

val sample : ?limit:int -> 'a list -> 'a list
(** At most [limit] elements, stride-sampled; all of them without. *)

(** {2 The crash dimension} *)

type journal = {
  script : script;
  sync_policy : Wal.sync_policy;
  checkpoint_every : int;
  ops : Storage.Vfs.Memory.op array;  (** The journal, in program order. *)
  marks : (int * int) array;  (** [(op count, WAL records)] after each step. *)
  log : step array;
      (** One step per WAL record, in order: each acknowledged update,
          and each vacuum once per record it logged. *)
  recording : violation list;
      (** Steps whose answer disagrees with how far they moved the
          engine's record count, at ["recording, step i"]. *)
}

val record : ?sync_policy:Wal.sync_policy -> ?checkpoint_every:int -> script -> journal
(** Run the script through a {!Durable} engine over
    {!Storage.Vfs.Memory} at prefix ["w"] and record its journal.  A
    step whose record count disagrees with its answer ({!counted}) is a
    [recording] violation.  Defaults: [Every_n 4] group commit, no
    automatic checkpoints.  It runs on the memory store, since nothing
    can map the journaled filesystem; neither store's working set
    reaches its files, so the crash images are the same under both. *)

val floors : journal -> int array
(** Per cut: the WAL records recovery {e must} find, the better of the
    last committed checkpoint and the last fsync-covered log prefix. *)

val ceiling : journal -> cut:int -> int
(** The WAL records recovery may find at [cut]: everything issued,
    plus the step in flight. *)

val with_image :
  Storage.Store_kind.t -> prefix:string -> Explorer.image -> (Storage.Vfs.t -> string -> 'a) -> 'a
(** [with_image store ~prefix img k] runs [k vfs path] over the crash
    image as recovery under [store] reads it, [path] standing for the
    warehouse [prefix].  [Memory] opens it in a fresh
    {!Storage.Vfs.Memory}.  [Mmap] maps the checkpoint it recovers from,
    so the image is written to a fresh temporary directory
    ({!Explorer.materialize}) and opened there through
    {!Storage.Vfs.os}; the directory is removed once [k] returns. *)

val crash : ?limit:int -> ?store:Storage.Store_kind.t -> journal -> report
(** Recover every distinct crash image of the journal (or a [limit]
    stride sample) under [store] (default [Memory]).  On each: the
    check, floor and ceiling from the journal; a second recovery,
    which must show the same records, horizon and answers; then two
    vacuums to [max horizon (2 now/3)], the second of which must free
    and drop nothing, after which invariants and panel hold again.
    The journal's [recording] violations come first.  Counts: [journal
    ops], [crash images], [checked]. *)

(** {2 The errno dimension} *)

val errno :
  ?classes:Storage.Vfs.Inject.err_class list ->
  ?limit:int ->
  ?sync_policy:Wal.sync_policy ->
  ?checkpoint_every:int ->
  script ->
  report
(** Replay the script on a fresh engine once per errno class in
    [classes] (default all four) and syscall index [k = 1..N], [N] the
    fault-free run's syscall count, or over [limit] evenly spaced [k]
    per class.  [ENOSPC] stays armed once it fires (a full disk stays
    full); the other classes fire once.  Each run requires: failures
    surface only as typed errors; every step's record count agrees with
    its answer ({!counted}); answers equal the oracle over exactly the
    acknowledged updates and the records of the vacuums; a surfaced
    [ENOSPC] update error leaves the engine [Read_only], which refuses a
    probe update with [Read_only_store] and keeps answering; a fault
    that fired surfaced or was retried; and, healed, {!check_recovered}
    with floor and ceiling those records.  A step whose key an earlier
    refused update left dead or alive is skipped.  Defaults: [Every_n 4]
    group commit, no automatic checkpoints.  Counts: [syscalls],
    [fault points], [fired], [surfaced], [healed], [read-only]. *)
