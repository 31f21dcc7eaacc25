(** The Multiversion SB-tree (MVSBT) — the paper's core contribution.

    The MVSBT is "a directed acyclic graph of disk-resident nodes that
    results from incremental insertions to an initially empty SB-tree"
    (section 4.1).  It supports two operations over the key-time plane:

    - {e insertion} [(k, t): v] — "add [v] to the values associated with
      all the points in the rectangle [\[k, maxkey\] × \[t, maxtime\]]",
      with [t] non-decreasing across calls (transaction time);
    - {e point query} [(k, t)] — "find the value associated with this
      point", for any past or present [t].

    Equivalently, [query k t] returns the dominance sum
    [Σ {v | insert (k', t'): v with k' <= k and t' <= t}], which is
    exactly what the LKST / LKLT indices of the problem reduction need.

    Structure: each SB-tree root covers a disjoint time interval
    (registered in {!Root_star}); pages hold records
    [<range, interval, value(, child)>] whose rectangles partition the
    page rectangle (Property 1).  A page that accumulates more than [b]
    records is {e time split} (alive records copied to a fresh page) and,
    if the copy exceeds the strong bound [f*b], {e key split}.

    Both insertion algorithms of the paper are implemented:

    - {!variant} [Logical] — the "aggregation in a page" optimisation of
      section 4.2.1: at most one record per page is physically split;
      record values are deltas, and a query at [(k, t)] sums {e every}
      alive record with [low <= k] along the path (Appendix A).
    - {!variant} [Plain] — the unoptimised section-4.1 algorithm: every
      fully-covered record is split on insertion ([Θ(b)] work per page);
      values are absolute and a query sums only the records containing
      the point.

    The record-merging (4.2.2) and page-disposal (4.2.3) optimisations are
    independent switches. *)

exception Below_horizon of { at : int; horizon : int }
(** A query asked about a time below the retention horizon: the versions
    that would answer it have been (or are being) vacuumed away, so the
    engine refuses instead of silently returning a wrong sum. *)

exception Malformed_frame of { page : int; detail : string }
(** A stored page whose bytes its layout ({!Make.Record_codec}) cannot
    read: a header that disagrees with the frame's length, or a record
    whose rank runs past its dictionary.  Every frame is CRC-checked
    before it is read, and every open checks each page's header and
    dictionaries, so only a frame built outside the program, its CRC
    intact, raises it; [page] is the id the frame names. *)

type variant =
  | Plain  (** Section 4.1: split all fully-covered records. *)
  | Logical  (** Section 4.2.1: logical splitting (the default). *)

type config = {
  b : int;  (** Page capacity in records. *)
  f : float;  (** Strong factor in (0, 1]: at most [f*b] records survive a time split. *)
  variant : variant;
  merging : bool;  (** Record merging (time merge + key merge), section 4.2.2. *)
  disposal : bool;  (** Page disposal of empty-lifetime pages, section 4.2.3. *)
  root_star_btree : bool;
      (** Keep [root*] in a disk-based B+-tree instead of a main-memory
          array (section 4.4 discusses both). *)
}

val default_config : b:int -> config
(** [f = 0.9] (the paper's experimental setting), [Logical] variant,
    merging and disposal on, main-memory [root*]. *)

val snapshot_magic : string
(** The magic of {!Make.save} snapshots: the file is this magic, then
    {!Storage.Frame}s. *)

(** Binary codec for aggregate values: the on-disk form of a value in
    every stored page and snapshot.  A value is a fixed number of integer
    words; each word is a column of the page ({!Make.Record_codec}),
    stored relative to the page's least word in that column, in the
    fewest bytes that hold them all. *)
module type VALUE_CODEC = sig
  type t

  val words : int
  (** The number of words one value encodes to. *)

  val encode : (int -> unit) -> t -> unit
  (** [encode put v] passes [v]'s [words] words to [put], in order. *)

  val decode : (unit -> int) -> t
  (** [decode next] rebuilds a value from [words] calls to [next], which
      return the words {!encode} produced, in the same order. *)
end

(** An MVSBT over {!Storage.Page_store.Mmap}, behind a pinning buffer
    pool: its frames in mapped files or in RAM.  A page is read from the
    snapshot the tree was opened or last rebased on (mapped read-only, or
    a RAM image of its frames), unless it was written since: then a page
    that can still change is in a RAM slot, wide, where {!insert} and
    vacuum edit it in place, and a closed one is in the overlay, a log of
    the frames sealed since, each narrowed once when its page closed and
    taking the bytes it narrows to.  No page is ever held in the heap.
    Every page is laid out by {!Record_codec}: each page's records one
    size, each field in the bytes that page needs.  A {!query} scans each
    page on its path in place, in one pass over the records, and decodes
    nothing.  The layout is the one {!save} writes to snapshots.  The pool keeps the current root
    pinned, moving the pin when the tree moves its root.  The overlay is
    a cache of this handle's pages: nothing reads it back after
    {!close}, and a tree is made durable by {!save_staged} and the rebase
    it returns. *)
module Make (G : Aggregate.Group.S) (V : VALUE_CODEC with type t = G.t) : sig
  type t

  val create :
    ?config:config ->
    ?pool_capacity:int ->
    ?policy:Storage.Evict.policy ->
    ?stats:Storage.Io_stats.t ->
    ?backing:[ `Auto | `Map | `Buffered ] ->
    ?path:string ->
    key_space:int ->
    unit ->
    t
  (** An empty MVSBT over the key domain [\[0, key_space)].  [config]
      defaults to [default_config ~b:64]; [pool_capacity] sizes the buffer
      pool (default 64 pages, the paper's default), and [policy] picks its
      eviction (default {!Storage.Evict.Lru}, the paper's).  Its overlay is
      an {!Storage.Arena}: with a [path], created (truncating) there,
      [backing] (default [`Auto]) picking the flavour — see
      {!Storage.Arena.create}; a mapped overlay goes with mapped bases,
      which are read through the OS, not through a {!Storage.Vfs.t}.
      Without a [path] the overlay is RAM and no file is touched.  A
      page's frame may take up to the largest payload of [b] records
      ({!Record_codec.max_payload}: every field 8 bytes wide) plus the
      per-page integrity frame, the rule {!of_snapshot} sizes its pages by
      too; each takes the bytes it encodes to.
      @raise Invalid_argument on a configuration no tree can have, or
      [`Map] without a [path]. *)

  val of_snapshot :
    ?pool_capacity:int ->
    ?stats:Storage.Io_stats.t ->
    ?vfs:Storage.Vfs.t ->
    ?backing:[ `Auto | `Map | `Buffered ] ->
    ?path:string ->
    snapshot:string ->
    unit ->
    t
  (** A tree whose base is the {!save}d snapshot [snapshot], with an
      empty overlay, at [path] or in RAM, as {!create} makes it.  The
      snapshot is read once through [vfs] (default {!Storage.Vfs.os}),
      through one reused buffer, and every chunk is verified: its CRC;
      the state's configuration, by {!create}'s rules and a [b] whose
      largest payload fits a chunk, before any store is made; each page
      chunk's structure (a record count within [b], widths of at most 8,
      dictionaries that ascend strictly, dictionaries, records and zero
      padding that fill the chunk, an empty child column at a leaf,
      children that are page ids); and its page id, which must be
      non-negative and not repeat.  The current root must be one of the
      pages.  A page chunk is byte for byte the page's {!Record_codec}
      frame, so nothing is decoded and no page is written: the base
      records each frame's offset, and then maps the file read-only, or,
      under [`Buffered], without a [path] or where mapping fails, keeps a
      RAM image of the frames copied as they streamed past
      ({!Storage.Page_store.Mmap.stage}); then no file but [snapshot] is
      touched.  A page read later is CRC-checked again, so a byte of the
      snapshot that rots after the open fails the reads that reach it.
      A page's room follows the snapshot's config (see {!create}).  A
      loaded tree is a served one: its pool runs clock eviction
      ({!Storage.Evict.Second_chance}).
      @raise Storage.Storage_error.Io with [Checksum_mismatch] on a chunk
      that fails its CRC.
      @raise Failure on a malformed, truncated or overlong snapshot, a
      corrupt state chunk, or a page id that is negative or repeats. *)

  (** {2 Snapshot persistence}

      A snapshot is the whole page graph (every page with its original
      id, the [root*] directory, and the configuration) in a file of
      {!Storage.Frame}s.  Each page is one frame, exactly the frame
      the tree stores, so a save copies its pages' stored frames out, and
      {!of_snapshot} — the one way back in — reads them in place, without
      widening any. *)

  val save : ?vfs:Storage.Vfs.t -> t -> path:string -> unit
  (** Write a snapshot.  The index remains usable.  The pages root*
      reaches come first, in the reverse of a preorder walk that reads
      only index pages' child columns and holds only ids, then, ascending,
      any it does not reach, so a load holds every page {!page_count}
      counts.  The frames are copied as stored (one charged read each,
      CRC-checked), and the pages in slots are narrowed.
      @raise Storage.Page_store.Corrupt_page if a stored page fails its
      checksum. *)

  val save_staged : ?vfs:Storage.Vfs.t -> t -> path:string -> unit -> unit
  (** {!save}, returning the rebase: the step that moves the tree onto
      the file just written — its base becomes that file, which holds
      every page the tree held, its overlay is emptied, and the previous
      base is released.  Run it only once
      the file is durable; it reads nothing, since each frame's offset was
      recorded as it was written (and, for a RAM base, the frame copied).
      @raise Storage.Arena.Unavailable from the rebase if the file cannot
      be mapped; the tree then stays on its previous base and overlay,
      which still hold every page. *)

  val config : t -> config
  val key_space : t -> int
  val stats : t -> Storage.Io_stats.t

  val now : t -> int
  (** Largest insertion time seen so far (0 initially). *)

  val horizon : t -> int
  (** Retention horizon (0 initially): queries at times below it raise
      {!Below_horizon}; versions below it are fair game for vacuum. *)

  val insert : t -> key:int -> at:int -> G.t -> unit
  (** Add [v] to every point of [\[key, key_space) × \[at, infinity)].
      @raise Invalid_argument if [key] is outside [\[0, key_space)] or
      [at] precedes an earlier insertion (transaction time is monotone). *)

  val query : t -> key:int -> at:int -> G.t
  (** The value at point [(key, at)] — for any [at >= 0], including times
      in the future of {!now} (which see the current state).
      @raise Invalid_argument if [key] is outside the key domain.
      @raise Below_horizon if [at] is below the retention {!horizon}. *)

  (** {2 Vacuum (retention)}

      Partial persistence makes retention structurally simple: a page
      whose lifetime ended at or below the horizon is invisible to every
      query the engine still answers, and so is a record whose interval
      ended there.  Vacuum therefore {e frees} dead pages outright and
      {e prunes} dead records in place — no page copying, no parent
      rewrites, and pruning can never orphan a still-visible page.

      The three primitives below are deliberately split so a WAL layer
      can log the planned actions before applying them ({!Rta.vacuum} /
      [Durable.vacuum] do exactly that); each applier is idempotent and
      tolerant of already-done work, which is what makes crash-replay
      sound. *)

  val set_horizon : t -> int -> unit
  (** Raise the retention horizon (also prunes [root*] tenures that end
      at or below it).  A horizon past {!now} is accepted — alive records
      survive any horizon — it just refuses more queries.  Monotone:
      @raise Invalid_argument if the horizon would move backwards. *)

  type vacuum_action =
    | Free_page  (** The page's whole lifetime is below the horizon. *)
    | Prune_records  (** Alive page holding records dead below the horizon. *)

  val vacuum_scan : t -> (Storage.Page_id.t * vacuum_action) list
  (** Deterministic plan (ascending by page id) of everything the current
      horizon allows reclaiming.  Scans the whole store, not just the
      reachable graph, so dead pages stranded by an earlier crash are
      still found. *)

  val vacuum_free : t -> Storage.Page_id.t -> bool
  (** Free one dead page; [false] if it is already gone.  Counted in
      [Io_stats.pages_reclaimed]. *)

  val vacuum_prune : t -> Storage.Page_id.t -> int
  (** Drop records dead below the horizon from one page, in place.
      Returns the number of records dropped (0 if the page is gone or
      already clean). *)

  val page_count : t -> int
  (** Live pages — the space metric of figure 4a. *)

  val overlay_bytes : t -> int
  (** Bytes the overlay holds: the frames of the pages sealed since the
      last rebase, dead ones included. *)

  val record_count : t -> int
  (** Total records over all pages (occupied slots).  Full scan. *)

  val height : t -> int
  (** Height of the current (latest) SB-tree. *)

  val root_count : t -> int
  (** Number of SB-tree roots in the graph. *)

  val page_touches : t -> int
  (** Cumulative logical page accesses (reads and writes through the
      tree, cache hits included) — the quantity the paper's
      [O(log_b K)] / [O(log_b n)] per-operation bounds count.  Snapshot
      it around an operation and difference to get that operation's page
      touches; {!Telemetry.Bound_check} consumes exactly that. *)

  val telemetry : t -> Telemetry.Tracer.t

  val set_telemetry : t -> Telemetry.Tracer.t -> unit
  (** Attach a tracer (default {!Telemetry.Tracer.noop}): {!insert} and
      {!query} emit [mvsbt.insert]/[mvsbt.query] spans, and structural
      changes emit
      [mvsbt.time_split]/[mvsbt.key_split]/[mvsbt.root_grow] events. *)

  val drop_cache : t -> unit
  (** Flush and empty the buffer pool (cold-cache measurements). *)

  val close : t -> unit
  (** Release the tree's overlay (its descriptor and mapping, or its RAM
      chunks) and its base (the checkpoint's mapping, or its RAM image).
      The handle must not be used afterwards. *)

  val check_invariants : t -> unit
  (** Structural validation over the whole graph: Property 1 (alive
      records partition the page rectangle at every instant of its
      lifetime), page capacity, strong condition at page creation,
      parent/child range and level agreement, and root tenure coverage.
      @raise Failure on the first violation. *)

  val pp_dot : Format.formatter -> t -> unit
  (** Graphviz rendering of the page graph, for debugging and docs. *)

  (** {2 The page layout}

      The one byte layout of every page, stored, sealed or still
      changing, and of every snapshot page chunk.  Exposed for the
      layout's tests; a tree's pages are reached only through its
      operations. *)

  (** A page's payload: a header, two dictionaries, then the records in
      columns.  The header keeps the page's id (i64), level (i32), key
      range (two i64), created and closed times (i64 each) and record
      count (i32) in its first 48 bytes; then the sizes of the key and
      the time dictionary (i32 each) and their entry widths (a byte
      each); then one width byte, 0 to 8, per column, and an i64 base per
      value word and for the child.  The key dictionary holds the page's
      key boundaries (every record's low and high key) less its low key,
      the time dictionary its instants (every start and end but
      [max_int]) less its created time, each ascending, each entry once.
      The records follow, each the sum of the widths long, then 7 zero
      bytes.  The columns are a record's low key, high key, start and
      end, as ranks into the dictionaries (a time rank equal to the time
      dictionary's size is [max_int], alive); each value word, and the
      child, less its column's base.  A leaf's child column is empty
      (width 0, base -1: no page).  Every field is at one offset in each
      record, so a scan reads it with one unaligned 64-bit load and a
      mask.  Ranks order as the keys and times they stand for: a scan
      ranks its point in each dictionary once, by bisection, and tests
      each record on its ranks without decoding a key or a time.  The
      zero bytes at the end keep every load inside the payload.

      A page comes in two widths, which scan alike.  A page that can
      still change is {e wide}, in a slot of {!max_payload} bytes where
      its writer edits it in place: each dictionary entry, value word and
      child 8 bytes, every base 0, each rank in the bytes of [2 b].  A
      page is {e narrowed} when it seals, and when a checkpoint copies
      it: each dictionary entry and column then takes the fewest bytes
      that hold all of its codes (at [b] = 64 a rank takes one byte),
      each value word and child relative to the page's least.  A writer
      {e widens} a stored page back into a slot. *)
  module Record_codec : sig
    val header_bytes : int

    val widths_at : int
    (** The offset of the width bytes: low key, high key, start, end,
        each value word, child. *)

    val max_payload : b:int -> int
    (** The largest payload of a page of at most [b] records, a wide
        one: [2 b] entries in each dictionary, each entry, value word and
        child 8 bytes wide, each rank in the bytes that hold [2 b]. *)

    val init :
      Storage.Zcodec.buf -> int -> b:int -> id:int -> level:int -> low:int -> high:int ->
      created:int -> unit
    (** [init buf off ~b ~id ~level ~low ~high ~created] lays out at [off]
        the wide page [id], of no records, alive, for up to [b] records
        over the keys [low, high).
        @raise Invalid_argument on a negative level or [high < low]. *)

    val append :
      Storage.Zcodec.buf -> int -> lo:int -> hi:int -> start:int -> stop:int -> G.t ->
      child:int -> unit
    (** Add a record after the wide page's last, its keys and instants
        entered in the dictionaries in their places; [child] is [-1] at a
        leaf.  The page must have room for it: at most [b] records, and
        [2 b] keys and instants.
        @raise Invalid_argument on a record no tree makes: a key below
        the page's, [hi < lo], a time before the page was created (but
        [max_int]), or a child the level contradicts. *)

    val close : Storage.Zcodec.buf -> int -> int -> unit
    (** [close buf off t] ends the page's lifetime at [t]: it seals. *)

    val length : Storage.Zcodec.buf -> int -> int
    (** The length of the payload at an offset, from its header. *)

    val narrow : Storage.Zcodec.buf -> int -> Storage.Zcodec.buf -> int -> int
    (** [narrow src off dst doff] writes the wide page at [off] of [src]
        into [dst] from [doff] as it seals, each dictionary and column in
        the fewest bytes, and returns its length: the same bytes for the
        same records, in order, whatever edits made them.
        @raise Invalid_argument if it does not fit [dst]. *)

    val widen :
      b:int -> Storage.Zcodec.buf -> int -> int -> Storage.Zcodec.buf -> int -> unit
    (** [widen ~b buf off len dst doff] lays out at [doff] the wide form,
        for up to [b] records, of the [len]-byte payload at [off].
        @raise Malformed_frame if its header and length disagree, it
        holds more than [b] records' entries, or a record's rank runs
        past its dictionary. *)

    val point : logical:bool -> key:int -> at:int -> Storage.Zcodec.buf * int * int -> G.t * int
    (** One page's share of a point query, by a pass over the payload in
        place, of either width, as {!query} runs it: the sum of the
        values it adds (every record alive at [at] whose low key is at or
        below [key] when [logical], else only the one containing the
        point), and the child of the record containing the point — its
        page id, [-1] at a leaf, [-2] if no record contains it.  The pass
        allocates only the values it adds; [point] adds its result pair.
        @raise Malformed_frame if the header and length disagree. *)
  end
end
