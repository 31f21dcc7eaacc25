type snapshot = {
  reads : int;
  writes : int;
  allocs : int;
  frees : int;
  syncs : int;
  crc_failures : int;
  scrubbed : int;
  repaired : int;
  errors_injected : int;
  retries : int;
  read_only_transitions : int;
  pages_reclaimed : int;
  vacuum_steps : int;
  mapped_reads : int;
  mapped_writes : int;
  msyncs : int;
  readaheads : int;
}

(* Atomic fields: one [t] may be charged from several domains at once
   (the sharded cluster hands each shard engine its own counters, but
   tracers and shared pools can still cross domains), and a plain
   [mutable int] increment is a read-modify-write that silently loses
   updates under that interleaving. *)
type t = {
  n_reads : int Atomic.t;
  n_writes : int Atomic.t;
  n_allocs : int Atomic.t;
  n_frees : int Atomic.t;
  n_syncs : int Atomic.t;
  n_crc_failures : int Atomic.t;
  n_scrubbed : int Atomic.t;
  n_repaired : int Atomic.t;
  n_errors_injected : int Atomic.t;
  n_retries : int Atomic.t;
  n_read_only_transitions : int Atomic.t;
  n_pages_reclaimed : int Atomic.t;
  n_vacuum_steps : int Atomic.t;
  n_mapped_reads : int Atomic.t;
  n_mapped_writes : int Atomic.t;
  n_msyncs : int Atomic.t;
  n_readaheads : int Atomic.t;
}

let create () =
  {
    n_reads = Atomic.make 0;
    n_writes = Atomic.make 0;
    n_allocs = Atomic.make 0;
    n_frees = Atomic.make 0;
    n_syncs = Atomic.make 0;
    n_crc_failures = Atomic.make 0;
    n_scrubbed = Atomic.make 0;
    n_repaired = Atomic.make 0;
    n_errors_injected = Atomic.make 0;
    n_retries = Atomic.make 0;
    n_read_only_transitions = Atomic.make 0;
    n_pages_reclaimed = Atomic.make 0;
    n_vacuum_steps = Atomic.make 0;
    n_mapped_reads = Atomic.make 0;
    n_mapped_writes = Atomic.make 0;
    n_msyncs = Atomic.make 0;
    n_readaheads = Atomic.make 0;
  }

let reads t = Atomic.get t.n_reads
let writes t = Atomic.get t.n_writes
let allocs t = Atomic.get t.n_allocs
let frees t = Atomic.get t.n_frees
let syncs t = Atomic.get t.n_syncs
let crc_failures t = Atomic.get t.n_crc_failures
let scrubbed t = Atomic.get t.n_scrubbed
let repaired t = Atomic.get t.n_repaired
let errors_injected t = Atomic.get t.n_errors_injected
let retries t = Atomic.get t.n_retries
let read_only_transitions t = Atomic.get t.n_read_only_transitions
let pages_reclaimed t = Atomic.get t.n_pages_reclaimed
let vacuum_steps t = Atomic.get t.n_vacuum_steps
let mapped_reads t = Atomic.get t.n_mapped_reads
let mapped_writes t = Atomic.get t.n_mapped_writes
let msyncs t = Atomic.get t.n_msyncs
let readaheads t = Atomic.get t.n_readaheads

(* Frees are page disposals, charged as I/Os like reads and writes; see
   the .mli preamble for the I/O-versus-event classification. *)
let total_io t = reads t + writes t + frees t
let record_read t = Atomic.incr t.n_reads
let record_write t = Atomic.incr t.n_writes
let record_alloc t = Atomic.incr t.n_allocs
let record_free t = Atomic.incr t.n_frees
let record_sync t = Atomic.incr t.n_syncs
let record_crc_failure t = Atomic.incr t.n_crc_failures
let record_scrubbed t = Atomic.incr t.n_scrubbed
let record_repaired t = Atomic.incr t.n_repaired
let record_error_injected t = Atomic.incr t.n_errors_injected
let record_retry t = Atomic.incr t.n_retries
let record_read_only_transition t = Atomic.incr t.n_read_only_transitions
let record_pages_reclaimed t n = if n <> 0 then ignore (Atomic.fetch_and_add t.n_pages_reclaimed n)
let record_vacuum_step t = Atomic.incr t.n_vacuum_steps
let record_mapped_read t = Atomic.incr t.n_mapped_reads
let record_mapped_write t = Atomic.incr t.n_mapped_writes
let record_readaheads t n = if n <> 0 then ignore (Atomic.fetch_and_add t.n_readaheads n)

let reset t =
  Atomic.set t.n_reads 0;
  Atomic.set t.n_writes 0;
  Atomic.set t.n_allocs 0;
  Atomic.set t.n_frees 0;
  Atomic.set t.n_syncs 0;
  Atomic.set t.n_crc_failures 0;
  Atomic.set t.n_scrubbed 0;
  Atomic.set t.n_repaired 0;
  Atomic.set t.n_errors_injected 0;
  Atomic.set t.n_retries 0;
  Atomic.set t.n_read_only_transitions 0;
  Atomic.set t.n_pages_reclaimed 0;
  Atomic.set t.n_vacuum_steps 0;
  Atomic.set t.n_mapped_reads 0;
  Atomic.set t.n_mapped_writes 0;
  Atomic.set t.n_msyncs 0;
  Atomic.set t.n_readaheads 0

let snapshot t : snapshot =
  {
    reads = reads t;
    writes = writes t;
    allocs = allocs t;
    frees = frees t;
    syncs = syncs t;
    crc_failures = crc_failures t;
    scrubbed = scrubbed t;
    repaired = repaired t;
    errors_injected = errors_injected t;
    retries = retries t;
    read_only_transitions = read_only_transitions t;
    pages_reclaimed = pages_reclaimed t;
    vacuum_steps = vacuum_steps t;
    mapped_reads = mapped_reads t;
    mapped_writes = mapped_writes t;
    msyncs = msyncs t;
    readaheads = readaheads t;
  }

(* [add] and [diff] share this combinator so a counter added to the
   snapshot record cannot end up summed by one and forgotten by the
   other: both stay total, and [diff (add a b) b = a]. *)
let map2 f (a : snapshot) (b : snapshot) : snapshot =
  {
    reads = f a.reads b.reads;
    writes = f a.writes b.writes;
    allocs = f a.allocs b.allocs;
    frees = f a.frees b.frees;
    syncs = f a.syncs b.syncs;
    crc_failures = f a.crc_failures b.crc_failures;
    scrubbed = f a.scrubbed b.scrubbed;
    repaired = f a.repaired b.repaired;
    errors_injected = f a.errors_injected b.errors_injected;
    retries = f a.retries b.retries;
    read_only_transitions = f a.read_only_transitions b.read_only_transitions;
    pages_reclaimed = f a.pages_reclaimed b.pages_reclaimed;
    vacuum_steps = f a.vacuum_steps b.vacuum_steps;
    mapped_reads = f a.mapped_reads b.mapped_reads;
    mapped_writes = f a.mapped_writes b.mapped_writes;
    msyncs = f a.msyncs b.msyncs;
    readaheads = f a.readaheads b.readaheads;
  }

let add = map2 ( + )
let diff = map2 ( - )

let zero =
  {
    reads = 0;
    writes = 0;
    allocs = 0;
    frees = 0;
    syncs = 0;
    crc_failures = 0;
    scrubbed = 0;
    repaired = 0;
    errors_injected = 0;
    retries = 0;
    read_only_transitions = 0;
    pages_reclaimed = 0;
    vacuum_steps = 0;
    mapped_reads = 0;
    mapped_writes = 0;
    msyncs = 0;
    readaheads = 0;
  }

let merge = List.fold_left add zero

let absorb t (s : snapshot) =
  let bump a by = if by <> 0 then ignore (Atomic.fetch_and_add a by) in
  bump t.n_reads s.reads;
  bump t.n_writes s.writes;
  bump t.n_allocs s.allocs;
  bump t.n_frees s.frees;
  bump t.n_syncs s.syncs;
  bump t.n_crc_failures s.crc_failures;
  bump t.n_scrubbed s.scrubbed;
  bump t.n_repaired s.repaired;
  bump t.n_errors_injected s.errors_injected;
  bump t.n_retries s.retries;
  bump t.n_read_only_transitions s.read_only_transitions;
  bump t.n_pages_reclaimed s.pages_reclaimed;
  bump t.n_vacuum_steps s.vacuum_steps;
  bump t.n_mapped_reads s.mapped_reads;
  bump t.n_mapped_writes s.mapped_writes;
  bump t.n_msyncs s.msyncs;
  bump t.n_readaheads s.readaheads

let snapshot_total_io (s : snapshot) = s.reads + s.writes + s.frees

(* The integrity and robustness counters are zero on most runs; keep the
   common output stable and append them only when something happened. *)
let pp_integrity ppf ~crc ~scrubbed ~repaired =
  if crc > 0 || scrubbed > 0 || repaired > 0 then
    Format.fprintf ppf " crc_failures=%d scrubbed=%d repaired=%d" crc scrubbed repaired

let pp_vacuum ppf ~reclaimed ~steps =
  if reclaimed > 0 || steps > 0 then
    Format.fprintf ppf " pages_reclaimed=%d vacuum_steps=%d" reclaimed steps

let pp_robustness ppf ~injected ~retries ~ro =
  if injected > 0 || retries > 0 || ro > 0 then
    Format.fprintf ppf " errors_injected=%d retries=%d read_only_transitions=%d"
      injected retries ro

let pp_mapped ppf ~mreads ~mwrites ~msyncs ~readaheads =
  if mreads > 0 || mwrites > 0 || msyncs > 0 || readaheads > 0 then
    Format.fprintf ppf " mapped_reads=%d mapped_writes=%d msyncs=%d readaheads=%d" mreads
      mwrites msyncs readaheads

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf "reads=%d writes=%d allocs=%d frees=%d syncs=%d%a%a" s.reads s.writes
    s.allocs s.frees s.syncs
    (fun ppf () ->
      pp_integrity ppf ~crc:s.crc_failures ~scrubbed:s.scrubbed ~repaired:s.repaired)
    ()
    (fun ppf () ->
      pp_robustness ppf ~injected:s.errors_injected ~retries:s.retries
        ~ro:s.read_only_transitions)
    ();
  pp_vacuum ppf ~reclaimed:s.pages_reclaimed ~steps:s.vacuum_steps;
  pp_mapped ppf ~mreads:s.mapped_reads ~mwrites:s.mapped_writes ~msyncs:s.msyncs
    ~readaheads:s.readaheads

let pp ppf t = pp_snapshot ppf (snapshot t)
