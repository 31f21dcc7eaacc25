(** Write-back buffer pool with pinning over a page store.

    The paper's experiments use "LRU buffering and the default buffer size
    is 64 pages" (section 5) and sweep the buffer size in figure 4c.  The
    pool caches page payloads; a read miss costs one physical read, and
    evicting or flushing a dirty page costs one physical write — both
    charged to the underlying store's {!Io_stats}.  Cache hits are free,
    exactly like a real buffer manager.

    Replacement is pluggable ({!Evict.policy}): exact LRU — the paper's
    setting and the default — or second-chance (clock), the cheaper
    approximation a mapped store pairs with.  Pages can be {!pin}ned
    against eviction while a caller holds a reference into them;
    a pin is an {e intent} that survives {!drop_cache} and re-applies
    itself when the page faults back in. *)

module Make (Store : Page_store.S) : sig
  type t

  val create : ?capacity:int -> ?policy:Evict.policy -> Store.t -> t
  (** [capacity] defaults to 64 pages, the paper's default; [policy] to
      {!Evict.Lru}. *)

  val store : t -> Store.t
  val capacity : t -> int
  val policy : t -> Evict.policy

  val stats : t -> Io_stats.t
  (** Physical I/O counters of the underlying store. *)

  val hits : t -> int
  val misses : t -> int

  val touches : t -> int
  (** Logical page accesses ({!read} + {!write}), independent of whether
      they hit the cache — the per-operation quantity the paper's
      [O(log_b n)] bounds speak about, and what the telemetry bound
      checker profiles. *)

  val pinned : t -> int
  (** Resident pages currently pinned. *)

  val alloc : t -> Page_id.t
  (** Allocate a page id from the store.  The caller must {!write} a
      payload before reading it back. *)

  val read : t -> Page_id.t -> Store.payload
  (** Cached read.  On a miss the payload is fetched from the store (one
      physical read) and cached, possibly evicting an unpinned page.
      @raise Not_found if the page does not exist. *)

  val write : t -> Page_id.t -> Store.payload -> unit
  (** Install a payload in the cache and mark it dirty.  No physical write
      happens until eviction or {!flush}. *)

  val mark_dirty : t -> Page_id.t -> unit
  (** Mark an already-cached page dirty after mutating its payload in
      place.  No-op if the page is not cached (the caller must then use
      {!write}). *)

  val mem : t -> Page_id.t -> bool
  (** Whether the page exists, in the cache {e or} the store.  A dirty
      page that has never been evicted lives only in the cache, so
      existence checks must go through the pool, not the raw store. *)

  val pin : t -> Page_id.t -> unit
  (** Record the intent that this page must stay resident, faulting it in
      (one charged read) if it is not.  Pins nest; each {!pin} needs a
      matching {!unpin}.  When every resident page is pinned the cache
      overcommits past capacity rather than evicting a held page. *)

  val unpin : t -> Page_id.t -> unit
  (** @raise Invalid_argument on an unbalanced unpin. *)

  val pin_count : t -> Page_id.t -> int
  (** Outstanding pin intents for a page (0 if none). *)

  val free : t -> Page_id.t -> unit
  (** Drop the page from the cache (without write-back, clearing any pin
      intents) and free it in the store. *)

  val retain : t -> (Page_id.t -> bool) -> unit
  (** Drop from the cache, without write-back and with their pin intents,
      the pages [keep] is false of — pages the store no longer holds,
      such as those a rebase onto a checkpoint left out.  Charges
      nothing. *)

  val flush : t -> unit
  (** Write back every dirty page; the cache keeps its contents clean. *)

  val clean : t -> Page_id.t -> unit
  (** Write back one page if its pooled copy is dirty, so the store holds
      its current contents; it stays resident. *)

  val drop_cache : t -> unit
  (** Flush, then empty the cache — simulates a cold buffer pool before a
      query batch.  Pin intents survive and re-apply on fault-in. *)
end
