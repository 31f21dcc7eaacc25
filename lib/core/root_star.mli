(** [root*]: the directory mapping query times to SB-tree roots.

    The MVSBT "has a number of SB-tree root nodes that partition the time
    space ... References to the root nodes are maintained in a structure
    called [root*] which can be implemented as a B+-tree" (paper section
    4.1).  Theorem 2 charges [O(log_b n)] I/Os to the B+-tree lookup; the
    paper also notes the lookup is free when the roots are kept "in a
    main-memory array".  Both implementations are provided so the
    experiment harness can measure either regime. *)

type t

val create : ?btree:bool -> ?stats:Storage.Io_stats.t -> unit -> t
(** [btree:true] stores the directory in a disk-based {!Btree} charged to
    [stats]; the default is the main-memory array: two growable arrays,
    of registration times and of page ids, which {!find} bisects. *)

val is_btree : t -> bool

val register : t -> at:int -> Storage.Page_id.t -> unit
(** The page becomes the root for all times in [\[at, next registration)].
    Registering twice at the same instant replaces the previous entry
    (the intermediate root had an empty tenure).
    @raise Invalid_argument if [at] precedes the latest registration. *)

val find : t -> at:int -> Storage.Page_id.t
(** The root whose tenure contains [at]; for [at] past the latest
    registration this is the current root.
    @raise Not_found if [at] precedes the first registration. *)

val latest : t -> Storage.Page_id.t
(** The current root.  @raise Not_found when empty. *)

val count : t -> int
(** Number of registered roots. *)

val prune : t -> below:int -> int
(** Drop entries whose whole tenure ends at or below [below] — no query at
    a time [>= below] can reach them.  The entry whose tenure contains
    [below] (and everything newer) survives, so {!find} keeps working for
    every time at or above the horizon.  Returns the number of entries
    dropped; freeing the root pages themselves is the caller's business. *)

val tenures : t -> (Interval.t * Storage.Page_id.t) list
(** Root pages with their tenure intervals, oldest first; the last tenure
    extends to [max_int]. *)

val drop_cache : t -> unit
(** Empty the directory's buffer pool (no-op for the array backing). *)
