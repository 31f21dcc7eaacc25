(** The leader's in-memory window over its own WAL: the contiguous run of
    record payloads from sequence [floor + 1] (exclusive floor) to [hi],
    each exactly the bytes the {!Wal.Tail} read off disk.  Subscribers at
    any position within the window are served from memory; a subscriber
    behind [floor] (older than the retention cap, or before the log's
    first record after a checkpoint truncated history) needs a state
    transfer instead, and the subscription handshake refuses it.

    Frames self-describe their position — {!Durable.record_seq} reads
    the record's sequence number — so {!add} can enforce contiguity and
    drop duplicates without any side channel. *)

type t

val create : ?cap:int -> floor:int -> unit -> t
(** An empty backlog anchored at [floor] (nothing held; the next frame
    re-anchors, see {!add}).  [cap] (default 65536) bounds retained
    frames; beyond it the oldest are evicted and [floor] advances. *)

val add : t -> bytes -> unit
(** Append the next frame.  On an {e empty} backlog any sequence is
    accepted and re-anchors [floor] to [seq - 1] — records already on
    disk when the leader opened start the window wherever the log starts.
    Afterwards frames at or below [hi] are ignored (duplicates) and a
    frame beyond [hi + 1] raises [Invalid_argument] — the tailer feeds
    frames in log order, so a gap is a bug, not an input.
    @raise Invalid_argument on a gap or a short frame. *)

val from : t -> after:int -> max_frames:int -> max_bytes:int -> bytes list option
(** Frames for sequences [after + 1 .. hi], oldest first, cut off at
    [max_frames] or at the first frame that would push the summed cost
    ([8 + length], the wire encoding's per-frame bytes) past [max_bytes].
    The byte budget never blocks the {e first} frame: an oversized record
    is returned alone so the caller always makes progress.
    [None] when [after < floor]: the subscriber fell behind the window. *)

val floor : t -> int
val hi : t -> int
val length : t -> int
val evicted : t -> int
(** Frames evicted by the retention cap over this backlog's life. *)

val seq_of : bytes -> int
(** {!Durable.record_seq}: the record sequence number of a frame.
    @raise Invalid_argument on a short frame. *)
