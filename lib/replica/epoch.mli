(** The persisted fencing epoch.

    An epoch is a monotone integer naming a leadership term.  A follower
    that promotes itself durably writes [its highest known epoch + 1]
    {e before} accepting its first write, so a deposed leader that comes
    back (or its late frames, still in flight) carries a provably stale
    epoch and is answered [Err Fenced] by everyone that has seen the new
    one.  Stored next to the engine's files as [<base>.epoch], a
    {!Storage.Frame.Word} file, replaced atomically so a crash
    mid-promotion leaves the old epoch, never a torn one. *)

val path_of : string -> string
(** [base ^ ".epoch"]. *)

val load : ?vfs:Storage.Vfs.t -> string -> int
(** The stored epoch, or [0] if the file does not exist (a node that has
    never been promoted).
    @raise Failure on a corrupt file — fencing must fail loudly. *)

val store : ?vfs:Storage.Vfs.t -> string -> int -> unit
(** Atomically persist a new epoch (write-temp, fsync, rename, fsync
    dir). *)
