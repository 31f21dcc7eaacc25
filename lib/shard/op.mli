(** The routed write operations — the shard layer's copy of the wire
    write vocabulary, so [lib/shard] does not depend on [lib/server]. *)

type t =
  | Insert of { key : int; value : int; at : int }
  | Delete of { key : int; at : int }

val key : t -> int
(** The routing key. *)

val at : t -> int
val pp : Format.formatter -> t -> unit
