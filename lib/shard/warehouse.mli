(** A sharded warehouse in one domain: a {!Router} plus one in-memory
    {!Rta} replica per shard.

    Two users:
    - each reader domain owns one of these as its private replica set,
      applying the committed-op broadcasts from the writer domains and
      answering snapshot queries from it without any locks;
    - the equivalence property tests drive one directly against the
      [lib/reference] oracle — random boundaries, boundary-straddling
      rectangles, version-skewed per-shard prefixes.

    Every replica spans the {e full} key domain (only its shard's keys
    are ever applied), so a clipped sub-rectangle query against a
    replica needs no key translation.  Per-shard watermarks are the
    replicas' own update counts; they may legitimately differ across
    shards (a version-skewed snapshot) — each shard is still a
    consistent prefix of its own committed history. *)

type t

val create :
  ?config:Mvsbt.config -> ?pool_capacity:int -> router:Router.t -> unit -> t
(** Fresh, empty replicas. *)

val of_replicas : router:Router.t -> Rta.t array -> t
(** Adopt pre-seeded replicas (one per shard, e.g. deep copies of the
    recovered shard engines).
    @raise Invalid_argument on a shard-count mismatch. *)

val router : t -> Router.t
val replica : t -> int -> Rta.t

val apply : t -> Op.t -> unit
(** Route by key and apply to the owning shard's replica.
    @raise Invalid_argument exactly as {!Rta.insert} / {!Rta.delete}. *)

val apply_to : t -> shard:int -> Op.t -> unit
(** Apply to a named shard — the broadcast path, where the writer
    already routed. *)

val watermarks : t -> int array
(** Updates applied to each shard's replica over its life. *)

val sum_count : t -> klo:int -> khi:int -> tlo:int -> thi:int -> int * int
(** Scatter over the router, answer each part from its replica, merge
    ({!Plan}). *)

val avg : t -> klo:int -> khi:int -> tlo:int -> thi:int -> float option

val page_touches : t -> int
(** Total logical page accesses across all replicas — the cost-model
    quantity the simulated-I/O query path charges for. *)
