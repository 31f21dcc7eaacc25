module Codec = Storage.Codec
module E = Storage.Storage_error

type outcome =
  | Applied of int
  | Skipped
  | Gap of { expect : int; got : int }
  | Rejected of string
  | Failed of E.t

let watermark eng = Rta.n_updates (Durable.warehouse eng)

let replay eng payload =
  match Durable.decode_record (Codec.Reader.create payload) with
  | exception Codec.Overflow _ -> Rejected "truncated WAL record payload"
  | exception Failure m -> Rejected m
  | seq, record -> (
      let applied = watermark eng in
      if seq <= applied then Skipped
      else if seq > applied + 1 then Gap { expect = applied + 1; got = seq }
      else
        (* Re-applying through the engine's own write path logs the
           record to the follower's WAL with the {e same} sequence number
           (seq is n_updates after applying), so the follower is itself
           recoverable — and promotable, and cascadable — with no
           second format.  This covers vacuum too: the leader's retention
           frames re-free and re-prune the same pages here, keeping the
           follower's horizon and page graph in step. *)
        match
          match record with
          | Durable.Insert { key; value; at } -> Durable.insert eng ~key ~value ~at
          | Delete { key; at } -> Durable.delete eng ~key ~at
          | Vacuum_begin { horizon } -> Durable.vacuum_begin eng ~horizon
          | Vacuum_chunk { actions; _ } ->
              Result.map ignore (Durable.vacuum_chunk eng actions)
        with
        | Ok () -> Applied (watermark eng)
        | Error e -> Failed e
        | exception (Invalid_argument m | Failure m) -> Rejected m)

let pp_outcome ppf = function
  | Applied w -> Format.fprintf ppf "applied (watermark %d)" w
  | Skipped -> Format.fprintf ppf "skipped"
  | Gap { expect; got } -> Format.fprintf ppf "gap (expected %d, got %d)" expect got
  | Rejected m -> Format.fprintf ppf "rejected: %s" m
  | Failed e -> Format.fprintf ppf "failed: %s" (E.to_string e)
