(* The benchmark's inputs, all derived from one seed.

   P, the prepared store: the paper's generator at REPRO_SCALE 0.1 (100k
   tuple versions over 1k keys, 200k events, t in [0, 10^8)).  Every P
   version is closed by its last event, so nothing is alive at 10^8.

   B, the write stream: the same generator at scale 0.5 with seed+1
   (500k versions, 1M events), every time shifted by +10^8 so that B
   appended after P keeps time monotone and is 1TNF-safe.

   Queries mix the QRS values of the paper's Figure 4b (0.01%, 0.1%, 1%,
   10%) uniformly, with R/I = 1; the 100% row is left out because it
   collapses into the corners of the space. *)

module G = Workload.Generator

type t = {
  seed : int;
  max_key : int;
  p_end : int;  (** Every P time lies below; B starts here. *)
  p : G.event array;
  p_versions : int;
  b : G.event array Lazy.t;
}

let make ~seed ~smoke =
  let p_spec =
    G.scaled { G.paper_spec with seed } (if smoke then 0.002 else 0.1)
  in
  let b_spec =
    G.scaled { G.paper_spec with seed = seed + 1 } (if smoke then 0.01 else 0.5)
  in
  let shift = p_spec.max_time in
  let b =
    lazy
      (G.events b_spec
      |> List.map (function
           | G.Insert { key; value; at } -> G.Insert { key; value; at = at + shift }
           | G.Delete { key; at } -> G.Delete { key; at = at + shift })
      |> Array.of_list)
  in
  {
    seed;
    max_key = p_spec.max_key;
    p_end = shift;
    p = Array.of_list (G.events p_spec);
    p_versions = p_spec.n_records;
    b;
  }

let is_insert = function G.Insert _ -> true | G.Delete _ -> false

let request_of_event = function
  | G.Insert { key; value; at } -> Wire.Insert { key; value; at }
  | G.Delete { key; at } -> Wire.Delete { key; at }

(* --- Query rectangles ---------------------------------------------------------- *)

type rect = Workload.Query_gen.rect = { klo : int; khi : int; tlo : int; thi : int }

let qrs_mix = [| 0.0001; 0.001; 0.01; 0.1 |]

(* A deterministic stream of rectangles; [stream] separates the streams a
   run draws from, so adding one never shifts another. *)
let rects t ~stream =
  let rng = Workload.Rng.create ~seed:((t.seed * 1_000_003) + stream) in
  fun ~max_time ->
    let qrs = qrs_mix.(Workload.Rng.int rng (Array.length qrs_mix)) in
    Workload.Query_gen.rectangle rng ~max_key:t.max_key ~max_time ~qrs ~r_over_i:1.

let query_request (r : rect) =
  Wire.Query { agg = Wire.Sum; klo = r.klo; khi = r.khi; tlo = r.tlo; thi = r.thi }

(* --- Oracle --------------------------------------------------------------------- *)

(* [Reference.Warehouse] scans a list per operation, so one instance over
   the 100k versions of P would take minutes to build.  The oracle splits
   the key space into buckets, one reference warehouse each: an RTA answer
   is a sum over the tuples whose key lies in the range, so it is the sum
   of the buckets' answers. *)
module Oracle = struct
  module W = Reference.Warehouse

  type t = { width : int; w : W.t array }

  let n_buckets = 1024

  let create ~max_key =
    { width = (max_key + n_buckets - 1) / n_buckets; w = Array.init n_buckets (fun _ -> W.create ()) }

  let apply t = function
    | G.Insert { key; value; at } -> W.insert t.w.(key / t.width) ~key ~value ~at
    | G.Delete { key; at } -> W.delete t.w.(key / t.width) ~key ~at

  let of_events ~max_key evs =
    let t = create ~max_key in
    Array.iter (apply t) evs;
    t

  (* [(sum, count)] over the union of the tuple sets of [ts]. *)
  let sum_count ts (r : rect) =
    List.fold_left
      (fun acc t ->
        let acc = ref acc in
        for b = r.klo / t.width to (r.khi - 1) / t.width do
          let w = t.w.(b) in
          let s, c = !acc in
          acc :=
            ( s + W.rta_sum w ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi,
              c + W.rta_count w ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi )
        done;
        !acc)
      (0, 0) ts
end
