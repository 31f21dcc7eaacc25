(* Tests for the MVSBT (lib/core/mvsbt.ml) against the brute-force
   dominance-sum oracle, plus structural invariants and the paper's worked
   example (figure 3). *)

module G = Aggregate.Group.Int_sum

(* A value is one word in a page. *)
module Int_codec = struct
  type t = G.t

  let words = 1
  let encode put v = put v
  let decode next = next ()
end

module T = Mvsbt.Make (G) (Int_codec)
module Oracle = Reference.Dominance (G)

let mk_config ?(b = 6) ?(f = 0.9) ?(variant = Mvsbt.Logical) ?(merging = true)
    ?(disposal = true) ?(root_star_btree = false) () : Mvsbt.config =
  { b; f; variant; merging; disposal; root_star_btree }

(* Deterministic pseudo-random stream (SplitMix64-style). *)
let make_rng seed =
  let state = ref (Int64.of_int seed) in
  fun bound ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))

(* Drive [n] random insertions through both the tree and the oracle, then
   compare on a grid of probe points covering past and present times. *)
let run_against_oracle ~config ~key_space ~time_span ~n ~seed ~check_every () =
  let tree = T.create ~config ~key_space () in
  let oracle = Oracle.create () in
  let rand = make_rng seed in
  let now = ref 0 in
  let probes = ref [] in
  for i = 1 to n do
    now := !now + rand 3;
    if !now >= time_span then now := time_span - 1;
    let key = rand key_space in
    let v = rand 19 - 9 in
    T.insert tree ~key ~at:!now v;
    Oracle.add oracle ~key ~at:!now v;
    probes := (key, !now) :: !probes;
    if i mod check_every = 0 then T.check_invariants tree
  done;
  T.check_invariants tree;
  (* Probe: every insertion point, plus a pseudo-random grid. *)
  let check (k, at) =
    let got = T.query tree ~key:k ~at in
    let want = Oracle.query oracle ~key:k ~at in
    if got <> want then
      Alcotest.failf "query (k=%d, t=%d): tree=%d oracle=%d (config b=%d f=%.2f %s)" k at
        got want config.Mvsbt.b config.Mvsbt.f
        (match config.Mvsbt.variant with Mvsbt.Plain -> "plain" | Mvsbt.Logical -> "logical")
  in
  List.iter check !probes;
  for _ = 1 to 500 do
    check (rand key_space, rand (!now + 2))
  done;
  tree

let test_empty () =
  let tree = T.create ~config:(mk_config ()) ~key_space:100 () in
  Alcotest.(check int) "empty tree queries zero" 0 (T.query tree ~key:50 ~at:0);
  Alcotest.(check int) "height" 1 (T.height tree);
  Alcotest.(check int) "one root" 1 (T.root_count tree);
  T.check_invariants tree

let test_single_insert () =
  let tree = T.create ~config:(mk_config ()) ~key_space:100 () in
  T.insert tree ~key:20 ~at:2 1;
  (* +1 on [20, 100) x [2, inf) *)
  Alcotest.(check int) "below key" 0 (T.query tree ~key:19 ~at:5);
  Alcotest.(check int) "at key" 1 (T.query tree ~key:20 ~at:5);
  Alcotest.(check int) "above key" 1 (T.query tree ~key:99 ~at:2);
  Alcotest.(check int) "before time" 0 (T.query tree ~key:20 ~at:1);
  T.check_invariants tree

(* The running example of section 4.3: b = 6, f = 0.5, insertions
   (20,2):1  (10,3):1  (80,4):1  (10,5):-1  (5,5):1.
   We verify the query semantics after each step and the structural events
   the paper narrates (overflow at the third insertion; a time merge at
   the fifth). *)
let test_paper_example () =
  let config = mk_config ~b:6 ~f:0.5 () in
  let tree = T.create ~config ~key_space:100 () in
  let oracle = Oracle.create () in
  let ins k at v =
    T.insert tree ~key:k ~at v;
    Oracle.add oracle ~key:k ~at v;
    T.check_invariants tree;
    for key = 0 to 99 do
      for tau = 0 to 6 do
        let got = T.query tree ~key ~at:tau in
        let want = Oracle.query oracle ~key ~at:tau in
        if got <> want then
          Alcotest.failf "paper example: after (%d,%d):%d, query (%d,%d) = %d, want %d" k
            at v key tau got want
      done
    done
  in
  ins 20 2 1;
  ins 10 3 1;
  let pages_before = T.page_count tree in
  ins 80 4 1;
  (* The third insertion overflows the root leaf: a time split and key
     split leave more pages and a taller tree. *)
  Alcotest.(check bool) "overflow grew the graph" true (T.page_count tree > pages_before);
  Alcotest.(check int) "height after key split" 2 (T.height tree);
  ins 10 5 (-1);
  ins 5 5 1

let variant_name = function Mvsbt.Plain -> "plain" | Mvsbt.Logical -> "logical"

let oracle_case ~name ~config ~key_space ~time_span ~n ~seed =
  Alcotest.test_case
    (Printf.sprintf "%s (b=%d f=%.2f %s merge=%b disposal=%b)" name config.Mvsbt.b
       config.Mvsbt.f (variant_name config.Mvsbt.variant) config.Mvsbt.merging
       config.Mvsbt.disposal)
    `Quick
    (fun () ->
      ignore
        (run_against_oracle ~config ~key_space ~time_span ~n ~seed ~check_every:50 ()))

let oracle_tests =
  let cases = ref [] in
  let add ~name ~config ~n ~seed =
    cases :=
      oracle_case ~name ~config ~key_space:64 ~time_span:1000 ~n ~seed :: !cases
  in
  List.iter
    (fun variant ->
      List.iter
        (fun (merging, disposal) ->
          add
            ~name:"random stream"
            ~config:(mk_config ~b:6 ~f:0.67 ~variant ~merging ~disposal ())
            ~n:400 ~seed:42;
          add
            ~name:"random stream"
            ~config:(mk_config ~b:16 ~f:0.9 ~variant ~merging ~disposal ())
            ~n:600 ~seed:7)
        [ (true, true); (false, false); (true, false); (false, true) ])
    [ Mvsbt.Logical; Mvsbt.Plain ];
  !cases

let test_monotone_time_enforced () =
  let tree = T.create ~config:(mk_config ()) ~key_space:10 () in
  T.insert tree ~key:3 ~at:5 1;
  Alcotest.check_raises "going back in time rejected"
    (Invalid_argument
       "Mvsbt.insert: time 4 precedes current time 5 (transaction time is monotone)")
    (fun () -> T.insert tree ~key:3 ~at:4 1)

let test_key_domain_enforced () =
  let tree = T.create ~config:(mk_config ()) ~key_space:10 () in
  Alcotest.check_raises "key too large"
    (Invalid_argument "Mvsbt.insert: key outside key domain") (fun () ->
      T.insert tree ~key:10 ~at:0 1);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Mvsbt.insert: key outside key domain") (fun () ->
      T.insert tree ~key:(-1) ~at:0 1);
  Alcotest.check_raises "query key out of domain"
    (Invalid_argument "Mvsbt.query: key outside key domain") (fun () ->
      ignore (T.query tree ~key:10 ~at:0))

let test_same_time_batch () =
  (* Many insertions at one instant: exercises page disposal. *)
  let config = mk_config ~b:6 ~f:0.67 () in
  let tree = T.create ~config ~key_space:128 () in
  let oracle = Oracle.create () in
  for k = 0 to 127 do
    T.insert tree ~key:k ~at:1 k;
    Oracle.add oracle ~key:k ~at:1 k
  done;
  T.check_invariants tree;
  for k = 0 to 127 do
    Alcotest.(check int) (Printf.sprintf "query k=%d" k)
      (Oracle.query oracle ~key:k ~at:1)
      (T.query tree ~key:k ~at:1)
  done;
  Alcotest.(check int) "nothing before the batch" 0 (T.query tree ~key:127 ~at:0)

let test_future_queries_see_current_state () =
  let tree = T.create ~config:(mk_config ()) ~key_space:10 () in
  T.insert tree ~key:2 ~at:3 7;
  Alcotest.(check int) "far future" 7 (T.query tree ~key:5 ~at:1_000_000)

let test_root_star_btree_backed () =
  let config = mk_config ~b:6 ~f:0.67 ~root_star_btree:true () in
  ignore
    (run_against_oracle ~config ~key_space:64 ~time_span:1000 ~n:400 ~seed:11
       ~check_every:100 ())

(* root* against a list model, newest entry first (the directory's
   first in-memory form): random registers, each 0 to 3 time units after
   the last, 0 replacing it; prunes and finds at random times around the
   registered ones.  After every step both backings agree with the model
   on the step's answer, the count, the current root and the tenures. *)
let prop_root_star_model =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [ (5, map2 (fun dt pid -> `Register (dt, pid)) (int_range 0 3) (int_range 0 1000));
          (1, map (fun d -> `Prune d) (int_range (-3) 40));
          (4, map (fun d -> `Find d) (int_range (-3) 40)) ])
  in
  Test.make ~name:"root* agrees with a list model" ~count:300
    (make Gen.(pair (int_range 0 20) (list_size (int_range 0 120) op)))
    (fun (start, ops) ->
      List.for_all
        (fun btree ->
          let rs = Root_star.create ~btree () and model = ref [] and now = ref start in
          let find at = List.find_opt (fun (ts, _) -> ts <= at) !model |> Option.map snd in
          let agree () =
            let oldest_first = List.rev !model in
            let rec tenures = function
              | [ (ts, pid) ] -> [ (Interval.make ts max_int, pid) ]
              | (ts, pid) :: ((ts', _) :: _ as rest) -> (Interval.make ts ts', pid) :: tenures rest
              | [] -> []
            in
            Root_star.count rs = List.length !model
            && (match !model with
               | [] -> ( match Root_star.latest rs with exception Not_found -> true | _ -> false)
               | (_, pid) :: _ -> Storage.Page_id.to_int (Root_star.latest rs) = pid)
            && List.map (fun (iv, pid) -> (iv, Storage.Page_id.to_int pid)) (Root_star.tenures rs)
               = tenures oldest_first
          in
          List.for_all
            (fun op ->
              let answered =
                match op with
                | `Register (dt, pid) ->
                    if !model <> [] then now := !now + dt;
                    Root_star.register rs ~at:!now (Storage.Page_id.of_int pid);
                    (model :=
                       match !model with
                       | (ts, _) :: rest when ts = !now -> (!now, pid) :: rest
                       | m -> (!now, pid) :: m);
                    true
                | `Prune d ->
                    let below = start + d in
                    let rec keep = function
                      | _ :: ((ts', _) :: _ as rest) when ts' <= below -> keep rest
                      | l -> l
                    in
                    let kept = List.rev (keep (List.rev !model)) in
                    let dropped = List.length !model - List.length kept in
                    model := kept;
                    Root_star.prune rs ~below = dropped
                | `Find d ->
                    let at = start + d in
                    let got =
                      match Root_star.find rs ~at with
                      | pid -> Some (Storage.Page_id.to_int pid)
                      | exception Not_found -> None
                    in
                    got = find at
              in
              answered && agree ())
            ops)
        [ false; true ])

let test_disposal_reduces_pages () =
  (* Same same-instant batch with and without disposal: disposal must not
     use more pages. *)
  let build disposal =
    let config = mk_config ~b:6 ~f:0.67 ~disposal () in
    let tree = T.create ~config ~key_space:256 () in
    for k = 0 to 255 do
      T.insert tree ~key:k ~at:1 1
    done;
    T.check_invariants tree;
    T.page_count tree
  in
  let with_disposal = build true and without = build false in
  Alcotest.(check bool)
    (Printf.sprintf "disposal pages %d <= no-disposal pages %d" with_disposal without)
    true (with_disposal <= without)

let test_logical_beats_plain_on_space () =
  (* The aggregation-in-a-page optimisation is the difference between
     O(1) and Theta(b) record additions per insertion; the record count
     must reflect that on a shared workload. *)
  let build variant =
    let config = mk_config ~b:16 ~f:0.9 ~variant () in
    let tree = T.create ~config ~key_space:512 () in
    let rand = make_rng 3 in
    for i = 1 to 500 do
      T.insert tree ~key:(rand 512) ~at:i 1
    done;
    T.record_count tree
  in
  let logical = build Mvsbt.Logical and plain = build Mvsbt.Plain in
  Alcotest.(check bool)
    (Printf.sprintf "logical records %d < plain records %d" logical plain)
    true
    (logical < plain)

let test_boundary_keys () =
  (* First and last key of the domain, and repeated hits on one point. *)
  let tree = T.create ~config:(mk_config ~b:4 ~f:0.75 ()) ~key_space:8 () in
  let oracle = Oracle.create () in
  let ins k at v =
    T.insert tree ~key:k ~at v;
    Oracle.add oracle ~key:k ~at v
  in
  ins 0 1 5;
  ins 7 1 3;
  for i = 2 to 30 do
    ins 3 i 1
  done;
  T.check_invariants tree;
  for k = 0 to 7 do
    for at = 0 to 31 do
      Alcotest.(check int)
        (Printf.sprintf "boundary (%d,%d)" k at)
        (Oracle.query oracle ~key:k ~at)
        (T.query tree ~key:k ~at)
    done
  done

let test_durable_mvsbt_direct () =
  (* The file-resident MVSBT must match the RAM one operation for
     operation, through a pool small enough to force real file traffic. *)
  let config = mk_config ~b:8 ~f:0.75 () in
  let path = Filename.temp_file "mvsbt_pages" ".db" in
  let stats = Storage.Io_stats.create () in
  let dur =
    T.create ~config ~pool_capacity:4 ~policy:Storage.Evict.Second_chance ~stats ~key_space:64
      ~path ()
  in
  let mem = T.create ~config ~key_space:64 () in
  Alcotest.check_raises "a mapped overlay needs a path"
    (Invalid_argument "Mvsbt: a mapped overlay needs a path") (fun () ->
      ignore (T.create ~config ~backing:`Map ~key_space:64 ()));
  let rand = make_rng 99 in
  let now = ref 0 in
  for _ = 1 to 300 do
    now := !now + rand 3;
    let key = rand 64 and v = rand 15 - 7 in
    T.insert dur ~key ~at:!now v;
    T.insert mem ~key ~at:!now v
  done;
  T.check_invariants dur;
  T.drop_cache dur;
  Alcotest.(check bool) "file writes happened" true (Storage.Io_stats.writes stats > 0);
  Alcotest.(check bool) "file grew" true ((Unix.stat path).Unix.st_size > 1024);
  for _ = 1 to 300 do
    let key = rand 64 and at = rand (!now + 2) in
    Alcotest.(check int)
      (Printf.sprintf "durable (%d,%d)" key at)
      (T.query mem ~key ~at) (T.query dur ~key ~at)
  done;
  Alcotest.(check int) "same page count" (T.page_count mem) (T.page_count dur);
  Sys.remove path

let test_pp_dot_smoke () =
  let tree = T.create ~config:(mk_config ~b:6 ~f:0.5 ()) ~key_space:100 () in
  T.insert tree ~key:20 ~at:2 1;
  T.insert tree ~key:10 ~at:3 1;
  T.insert tree ~key:80 ~at:4 1;
  let s = Format.asprintf "%a" T.pp_dot tree in
  Alcotest.(check bool) "digraph" true (String.length s > 20 && String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "has edges" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 3 && String.index_opt l '>' <> None))

(* --- qcheck properties ------------------------------------------------------ *)

(* Random insertion scripts compared against the dominance oracle, with the
   configuration itself randomised. *)
let prop_matches_oracle =
  let gen =
    QCheck.make
      ~print:(fun (b, f10, variant, merging, disposal, ops) ->
        Printf.sprintf "b=%d f=%.1f %s merging=%b disposal=%b ops=%d" b
          (float_of_int f10 /. 10.)
          (if variant then "logical" else "plain")
          merging disposal (List.length ops))
      QCheck.Gen.(
        tup6 (int_range 4 24)
          (int_range 5 10) (* f in tenths *)
          bool bool bool
          (list_size (int_range 0 120) (tup3 (int_range 0 31) (int_range 0 3) (int_range (-9) 9))))
  in
  QCheck.Test.make ~name:"mvsbt equals dominance oracle (random config)" ~count:120 gen
    (fun (b, f10, logical, merging, disposal, ops) ->
      let f = float_of_int f10 /. 10. in
      QCheck.assume (int_of_float (f *. float_of_int b) >= 2);
      let config =
        mk_config ~b ~f
          ~variant:(if logical then Mvsbt.Logical else Mvsbt.Plain)
          ~merging ~disposal ()
      in
      let tree = T.create ~config ~key_space:32 () in
      let oracle = Oracle.create () in
      let now = ref 0 in
      List.iter
        (fun (key, dt, v) ->
          now := !now + dt;
          T.insert tree ~key ~at:!now v;
          Oracle.add oracle ~key ~at:!now v)
        ops;
      T.check_invariants tree;
      List.for_all
        (fun k ->
          List.for_all
            (fun at -> T.query tree ~key:k ~at = Oracle.query oracle ~key:k ~at)
            [ 0; !now / 3; !now / 2; !now; !now + 5 ])
        [ 0; 1; 7; 15; 16; 30; 31 ])

(* Lemma 4: the height of the (current) tree is bounded by
   ceil(log_{ceil(f*b/2)}(K+1)) + 1 where K is the number of distinct keys
   inserted.  Merging can only shrink the structure, so the bound must
   hold with every optimisation enabled too. *)
let prop_height_bound =
  let gen =
    QCheck.make
      ~print:(fun (b, keys) -> Printf.sprintf "b=%d inserts=%d" b (List.length keys))
      QCheck.Gen.(pair (int_range 4 16) (list_size (int_range 1 200) (int_range 0 63)))
  in
  QCheck.Test.make ~name:"lemma 4 height bound" ~count:80 gen (fun (b, keys) ->
      let f = 0.9 in
      let config = mk_config ~b ~f () in
      let tree = T.create ~config ~key_space:64 () in
      List.iteri (fun i k -> T.insert tree ~key:k ~at:i 1) keys;
      let distinct = List.length (List.sort_uniq Int.compare keys) in
      let base = (int_of_float (f *. float_of_int b) + 1) / 2 in
      let bound =
        if base < 2 then max_int
        else
          (* ceil(log_base (K+1)) + 1 *)
          let rec log_ceil acc pow =
            if pow >= distinct + 1 then acc else log_ceil (acc + 1) (pow * base)
          in
          log_ceil 0 1 + 1
      in
      T.height tree <= bound)

(* Lemma 1 (consequence): one insertion creates at most
   ceil(1.5/f + 1/3) new pages per level, plus possibly a new root. *)
let prop_pages_per_insertion =
  let gen =
    QCheck.make
      ~print:(fun (b, ops) -> Printf.sprintf "b=%d ops=%d" b (List.length ops))
      QCheck.Gen.(pair (int_range 4 16) (list_size (int_range 1 250) (pair (int_range 0 63) (int_range 0 2))))
  in
  QCheck.Test.make ~name:"lemma 1 pages-per-insertion bound" ~count:60 gen
    (fun (b, ops) ->
      let f = 0.67 in
      (* Disposal off so page counts only grow and the bound is clean. *)
      let config = mk_config ~b ~f ~disposal:false () in
      let tree = T.create ~config ~key_space:64 () in
      let per_overflow = int_of_float (ceil ((1.5 /. f) +. (1. /. 3.))) in
      let now = ref 0 in
      List.for_all
        (fun (key, dt) ->
          now := !now + dt;
          let before = T.page_count tree in
          let h_before = T.height tree in
          T.insert tree ~key ~at:!now 1;
          T.page_count tree - before <= (h_before * per_overflow) + 1)
        ops)

let prop_root_count_grows_slowly =
  (* Theorem 2's point-query analysis needs O(n/b) roots. *)
  QCheck.Test.make ~name:"O(n/b) roots" ~count:30
    (QCheck.make QCheck.Gen.(int_range 50 400))
    (fun n ->
      let b = 8 in
      let config = mk_config ~b ~f:0.9 () in
      let tree = T.create ~config ~key_space:64 () in
      for i = 1 to n do
        T.insert tree ~key:(i * 7 mod 64) ~at:i 1
      done;
      (* Each root must absorb at least one insertion before overflowing;
         in practice many — allow a generous constant. *)
      T.root_count tree <= 2 + (4 * n / b))

(* --- Page layout --------------------------------------------------------------- *)

(* Pages of the warehouse's trees — a sum and a count per value — laid
   out by the one page codec, compared with the pages themselves. *)
module SC =
  Mvsbt.Make
    (Aggregate.Group.Sum_count)
    (struct
      type t = Aggregate.Group.Sum_count.t

      let words = 2

      let encode put (s, c) =
        put s;
        put c

      let decode next =
        let s = next () in
        let c = next () in
        (s, c)
    end)

module Layout = SC.Record_codec

let forever = max_int

(* A page as a list of records: the model the layout is checked against.
   A tree keeps no such thing; its pages are frames. *)
type mrecord = {
  range : Interval.t;
  rt_start : int;
  rt_end : int;
  value : int * int;
  child : int option;
}

type mpage = {
  pid : int;
  level : int;
  prange : Interval.t;
  created : int;
  closed : int;
  records : mrecord list;
}

(* The model's share of a point query (Appendix A): a record alive at
   [at] whose low key is at or below [key] adds its value under logical
   splitting, and the one containing [key] adds it under either variant
   and names the child. *)
let model_point ~logical ~key ~at p =
  List.fold_left
    (fun (((s, c) as sum), next) r ->
      if r.rt_start <= at && at < r.rt_end && r.range.Interval.lo <= key then
        let add () = ((s + fst r.value, c + snd r.value)) in
        if key < r.range.Interval.hi then (add (), match r.child with None -> -1 | Some c -> c)
        else if logical then (add (), next)
        else (sum, next)
      else (sum, next))
    ((0, 0), -2) p.records

(* A page's two dictionaries as the layout keeps them: its key
   boundaries less its low key, and its instants but [forever] less its
   created time, each ascending, each entry once. *)
let dictionaries p =
  let plo = p.prange.Interval.lo and created = p.created in
  ( List.sort_uniq compare
      (List.concat_map
         (fun r -> [ r.range.Interval.lo - plo; r.range.Interval.hi - plo ])
         p.records),
    List.sort_uniq compare
      (List.concat_map
         (fun r ->
           List.filter_map
             (fun x -> if x = forever then None else Some (x - created))
             [ r.rt_start; r.rt_end ])
         p.records) )

let rank dict x =
  let rec go i = function
    | y :: rest -> if y = x then i else go (i + 1) rest
    | [] -> invalid_arg "rank"
  in
  go 0 dict

(* The codes a page stores in each column, in the column order the
   header's width bytes follow: the ranks of its low key, high key,
   start and end ([forever]'s rank the time dictionary's size), then the
   two value words and the child, each less its column's least. *)
let column_codes p =
  let recs = p.records and keys, times = dictionaries p in
  let key x = rank keys (x - p.prange.Interval.lo)
  and time x = if x = forever then List.length times else rank times (x - p.created) in
  let spread xs =
    match xs with
    | [] -> []
    | x :: rest ->
        let least = List.fold_left min x rest in
        List.map (fun v -> v - least) xs
  in
  [ List.map (fun r -> key r.range.Interval.lo) recs;
    List.map (fun r -> key r.range.Interval.hi) recs;
    List.map (fun r -> time r.rt_start) recs;
    List.map (fun r -> time r.rt_end) recs;
    spread (List.map (fun r -> fst r.value) recs);
    spread (List.map (fun r -> snd r.value) recs);
    spread (List.filter_map (fun r -> r.child) recs) ]

(* The fewest bytes that hold every code, unsigned: a code that wrapped
   negative needs all 8. *)
let least_width codes =
  let fits w code = w = 8 || (code >= 0 && code lsr (8 * w) = 0) in
  let rec go w = if List.for_all (fits w) codes then w else go (w + 1) in
  go 0

(* The header's dictionary fields: the sizes, i32s at payload bytes 48
   and 52, and the entry widths, bytes 56 and 57. *)
let dictionary_fields buf off =
  Storage.Zcodec.
    (get_i32 buf (off + 48), get_i32 buf (off + 52), get_u8 buf (off + 56), get_u8 buf (off + 57))

let widths buf off = List.init 7 (fun c -> Storage.Zcodec.get_u8 buf (off + Layout.widths_at + c))

let bigarray n fill =
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  Bigarray.Array1.fill buf fill;
  buf

(* [p] laid out wide, record by record, at [off] of a slot for pages of
   its record count, every byte of it not zero beforehand. *)
let wide (p : mpage) ~off =
  let b = max 1 (List.length p.records) in
  let buf = bigarray (off + Layout.max_payload ~b) '\x5a' in
  Layout.init buf off ~b ~id:p.pid ~level:p.level ~low:p.prange.Interval.lo
    ~high:p.prange.Interval.hi ~created:p.created;
  Layout.close buf off p.closed;
  List.iter
    (fun r ->
      Layout.append buf off ~lo:r.range.Interval.lo ~hi:r.range.Interval.hi ~start:r.rt_start
        ~stop:r.rt_end r.value ~child:(Option.value r.child ~default:(-1)))
    p.records;
  (buf, Layout.length buf off)

(* [p] narrowed from its wide form to [off] of a buffer of the room of
   its largest payload past [off], every byte of it not zero beforehand. *)
let encoded (p : mpage) ~off =
  let src, _ = wide p ~off:0 in
  let buf = bigarray (off + Layout.max_payload ~b:(max 1 (List.length p.records))) '\xa5' in
  (buf, Layout.narrow src 0 buf off)

let bytes_of buf off len = String.init len (fun i -> Bigarray.Array1.get buf (off + i))

let check_layout (p : mpage) ~off ~probes =
  let buf, len = encoded p ~off in
  (* a narrowed page widens back and narrows to the same bytes *)
  let b = max 1 (List.length p.records) in
  let slot = bigarray (Layout.max_payload ~b) '\x33' in
  Layout.widen ~b buf off len slot 0;
  let again = bigarray (Layout.max_payload ~b) '\x77' in
  let again_len = Layout.narrow slot 0 again 0 in
  if bytes_of again 0 again_len <> bytes_of buf off len then
    QCheck.Test.fail_report "the widened page narrows to other bytes";
  (* each dictionary holds what it should in the fewest bytes, each
     column the page's codes in the fewest bytes, and the parts fill the
     payload *)
  let keys, times = dictionaries p and nk, nt, kw, tw = dictionary_fields buf off in
  if nk <> List.length keys || nt <> List.length times then
    QCheck.Test.fail_reportf "dictionaries of %d and %d entries, want %d and %d" nk nt
      (List.length keys) (List.length times);
  if kw <> least_width keys || tw <> least_width times then
    QCheck.Test.fail_reportf "dictionary widths %d and %d are not the least" kw tw;
  let entries at w n = List.init n (fun i ->
      let x = ref 0 in
      for k = w - 1 downto 0 do
        x := (!x lsl 8) lor Storage.Zcodec.get_u8 buf (at + (i * w) + k)
      done;
      !x)
  in
  if entries (off + Layout.header_bytes) kw nk <> keys
     || entries (off + Layout.header_bytes + (nk * kw)) tw nt <> times
  then QCheck.Test.fail_report "a dictionary holds other entries";
  let ws = widths buf off in
  let stride = List.fold_left ( + ) 0 ws in
  let records = off + Layout.header_bytes + (nk * kw) + (nt * tw) in
  List.iteri
    (fun c (codes, w) ->
      if w <> least_width codes then
        QCheck.Test.fail_reportf "column %d: width %d is not the least" c w;
      let at = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < c) ws) in
      let stored =
        List.init (List.length codes) (fun i ->
            let x = ref 0 in
            for k = w - 1 downto 0 do
              x := (!x lsl 8) lor Storage.Zcodec.get_u8 buf (records + (i * stride) + at + k)
            done;
            !x)
      in
      let wanted = List.map (fun x -> if w = 8 then x else x land ((1 lsl (8 * w)) - 1)) codes in
      if stored <> wanted then QCheck.Test.fail_reportf "column %d holds other codes" c)
    (List.combine (column_codes p) ws);
  if len <> Layout.header_bytes + (nk * kw) + (nt * tw) + (List.length p.records * stride) + 7
  then QCheck.Test.fail_reportf "a %d-byte payload for stride %d" len stride;
  (* a scan in place, of either width, answers as the model *)
  let wide_buf, wide_len = wide p ~off:5 in
  List.iter
    (fun (key, at) ->
      List.iter
        (fun logical ->
          let want = model_point ~logical ~key ~at p in
          List.iter
            (fun (width, got) ->
              if got <> want then
                QCheck.Test.fail_reportf
                  "(%d, %d)%s, %s: scanned (%d, %d) child %d, want (%d, %d) child %d" key at
                  (if logical then " logical" else "") width (fst (fst got)) (snd (fst got))
                  (snd got) (fst (fst want)) (snd (fst want)) (snd want))
            [ ("narrow", Layout.point ~logical ~key ~at (buf, off, len));
              ("wide", Layout.point ~logical ~key ~at (wide_buf, 5, wide_len)) ])
        [ true; false ])
    probes;
  true

(* A value word: zero, small of either sign, or extreme. *)
let gen_word =
  QCheck.Gen.(
    frequency
      [ (2, return 0); (4, int_range (-300) 300); (1, return max_int); (1, return min_int);
        (2, int) ])

(* A page of 1 to 64 records, a leaf or an index page, whose every key,
   time, value word and child ranges over one span, a few bytes or all
   8: keys in the page's range and often at its ends, times from
   [created] on, often at it, some ends [forever], values of any sign,
   children any page id.  With it, points at random around the page's
   rectangle and past it. *)
let gen_page =
  let open QCheck.Gen in
  let span = oneofl [ 0; 3; 200; 70_000; 1 lsl 40; max_int / 4 ] in
  let* n = int_range 1 64 and* level = frequency [ (1, return 0); (1, int_range 1 3) ] in
  let* plo = oneofl [ 0; 17; 1 lsl 33 ] and* key_span = span in
  let* created = oneofl [ 0; 5; 1 lsl 35 ] and* time_span = span in
  let* child_base = oneofl [ 0; 9; 1 lsl 50 ] in
  let* child_span = span and* value_span = oneofl [ `Same; `Any ] in
  let* alive = oneofl [ `None; `Some; `All ] in
  let phi = plo + 1 + key_span and last = created + time_span in
  let* records =
    list_repeat n
      (let* lo = frequency [ (1, return plo); (5, int_range plo (phi - 1)) ] in
       let* hi = frequency [ (1, return phi); (5, int_range (lo + 1) phi) ] in
       let* start = frequency [ (1, return created); (5, int_range created last) ] in
       let* stop = int_range start last in
       let* ends = match alive with `None -> return false | `All -> return true | `Some -> bool in
       let* s = gen_word and* c = gen_word in
       let* child = int_range child_base (child_base + child_span) in
       return
         { range = Interval.make lo hi; rt_start = start;
           rt_end = (if ends then forever else stop);
           value = (match value_span with `Same -> (7, -7) | `Any -> (s, c));
           child = (if level = 0 then None else Some child) })
  in
  let* points = list_repeat 20 (pair (int_range (plo - 2) (phi + 2)) (int_range (created - 2) (last + 2))) in
  return
    ( { pid = 3; level; prange = Interval.make plo phi; created;
        closed = (match alive with `All -> forever | _ -> last + 1); records },
      points )

(* Points at and beside every record's boundaries, and past the page's:
   below its low key and at its high key, before it was created, past
   every instant, and at [forever] itself. *)
let probes p =
  let keys =
    List.concat_map
      (fun r ->
        let { Interval.lo; hi } = r.range in
        [ lo - 1; lo; hi - 1; hi ])
      p.records
  and times =
    List.concat_map
      (fun r -> [ r.rt_start - 1; r.rt_start; r.rt_end - 1; min r.rt_end (forever - 1) ])
      p.records
  in
  let pick l i = List.nth l (i mod List.length l) in
  let { Interval.lo = plo; hi = phi } = p.prange and created = p.created in
  let past = List.fold_left (fun m r -> max m (min r.rt_end (forever - 2))) created p.records in
  List.init 40 (fun i -> (pick keys (i * 7), pick times (i * 13)))
  @ [ (plo, created); (plo - 1, created); (phi, created); (phi - 1, created - 1);
      (plo, past + 1); (phi - 1, forever - 1); (plo, forever) ]

let prop_page_layout =
  QCheck.Test.make ~name:"page layout: round trip, scan in place, least widths" ~count:300
    (QCheck.make
       ~print:(fun (p, _) ->
         Printf.sprintf "level %d, %d records, keys from %d, created %d" p.level
           (List.length p.records) p.prange.Interval.lo p.created)
       gen_page)
    (* at an unaligned offset, past bytes that are not zero *)
    (fun (p, points) -> check_layout p ~off:3 ~probes:(probes p @ points))

let record ~lo ~hi ~start ~stop value child =
  { range = Interval.make lo hi; rt_start = start; rt_end = stop; value; child }

(* A leaf of 200 records, each its own keys and times: 400 key
   boundaries and 300 instants, so every rank takes 2 bytes. *)
let many =
  { pid = 2; level = 0; prange = Interval.make 0 400; created = 5; closed = forever;
    records =
      List.init 200 (fun i ->
          record ~lo:(2 * i) ~hi:((2 * i) + 1) ~start:(5 + (3 * i))
            ~stop:(if i mod 2 = 0 then forever else 6 + (3 * i))
            (i, 1) None) }

(* The extremes the random pages reach only now and then: every column
   of width 0 but the high key's (one record, its value zero, its start
   and end [forever]); every dictionary, value and child 8 bytes wide;
   and ranks of 2 bytes. *)
let test_layout_extremes () =
  let narrow =
    { pid = 0; level = 0; prange = Interval.make 0 10; created = 4; closed = forever;
      records = [ record ~lo:0 ~hi:10 ~start:forever ~stop:forever (0, 0) None ] }
  and wide =
    { pid = 1; level = 1; prange = Interval.make 0 max_int; created = 0; closed = forever;
      records =
        [ record ~lo:0 ~hi:1 ~start:0 ~stop:(max_int - 1) (min_int, max_int) (Some 0);
          record ~lo:(max_int - 1) ~hi:max_int ~start:(max_int - 2) ~stop:forever
            (max_int, min_int) (Some max_int) ] }
  in
  let shape p =
    let buf, _ = encoded p ~off:0 in
    let _, _, kw, tw = dictionary_fields buf 0 in
    ((kw, tw), widths buf 0)
  in
  let expect name want p =
    Alcotest.(check (pair (pair int int) (list int))) name want (shape p)
  in
  expect "narrow" ((1, 0), [ 0; 1; 0; 0; 0; 0; 0 ]) narrow;
  expect "wide" ((8, 8), [ 1; 1; 1; 1; 8; 8; 8 ]) wide;
  expect "many" ((2, 2), [ 2; 2; 2; 2; 1; 0; 0 ]) many;
  List.iter
    (fun p ->
      ignore
        (check_layout p ~off:3
           ~probes:
             ([ (0, 0); (5, 4); (0, max_int - 2); (max_int - 1, max_int - 1); (9, 5); (1, 8);
                (398, 602); (399, 603); (-1, 5); (400, forever - 1); (0, forever) ]
             @ probes p)))
    [ narrow; wide; many ]

(* A pass over a frame that adds no value allocates nothing: [point]
   allocates its result pair and no more, 10,000 times over one frame,
   at a key between two records' ranges, at a time before the page, and
   at a key below it. *)
let test_scan_allocates_nothing () =
  let buf, len = encoded many ~off:0 in
  let frame = (buf, 0, len) in
  List.iter
    (fun (what, logical, key, at) ->
      Alcotest.(check (pair (pair int int) int)) what ((0, 0), -2)
        (Layout.point ~logical ~key ~at frame);
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Layout.point ~logical ~key ~at frame))
      done;
      let words = Gc.minor_words () -. before in
      if words > float_of_int ((3 * 10_000) + 64) then
        Alcotest.failf "%s: %.0f minor words over 10,000 scans" what words)
    [ ("a key between ranges", false, 101, 200); ("a time before the page", true, 101, 4);
      ("a key below the page", true, -1, 200) ]

(* A record whose rank runs past its dictionary is refused by name when
   the page is widened for a writer: the wide page is indexed by ranks
   with unchecked loads.  So is a page with more records than [b], or
   more entries than [2 b].  [many]'s ranks are 2 bytes each, the first
   record's low key rank its first field and its end rank its fourth.  A
   header may give a rank column 8 bytes, which no writer lays out: a
   rank of -1 there is refused too, not taken for one below the
   dictionary's size. *)
let test_widen_checks_ranks () =
  let buf, len = encoded many ~off:0 in
  let nk, nt, _, _ = dictionary_fields buf 0 in
  let first = len - 7 - (200 * List.fold_left ( + ) 0 (widths buf 0)) in
  let slot = bigarray (Layout.max_payload ~b:200) '\x00' in
  let widens ~b = Layout.widen ~b buf 0 len slot 0 in
  let set at v =
    Storage.Zcodec.set_u8 buf at (v land 0xff);
    Storage.Zcodec.set_u8 buf (at + 1) (v lsr 8)
  in
  let refused what ~b =
    match widens ~b with
    | exception Mvsbt.Malformed_frame { page = 2; _ } -> ()
    | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
    | () -> Alcotest.failf "%s: widened" what
  in
  List.iter
    (fun (what, at, bad, good) ->
      set at bad;
      refused what ~b:200;
      set at good;
      widens ~b:200;
      let again = bigarray (Layout.max_payload ~b:200) '\x00' in
      Alcotest.(check string) (what ^ ", restored") (bytes_of buf 0 len)
        (bytes_of again 0 (Layout.narrow slot 0 again 0)))
    [ ("a key rank of the dictionary's size", first, nk, 0);
      ("a key rank of 65535", first, 0xffff, 0);
      ("an end rank past forever's", first + 6, nt + 1, nt) ];
  refused "200 records for a b of 199" ~b:199;
  (* one record of one byte, its high key's rank into 2 keys; laid out
     again with that column 8 bytes wide *)
  let one =
    { pid = 3; level = 0; prange = Interval.make 0 10; created = 4; closed = forever;
      records = [ record ~lo:0 ~hi:10 ~start:forever ~stop:forever (0, 0) None ] }
  in
  let buf, len = encoded one ~off:0 in
  Alcotest.(check (list int)) "one rank of one byte" [ 0; 1; 0; 0; 0; 0; 0 ] (widths buf 0);
  let r = len - 7 - 1 and len8 = len + 7 in
  let buf8 = bigarray len8 '\x00' in
  Storage.Zcodec.blit buf 0 buf8 0 r;
  Storage.Zcodec.set_u8 buf8 (Layout.widths_at + 1) 8;
  let slot = bigarray (Layout.max_payload ~b:1) '\x00' in
  let widens8 rank =
    Storage.Zcodec.set_i64 buf8 r rank;
    Layout.widen ~b:1 buf8 0 len8 slot 0
  in
  widens8 1;
  let again = bigarray (Layout.max_payload ~b:1) '\x00' in
  Alcotest.(check string) "an 8-byte rank widens and narrows to 1 byte" (bytes_of buf 0 len)
    (bytes_of again 0 (Layout.narrow slot 0 again 0));
  match widens8 (-1) with
  | exception Mvsbt.Malformed_frame { page = 3; _ } -> ()
  | exception e -> Alcotest.failf "an 8-byte rank of -1: %s" (Printexc.to_string e)
  | () -> Alcotest.failf "an 8-byte rank of -1: widened"

(* --- The tree's heap ------------------------------------------------------------- *)

(* A tree keeps its pages off the heap, and its page table in about a
   word per live page: after a few thousand updates and a vacuum churn
   that frees most of the pages ever made, the words reachable from the
   handle stay within 4 per live page and a fixed allowance (the pool's
   index, root*, the scratch a writer reuses).  A decoded page (a record
   list), a hashed table entry per page (about 7 words), or a table that
   grows with every id ever allocated each break it. *)
let test_heap_footprint () =
  let key_space = 512 in
  let tree = T.create ~config:(mk_config ~b:16 ()) ~key_space () in
  let rng = make_rng 11 and now = ref 0 in
  let insert n =
    for _ = 1 to n do
      incr now;
      T.insert tree ~key:(rng key_space) ~at:!now (1 + rng 9)
    done
  in
  insert 3000;
  let ids = ref 0 in
  for _ = 1 to 12 do
    insert 1500;
    T.set_horizon tree (!now - 3000);
    List.iter
      (fun (pid, action) ->
        ids := max !ids (Storage.Page_id.to_int pid);
        match action with
        | T.Free_page -> ignore (T.vacuum_free tree pid)
        | T.Prune_records -> ignore (T.vacuum_prune tree pid))
      (T.vacuum_scan tree)
  done;
  T.check_invariants tree;
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr tree) and pages = T.page_count tree in
  if !ids < 4 * pages then Alcotest.failf "the churn left %d pages of %d ids" pages !ids;
  let bound = (4 * pages) + 3_000 in
  if words > bound then
    Alcotest.failf "%d words reachable from a tree of %d live pages (bound %d)" words pages bound

(* A page chunk is input from outside the program, and its id may lie
   far past the rest: one at 2^40 among a few hundred loads as an extra
   page, and the tree then saves, walks and grows in room that follows
   its live pages, not its highest id.  A save allocates about what it
   does without that page (some 60 KB), not a bitmap over 2^40 ids, and
   a load after it holds every page. *)
let test_far_page_id () =
  let tree = T.create ~config:(mk_config ~b:8 ()) ~key_space:64 () in
  let insert tree ~seed ~from n =
    let rng = make_rng seed in
    for at = from to from + n - 1 do
      T.insert tree ~key:(rng 64) ~at (1 + rng 9)
    done
  in
  insert tree ~seed:5 ~from:1 400;
  let dir = Filename.temp_dir "mvsbt_far" "" in
  let file name = Filename.concat dir name in
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let plain = allocated (fun () -> T.save tree ~path:(file "plain")) in
  (* the same snapshot with one more page chunk: a copy of the last page
     whose id is 2^40 *)
  let chunks =
    Storage.Frame.Reader.with_file Storage.Vfs.os ~path:(file "plain")
      ~magic:Mvsbt.snapshot_magic
    @@ fun rd ->
    let rec go acc =
      match Storage.Frame.Reader.next rd with
      | Whole f -> go (Bytes.sub f.buf f.pos (Storage.Frame.header_bytes + f.len) :: acc)
      | _ -> List.rev acc
    in
    go []
  in
  let state, pages = match chunks with s :: _ :: p -> (s, p) | _ -> assert false in
  let far = Bytes.copy (List.nth pages (List.length pages - 1)) in
  let len = Bytes.length far - Storage.Frame.header_bytes in
  Bytes.set_int64_le far Storage.Frame.header_bytes (Int64.shift_left 1L 40);
  Storage.Frame.seal far ~pos:0 ~len;
  let out = Storage.Vfs.os.v_open `Create (file "far") in
  let magic = Bytes.of_string Mvsbt.snapshot_magic in
  out.f_append magic 0 (Bytes.length magic);
  Storage.Frame.append_frame out state;
  let w = Storage.Frame.writer 4 in
  Storage.Codec.Writer.i32 w (List.length pages + 1);
  Storage.Frame.append out w;
  List.iter (Storage.Frame.append_frame out) (pages @ [ far ]);
  out.f_close ();
  let loaded = T.of_snapshot ~snapshot:(file "far") () in
  Alcotest.(check int) "the far page loads" (T.page_count tree + 1) (T.page_count loaded);
  let saved = allocated (fun () -> T.save loaded ~path:(file "again")) in
  if saved > (2. *. plain) +. 65536. then
    Alcotest.failf "a save with a page at id 2^40 allocated %.0f bytes (%.0f without)" saved plain;
  let again = T.of_snapshot ~snapshot:(file "again") () in
  Alcotest.(check int) "a load after the save holds every page" (T.page_count loaded)
    (T.page_count again);
  (* the loaded tree grows past the far id, and still saves whole *)
  insert loaded ~seed:6 ~from:401 200;
  insert tree ~seed:6 ~from:401 200;
  T.check_invariants loaded;
  Alcotest.(check int) "records" (T.record_count tree) (T.record_count loaded);
  T.save loaded ~path:(file "grown");
  let grown = T.of_snapshot ~snapshot:(file "grown") () in
  Alcotest.(check int) "pages after growing" (T.page_count loaded) (T.page_count grown);
  for key = 0 to 63 do
    for at = 0 to 61 do
      let at = at * 10 in
      Alcotest.(check int) (Printf.sprintf "query (%d,%d)" key at) (T.query tree ~key ~at)
        (T.query grown ~key ~at)
    done
  done;
  List.iter T.close [ loaded; again; grown ];
  List.iter (fun n -> Sys.remove (file n)) [ "plain"; "far"; "again"; "grown" ];
  Sys.rmdir dir

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_oracle; prop_height_bound; prop_pages_per_insertion;
      prop_root_count_grows_slowly; prop_page_layout; prop_root_star_model ]

let () =
  Alcotest.run "mvsbt"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single insert" `Quick test_single_insert;
          Alcotest.test_case "paper example (fig. 3)" `Quick test_paper_example;
          Alcotest.test_case "monotone time" `Quick test_monotone_time_enforced;
          Alcotest.test_case "key domain" `Quick test_key_domain_enforced;
          Alcotest.test_case "same-time batch" `Quick test_same_time_batch;
          Alcotest.test_case "future queries" `Quick test_future_queries_see_current_state;
          Alcotest.test_case "btree root*" `Quick test_root_star_btree_backed;
          Alcotest.test_case "disposal saves pages" `Quick test_disposal_reduces_pages;
          Alcotest.test_case "logical beats plain" `Quick test_logical_beats_plain_on_space;
          Alcotest.test_case "boundary keys" `Quick test_boundary_keys;
          Alcotest.test_case "durable file-backed tree" `Quick test_durable_mvsbt_direct;
          Alcotest.test_case "graphviz dump" `Quick test_pp_dot_smoke;
          Alcotest.test_case "heap footprint under vacuum churn" `Quick test_heap_footprint;
          Alcotest.test_case "a page id far past the rest" `Quick test_far_page_id;
          Alcotest.test_case "page layout extremes" `Quick test_layout_extremes;
          Alcotest.test_case "a scan that adds nothing allocates nothing" `Quick
            test_scan_allocates_nothing;
          Alcotest.test_case "widen checks every rank" `Quick test_widen_checks_ranks;
        ] );
      ("oracle", oracle_tests);
      ("properties", qcheck_tests);
    ]
