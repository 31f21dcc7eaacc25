(* Tests for the MVSBT (lib/core/mvsbt.ml) against the brute-force
   dominance-sum oracle, plus structural invariants and the paper's worked
   example (figure 3). *)

module G = Aggregate.Group.Int_sum
module T = Mvsbt.Make (G)
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
  (* The file-resident MVSBT must match the in-memory one operation for
     operation, through a pool small enough to force real file traffic. *)
  let module D = T.Durable (struct
    let words = 1
    let encode put v = put v
    let decode next = next ()
  end) in
  let config = mk_config ~b:8 ~f:0.75 () in
  let path = Filename.temp_file "mvsbt_pages" ".db" in
  let stats = Storage.Io_stats.create () in
  let dur = D.create ~config ~pool_capacity:4 ~stats ~key_space:64 ~path () in
  let mem = T.create ~config ~key_space:64 () in
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
module SC = Mvsbt.Make (Aggregate.Group.Sum_count)

module Layout = SC.Record_codec (struct
  let words = 2

  let encode put (s, c) =
    put s;
    put c

  let decode next =
    let s = next () in
    let c = next () in
    (s, c)
end)

let forever = max_int

(* The codes a page stores in each column, in the column order the
   header's width bytes follow: low key, high key, start, end, the two
   value words, child.  [`Time] codes keep the all-ones code clear for
   [forever], which is representable at any width. *)
let column_codes (p : SC.page) =
  let recs = p.SC.records in
  let plo = p.SC.prange.Interval.lo in
  let spread xs =
    match xs with
    | [] -> []
    | x :: rest ->
        let least = List.fold_left min x rest in
        List.map (fun v -> v - least) xs
  in
  let times f =
    `Time
      (List.filter_map
         (fun r -> if f r = forever then None else Some (f r - p.SC.created))
         recs)
  in
  [ `Plain (List.map (fun r -> r.SC.range.Interval.lo - plo) recs);
    `Plain (List.map (fun r -> r.SC.range.Interval.hi - plo) recs);
    times (fun r -> r.SC.rt_start);
    times (fun r -> r.SC.rt_end);
    `Plain (spread (List.map (fun r -> fst r.SC.value) recs));
    `Plain (spread (List.map (fun r -> snd r.SC.value) recs));
    `Plain
      (spread
         (List.filter_map (fun r -> Option.map Storage.Page_id.to_int r.SC.child) recs)) ]

(* Whether [w] bytes hold [code], unsigned: a code that wrapped negative
   needs all 8; a time's code must also stay below the all-ones code. *)
let fits ~time code w =
  w = 8 || (code >= 0 && if time then code < (1 lsl (8 * w)) - 1 else code lsr (8 * w) = 0)

let check_layout (p : SC.page) ~off ~probes =
  let room = Layout.max_payload ~b:(List.length p.SC.records) in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (off + room) in
  Bigarray.Array1.fill buf '\xa5';
  let len = Layout.encode buf ~off ~len:room p in
  (* a page comes back whole *)
  if Layout.decode buf off len <> p then QCheck.Test.fail_report "the page does not decode back";
  (* each column in the fewest bytes, and the records one stride each *)
  let stride = ref 0 in
  List.iteri
    (fun c codes ->
      let w = Storage.Zcodec.get_u8 buf (off + Layout.widths_at + c) in
      stride := !stride + w;
      let time, codes = match codes with `Time cs -> (true, cs) | `Plain cs -> (false, cs) in
      let all w = List.for_all (fun code -> fits ~time code w) codes in
      if not (all w && (w = 0 || not (all (w - 1)))) then
        QCheck.Test.fail_reportf "column %d: width %d is not the least" c w)
    (column_codes p);
  if len <> Layout.header_bytes + (List.length p.SC.records * !stride) + 7 then
    QCheck.Test.fail_reportf "a %d-byte payload for stride %d" len !stride;
  (* a scan in place answers as a scan of the page *)
  List.iter
    (fun (key, at) ->
      List.iter
        (fun logical ->
          let want = SC.point ~logical ~key ~at p
          and got = Layout.point ~logical ~key ~at (buf, off, len) in
          if got <> want then
            QCheck.Test.fail_reportf "(%d, %d)%s: scanned (%d, %d) child %d, want (%d, %d) child %d"
              key at (if logical then " logical" else "") (fst (fst got)) (snd (fst got))
              (snd got) (fst (fst want)) (snd (fst want)) (snd want))
        [ true; false ])
    probes;
  true

(* A value word: zero, small of either sign, or extreme. *)
let gen_word =
  QCheck.Gen.(
    frequency
      [ (2, return 0); (4, int_range (-300) 300); (1, return max_int); (1, return min_int);
        (2, int) ])

(* A page of 1 to 64 records whose every column ranges over one value,
   a few bytes or all 8: keys in the page's range, times from [created]
   on (some [forever]), values of any sign, children any page id. *)
let gen_page =
  let open QCheck.Gen in
  let span = oneofl [ 0; 200; 70_000; 1 lsl 40; max_int / 4 ] in
  let* n = int_range 1 64 and* level = frequency [ (1, return 0); (1, int_range 1 3) ] in
  let* plo = oneofl [ 0; 17; 1 lsl 33 ] and* key_span = span in
  let* created = oneofl [ 0; 5; 1 lsl 35 ] and* time_span = span in
  let* child_base = oneofl [ 0; 9; 1 lsl 50 ] in
  let* child_span = span and* value_span = oneofl [ `Same; `Any ] in
  let* alive = oneofl [ `None; `Some; `All ] in
  let phi = plo + 1 + key_span in
  let* records =
    list_repeat n
      (let* lo = int_range plo (phi - 1) in
       let* hi = int_range (lo + 1) phi in
       let* start = int_range created (created + time_span) in
       let* stop = int_range start (created + time_span) in
       let* ends = match alive with `None -> return false | `All -> return true | `Some -> bool in
       let* s = gen_word and* c = gen_word in
       let* child = int_range child_base (child_base + child_span) in
       return
         { SC.range = Interval.make lo hi; rt_start = start;
           rt_end = (if ends then forever else stop);
           value = (match value_span with `Same -> (7, -7) | `Any -> (s, c));
           child = (if level = 0 then None else Some (Storage.Page_id.of_int child)) })
  in
  return
    { SC.pid = Storage.Page_id.of_int 3; level; prange = Interval.make plo phi; created;
      closed = (match alive with `All -> forever | _ -> created + time_span + 1); records }

(* Points at and beside every record's boundaries, and a few past the
   page's. *)
let probes (p : SC.page) =
  let keys =
    List.concat_map
      (fun r ->
        let { Interval.lo; hi } = r.SC.range in
        [ lo - 1; lo; hi - 1; hi ])
      p.SC.records
  and times =
    List.concat_map
      (fun r -> [ r.SC.rt_start - 1; r.SC.rt_start; r.SC.rt_end - 1; min r.SC.rt_end (forever - 1) ])
      p.SC.records
  in
  let pick l i = List.nth l (i mod List.length l) in
  List.init 40 (fun i -> (pick keys (i * 7), pick times (i * 13)))
  @ [ (p.SC.prange.Interval.lo, p.SC.created); (p.SC.prange.Interval.hi, forever - 1) ]

let prop_page_layout =
  QCheck.Test.make ~name:"page layout: round trip, scan in place, least widths" ~count:300
    (QCheck.make
       ~print:(fun p ->
         Printf.sprintf "level %d, %d records, keys from %d, created %d" p.SC.level
           (List.length p.SC.records) p.SC.prange.Interval.lo p.SC.created)
       gen_page)
    (* at an unaligned offset, past bytes that are not zero *)
    (fun p -> check_layout p ~off:3 ~probes:(probes p))

(* The two extremes the random pages reach only now and then: every
   column of width 0 but the high key's (one record, its value zero, its
   end [forever]), and every column 8 bytes wide. *)
let test_layout_extremes () =
  let record ~lo ~hi ~start ~stop value child =
    { SC.range = Interval.make lo hi; rt_start = start; rt_end = stop; value; child }
  in
  let narrow =
    { SC.pid = Storage.Page_id.of_int 0; level = 0; prange = Interval.make 0 10; created = 4;
      closed = forever;
      records = [ record ~lo:0 ~hi:10 ~start:forever ~stop:forever (0, 0) None ] }
  and wide =
    { SC.pid = Storage.Page_id.of_int 1; level = 1; prange = Interval.make 0 max_int; created = 0;
      closed = forever;
      records =
        [ record ~lo:0 ~hi:1 ~start:0 ~stop:(max_int - 1) (min_int, max_int)
            (Some (Storage.Page_id.of_int 0));
          record ~lo:(max_int - 1) ~hi:max_int ~start:(max_int - 2) ~stop:forever
            (max_int, min_int) (Some (Storage.Page_id.of_int max_int)) ] }
  in
  let widths p =
    let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 512 in
    ignore (Layout.encode buf ~off:0 ~len:512 p);
    List.init 7 (fun c -> Storage.Zcodec.get_u8 buf (Layout.widths_at + c))
  in
  Alcotest.(check (list int)) "narrow" [ 0; 1; 0; 0; 0; 0; 0 ] (widths narrow);
  Alcotest.(check (list int)) "wide" [ 8; 8; 8; 8; 8; 8; 8 ] (widths wide);
  List.iter
    (fun p ->
      ignore
        (check_layout p ~off:3
           ~probes:[ (0, 0); (5, 4); (0, max_int - 2); (max_int - 1, max_int - 1); (9, 5) ]))
    [ narrow; wide ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_oracle; prop_height_bound; prop_pages_per_insertion;
      prop_root_count_grows_slowly; prop_page_layout ]

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
          Alcotest.test_case "page layout extremes" `Quick test_layout_extremes;
        ] );
      ("oracle", oracle_tests);
      ("properties", qcheck_tests);
    ]
