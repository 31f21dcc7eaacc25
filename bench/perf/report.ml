(* Result files: every rep's metric values, with medians and quartiles,
   and the comparison of two result files. *)

module J = Telemetry.Json

let schema = "perfbench/1"

type rep = {
  seed : int;
  started : float;  (** Wall-clock start (Unix time), to check alternation. *)
  attempted : int;
  failed : int;
  values : (string * float) list;
}

type t = {
  seconds : float;
  smoke : bool;
  workloads : (string * rep list) list;  (** Reps in run order. *)
}

let values name reps = Array.of_list (List.filter_map (fun r -> List.assoc_opt name r.values) reps)

(* The catalog's metrics that occur in [reps], in catalog order. *)
let names (catalog : Catalog.t) reps =
  List.filter (fun (m : Catalog.metric) -> List.exists (fun r -> List.mem_assoc m.name r.values) reps) catalog

let spread vs =
  let q1, q3 = Stats.quartiles vs in
  (q3 -. q1) /. Stats.median vs

(* --- JSON ------------------------------------------------------------------- *)

let to_json catalog t =
  let num x = J.Float x in
  let rep_json r =
    J.Obj
      [
        ("seed", J.Int r.seed);
        ("started", num r.started);
        ("attempted", J.Int r.attempted);
        ("failed", J.Int r.failed);
        ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) r.values));
      ]
  in
  let summary reps =
    J.Obj
      (List.map
         (fun (m : Catalog.metric) ->
           let vs = values m.name reps in
           let q1, q3 = Stats.quartiles vs in
           ( m.name,
             J.Obj
               ([
                  ("unit", J.Str m.unit);
                  ("better", J.Str (Catalog.better_string m.better));
                  ("n", J.Int (Array.length vs));
                  ("median", num (Stats.median vs));
                  ("q1", num q1);
                  ("q3", num q3);
                  ("spread", num (spread vs));
                ]
               @ match m.bound with Some b -> [ ("bound", num b) ] | None -> []) ))
         (names catalog reps))
  in
  J.Obj
    [
      ("schema", J.Str schema);
      ("seconds", num t.seconds);
      ("smoke", J.Bool t.smoke);
      ( "workloads",
        J.List
          (List.map
             (fun (name, reps) ->
               J.Obj [ ("name", J.Str name); ("reps", J.List (List.map rep_json reps)); ("summary", summary reps) ])
             t.workloads) );
    ]

let fail fmt = Printf.ksprintf failwith fmt

let of_json doc =
  let get k x = match J.member k x with Some v -> v | None -> fail "result: missing %S" k in
  let as_num k = function J.Float f -> f | J.Int i -> float_of_int i | _ -> fail "result: %S is not a number" k in
  let num k x = as_num k (get k x) in
  let int k x = match get k x with J.Int i -> i | _ -> fail "result: %S is not an integer" k in
  let obj k x = match get k x with J.Obj kvs -> kvs | _ -> fail "result: %S is not an object" k in
  let list k x = match get k x with J.List xs -> xs | _ -> fail "result: %S is not a list" k in
  if get "schema" doc <> J.Str schema then fail "result: schema is not %s" schema;
  {
    seconds = num "seconds" doc;
    smoke = (match get "smoke" doc with J.Bool b -> b | _ -> fail "result: bad smoke");
    workloads =
      List.map
        (fun w ->
          ( (match get "name" w with J.Str s -> s | _ -> fail "result: bad workload name"),
            List.map
              (fun r ->
                {
                  seed = int "seed" r;
                  started = num "started" r;
                  attempted = int "attempted" r;
                  failed = int "failed" r;
                  values = List.map (fun (k, v) -> (k, as_num k v)) (obj "metrics" r);
                })
              (list "reps" w) ))
        (list "workloads" doc);
  }

let read path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.of_string text with Ok doc -> of_json doc | Error e -> fail "%s: %s" path e

let write catalog path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (to_json catalog t));
      output_char oc '\n')

(* Reps of [extra] appended to those already in [t], workload by workload. *)
let merge t extra =
  if t.seconds <> extra.seconds || t.smoke <> extra.smoke then
    fail "result: cannot add runs of another length or scale to this file";
  let names = List.map fst t.workloads @ List.filter (fun n -> not (List.mem_assoc n t.workloads)) (List.map fst extra.workloads) in
  let reps src n = Option.value ~default:[] (List.assoc_opt n src.workloads) in
  { extra with workloads = List.map (fun n -> (n, reps t n @ reps extra n)) names }

(* --- Printing --------------------------------------------------------------- *)

let print_workload catalog name reps =
  Printf.printf "\n%s (%d run%s)\n" name (List.length reps) (if List.length reps = 1 then "" else "s");
  List.iter
    (fun (m : Catalog.metric) ->
      let vs = values m.name reps in
      let q1, q3 = Stats.quartiles vs in
      Printf.printf "  %-34s %14.6g %-6s  [q1 %.6g, q3 %.6g]\n" m.name (Stats.median vs) m.unit q1 q3)
    (names catalog reps)

(* --- Compare ---------------------------------------------------------------- *)

(* [true] when the runs were made in pairs, one of each side, and the side
   that ran first alternates from one pair to the next. *)
let alternated a b =
  List.length a = List.length b
  &&
  let runs =
    List.sort compare (List.map (fun r -> (r.started, `A)) a @ List.map (fun r -> (r.started, `B)) b)
  in
  let rec go prev_first = function
    | (_, x) :: (_, y) :: rest -> x <> y && Some x <> prev_first && go (Some x) rest
    | [] -> true
    | [ _ ] -> false
  in
  go None runs

type verdict = Gain | Better | Within | Unresolved | Regression | Info

let verdict_string = function
  | Gain -> "gain"
  | Better -> "better (every run)"
  | Within -> "within bound"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"
  | Info -> "-"

type judged = {
  ma : float;  (** Parent median. *)
  mb : float;  (** Change median. *)
  worse : float;  (** How much worse the change reads, as a share of the parent. *)
  wins : int;
  pairs : int;
  paired : bool;  (** [worse] and the spread come from alternated pairs. *)
  verdict : verdict;
}

(* The rule for a small shared machine.  A gain needs at least ten
   alternated pairs, the change winning nine in ten of them, and a median
   gap wider than the parent's interquartile range.  Against a bound, the
   change is judged on the median of its per-pair changes when the runs
   are alternated pairs, so slow drift of the host's speed, which moves
   both runs of a pair alike, cancels; otherwise on the two medians.
   Where the spread (of the per-pair changes, or of either side) exceeds
   the bound the metric is unresolved, unless every run of the change
   reads better than every run of the parent.  Per-layer metrics have no
   bound: only a gain or an every-run win is reported for them, except
   that the client's latency and throughput, which are too noisy for a
   bound, are a regression when, over at least five alternated pairs,
   every run of the change reads worse than every run of the parent. *)
let judge (m : Catalog.metric) ra rb =
  let has r = List.mem_assoc m.name r.values in
  let ra = List.filter has ra and rb = List.filter has rb in
  let a = values m.name ra and b = values m.name rb in
  let ma = Stats.median a and mb = Stats.median b in
  let q1a, q3a = Stats.quartiles a in
  let worse_than x y = match m.better with Lower -> (y -. x) /. x | Higher -> (x -. y) /. x in
  let by_start reps = values m.name (List.sort (fun x y -> compare x.started y.started) reps) in
  let sa = by_start ra and sb = by_start rb in
  let pairs = min (Array.length sa) (Array.length sb) in
  let changes = Array.init pairs (fun i -> worse_than sa.(i) sb.(i)) in
  let wins = Array.fold_left (fun n c -> if c < 0. then n + 1 else n) 0 changes in
  let paired = alternated ra rb in
  let worse, too_wide =
    if paired then
      let q1, q3 = Stats.quartiles changes in
      (Stats.median changes, fun bound -> q3 -. q1 > bound)
    else (worse_than ma mb, fun bound -> spread a > bound || spread b > bound)
  in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> Catalog.improves m x y) a) b in
  let all_worse =
    paired && pairs >= 5 && Array.for_all (fun y -> Array.for_all (fun x -> Catalog.improves m y x) a) b
  in
  let client = String.starts_with ~prefix:"client." m.name in
  let gain =
    paired && pairs >= 10
    && float_of_int wins >= 0.9 *. float_of_int pairs
    && Catalog.improves m ma mb
    && Float.abs (mb -. ma) > q3a -. q1a
  in
  let verdict =
    if gain then Gain
    else
      match m.bound with
      | None -> if all_better then Better else if client && all_worse then Regression else Info
      | Some bound ->
          if too_wide bound then if all_better then Better else Unresolved
          else if worse > bound then Regression
          else if all_better then Better
          else Within
  in
  { ma; mb; worse; wins; pairs; paired; verdict }

let compare_files catalog pa pb =
  let a = read pa and b = read pb in
  Printf.printf "parent: %s\nchange: %s\n" pa pb;
  Printf.printf "%-10s %-34s %12s %12s %8s %7s %6s  %s\n" "workload" "metric" "parent" "change" "worse" "bound"
    "wins" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (wname, ra) ->
      match List.assoc_opt wname b.workloads with
      | None -> Printf.printf "%-10s (no runs in %s)\n" wname pb
      | Some rb ->
          List.iter
            (fun (m : Catalog.metric) ->
              if Array.length (values m.name rb) > 0 then begin
                let j = judge m ra rb in
                if j.verdict = Regression then incr regressions;
                Printf.printf "%-10s %-34s %12.6g %12.6g %+7.1f%%%s %6s %3d/%-2d  %s\n" wname m.name j.ma j.mb
                  (100. *. j.worse)
                  (if j.paired then "p" else " ")
                  (match m.bound with Some x -> Printf.sprintf "%.0f%%" (100. *. x) | None -> "-")
                  j.wins j.pairs (verdict_string j.verdict)
              end)
            (names catalog ra))
    a.workloads;
  print_string
    "\n\
     worse: the change's median over the parent's, or with p the median of the\n\
     per-pair changes of alternated runs.  Runs that are not alternated pairs\n\
     are judged on the medians alone and can show no gain.\n";
  !regressions
