(* Every metric the benchmark reports, as BENCHMARK.json lists it: its
   unit, which way is better, whether a user sees it end to end or it
   describes one layer, and the regression bound of an end-to-end one. *)

type kind = End_to_end | Per_layer
type better = Lower | Higher

type metric = { name : string; unit : string; better : better; kind : kind; bound : float option }
type t = metric list

module J = Telemetry.Json

let fail path fmt = Printf.ksprintf (fun s -> failwith (path ^ ": " ^ s)) fmt

let read path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok d -> d
  | Error e -> fail path "%s" e

let load path : t =
  let fail fmt = fail path fmt in
  let doc = read path in
  let entries kind key =
    match J.member key doc with
    | Some (J.List xs) ->
        List.map
          (fun x ->
            let str k = match J.member k x with Some (J.Str s) -> s | _ -> fail "a %s entry has no %S" key k in
            let name = str "name" in
            let better =
              match str "better" with "lower" -> Lower | "higher" -> Higher | b -> fail "%s: better is %S" name b
            in
            let bound =
              match (kind, J.member "bound" x) with
              | End_to_end, Some (J.Float b) -> Some b
              | End_to_end, Some (J.Int b) -> Some (float_of_int b)
              | End_to_end, _ -> fail "%s has no bound" name
              | Per_layer, _ -> None
            in
            { name; unit = str "unit"; better; kind; bound })
          xs
    | _ -> fail "no %S list" key
  in
  entries End_to_end "end_to_end" @ entries Per_layer "per_layer"

let find t name = List.find_opt (fun m -> m.name = name) t
let of_kind t k = List.filter (fun m -> m.kind = k) t
let better_string = function Lower -> "lower" | Higher -> "higher"

(* How long one run measures, in seconds. *)
let run_seconds path =
  match J.member "run_seconds" (read path) with
  | Some (J.Int n) -> float_of_int n
  | _ -> fail path "no whole run_seconds"

(* [true] when [b] reads better than [a] for [m]. *)
let improves m a b = match m.better with Lower -> b < a | Higher -> b > a

(* A pass must report exactly the metrics of its kind that the file lists. *)
let check t kind names =
  let what = match kind with End_to_end -> "end_to_end" | Per_layer -> "per_layer" in
  List.iter
    (fun n ->
      match find t n with
      | Some m when m.kind = kind -> ()
      | _ -> failwith (Printf.sprintf "the harness reports %s, which BENCHMARK.json does not list in %s" n what))
    names;
  List.iter
    (fun m ->
      if not (List.mem m.name names) then
        failwith (Printf.sprintf "BENCHMARK.json lists %s in %s, which the harness does not report" m.name what))
    (of_kind t kind)
