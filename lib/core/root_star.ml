module Time_key = struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end

module Dir = Btree.Make (Time_key) (struct
  type t = Storage.Page_id.t
end)

(* The in-memory directory: its first [n] entries, oldest first, as two
   arrays that double when full, one of registration times and one of
   page ids. *)
type roots = { mutable times : int array; mutable pids : int array }

type backing = Array_backed of roots | Btree_backed of Dir.t

type t = { backing : backing; mutable latest_at : int; mutable n : int }

let create ?(btree = false) ?stats () =
  let backing =
    if btree then Btree_backed (Dir.create ?stats ())
    else Array_backed { times = Array.make 16 0; pids = Array.make 16 0 }
  in
  { backing; latest_at = min_int; n = 0 }

let is_btree t = match t.backing with Btree_backed _ -> true | Array_backed _ -> false

let register t ~at pid =
  if at < t.latest_at then invalid_arg "Root_star.register: time went backwards";
  let replacing = at = t.latest_at && t.n > 0 in
  (match t.backing with
  | Array_backed a when replacing -> a.pids.(t.n - 1) <- Storage.Page_id.to_int pid
  | Array_backed a ->
      if t.n = Array.length a.times then begin
        let grow old = Array.append old (Array.make (Array.length old) 0) in
        a.times <- grow a.times;
        a.pids <- grow a.pids
      end;
      a.times.(t.n) <- at;
      a.pids.(t.n) <- Storage.Page_id.to_int pid
  | Btree_backed dir -> Dir.insert dir at pid);
  t.latest_at <- at;
  if not replacing then t.n <- t.n + 1

(* The newest entry registered at or before [at], by bisection. *)
let find t ~at =
  match t.backing with
  | Array_backed a ->
      (* Entries below [lo] start at or before [at], those from [hi] after. *)
      let lo = ref 0 and hi = ref t.n in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if a.times.(mid) <= at then lo := mid + 1 else hi := mid
      done;
      if !lo = 0 then raise Not_found;
      Storage.Page_id.of_int a.pids.(!lo - 1)
  | Btree_backed dir -> (
      match Dir.find_le dir at with Some (_, pid) -> pid | None -> raise Not_found)

let latest t =
  if t.n = 0 then raise Not_found;
  match t.backing with
  | Array_backed a -> Storage.Page_id.of_int a.pids.(t.n - 1)
  | Btree_backed dir -> (
      match Dir.max_binding dir with Some (_, pid) -> pid | None -> raise Not_found)

let count t = t.n

let drop_cache t =
  match t.backing with Array_backed _ -> () | Btree_backed dir -> Dir.drop_cache dir

(* Every entry, oldest first. *)
let entries t =
  match t.backing with
  | Array_backed a -> List.init t.n (fun i -> (a.times.(i), Storage.Page_id.of_int a.pids.(i)))
  | Btree_backed dir -> Dir.to_list dir

let prune t ~below =
  (* Entry i's tenure ends where entry i+1 begins; droppable iff that end
     is at or below the horizon (no query at time >= below can reach it).
     The last entry's tenure is open-ended, so it always survives. *)
  let rec classify = function
    | (ts, _) :: ((ts', _) :: _ as rest) when ts' <= below -> ts :: classify rest
    | _ -> []
  in
  let dropped = classify (entries t) in
  let d = List.length dropped in
  (match t.backing with
  | Array_backed a ->
      Array.blit a.times d a.times 0 (t.n - d);
      Array.blit a.pids d a.pids 0 (t.n - d)
  | Btree_backed dir -> List.iter (fun ts -> ignore (Dir.remove dir ts)) dropped);
  t.n <- t.n - d;
  d

let tenures t =
  let rec go = function
    | [ (ts, pid) ] -> [ (Interval.make ts max_int, pid) ]
    | (ts, pid) :: ((ts', _) :: _ as rest) -> (Interval.make ts ts', pid) :: go rest
    | [] -> []
  in
  go (entries t)
