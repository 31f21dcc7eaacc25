(* Order statistics over float samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q

(* As Python's [statistics.median]. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile as Python's [statistics.quantiles (n=4)] with
   its default exclusive method, so the spreads printed here are the ones
   an external check computes from the same values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* A growable column of samples, each with the time it was taken. *)
module Series = struct
  type t = { mutable n : int; mutable at : float array; mutable v : float array }

  let create () = { n = 0; at = Array.make 4096 0.; v = Array.make 4096 0. }

  let add t ~at x =
    if t.n = Array.length t.v then begin
      t.at <- Array.append t.at (Array.make t.n 0.);
      t.v <- Array.append t.v (Array.make t.n 0.)
    end;
    t.at.(t.n) <- at;
    t.v.(t.n) <- x;
    t.n <- t.n + 1

  (* [f ats vs] on the samples of each slice of [t0, t1) that is [width]
     seconds long, then the [q]-quantile over the slices that have at
     least two samples.  The host slows down in spells of a fraction of a
     second to minutes, and a spell only ever adds time: a low quantile
     (a high one, for a rate) over short slices reads the program in the
     host's quiet moments, where a quantile over the whole run moves with
     however much of the run the spells covered. *)
  let sliced t ~t0 ~t1 ~width ~q f =
    let k = max 1 (int_of_float ((t1 -. t0) /. width)) in
    let slices = Array.make k [] in
    for i = t.n - 1 downto 0 do
      let j = int_of_float (float_of_int k *. (t.at.(i) -. t0) /. (t1 -. t0)) in
      if j >= 0 && j < k then slices.(j) <- i :: slices.(j)
    done;
    Array.to_list slices
    |> List.filter_map (function
         | [] | [ _ ] -> None
         | is ->
             let is = Array.of_list is in
             Some (f (Array.map (fun i -> t.at.(i)) is) (Array.map (fun i -> t.v.(i)) is)))
    |> Array.of_list
    |> fun a -> quantile a q

  let quantile t q = quantile (Array.sub t.v 0 t.n) q
end
