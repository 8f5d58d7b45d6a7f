(** Order statistics shared by the run, trace and compare commands. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(** Linearly interpolated quantile, [q] in [0, 1], of a non-empty list. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(** First and third quartile by the method of Python's
    [statistics.quantiles(values, n=4)] ("exclusive"), so spreads printed
    here match the ones computed from the same values in Python. A single
    value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: empty sample";
  if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty sample"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
