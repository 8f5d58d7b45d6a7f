(** Float and float-buffer comparison — the single definition shared by the
    test-suites and the differential fuzzing oracle ({!Interp} output buffers
    are [float array]s).

    The comparator is relative-epsilon: [|x - y| <= default_eps * (1 + |y|)],
    the semantics-equivalence tolerance of the test-suite (transforms may
    reassociate float arithmetic, so bit-equality is too strict).

    Non-finite values compare structurally: two NaNs are equal, two
    infinities are equal iff they have the same sign. This keeps the
    comparator total on anything an interpreter run can produce. *)

let default_eps = 1e-3

(** Both non-finite and structurally equal (NaN ~ NaN, inf ~ inf same sign). *)
let same_non_finite x y =
  match (Float.classify_float x, Float.classify_float y) with
  | FP_nan, FP_nan -> true
  | FP_infinite, FP_infinite -> x = y
  | _ -> false

(** Relative-epsilon scalar comparison. Non-finite operands never take the
    arithmetic branch (inf - -inf = inf would satisfy any relative bound). *)
let close x y =
  if Float.is_finite x && Float.is_finite y then
    x = y || Float.abs (x -. y) <= default_eps *. (1. +. Float.abs y)
  else x = y || same_non_finite x y

(** First disagreement between two buffers, if any. *)
type mismatch =
  | Length of { want : int; got : int }
  | Element of { index : int; want : float; got : float }

let pp_mismatch fmt = function
  | Length { want; got } -> Fmt.pf fmt "length mismatch: want %d, got %d" want got
  | Element { index; want; got } ->
      Fmt.pf fmt "buffers differ at [%d]: want %h (%g), got %h (%g)" index want
        want got got

(** Compare [got] against [want] element-wise with {!close}; [None] means the
    buffers agree. *)
let compare_arrays want got =
  if Array.length want <> Array.length got then
    Some (Length { want = Array.length want; got = Array.length got })
  else
    let n = Array.length want in
    let rec go i =
      if i >= n then None
      else if close want.(i) got.(i) then go (i + 1)
      else Some (Element { index = i; want = want.(i); got = got.(i) })
    in
    go 0
