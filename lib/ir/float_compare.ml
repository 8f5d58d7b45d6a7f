(** Float and float-buffer comparison — the single definition shared by the
    test-suites and the differential fuzzing oracle ({!Interp} output buffers
    are [float array]s).

    Two comparators are provided:
    - relative-epsilon: [|x - y| <= eps * (1 + |y|)] — the historical
      semantics-equivalence tolerance of the test-suite (transforms may
      reassociate float arithmetic, so bit-equality is too strict);
    - ULP distance: the number of representable doubles between two values,
      for callers that want a scale-free bound.

    Non-finite values compare structurally: two NaNs are equal, two
    infinities are equal iff they have the same sign. This keeps the
    comparators total on anything an interpreter run can produce. *)

let default_eps = 1e-3

(** Both non-finite and structurally equal (NaN ~ NaN, inf ~ inf same sign). *)
let same_non_finite x y =
  match (Float.classify_float x, Float.classify_float y) with
  | FP_nan, FP_nan -> true
  | FP_infinite, FP_infinite -> x = y
  | _ -> false

(** Relative-epsilon scalar comparison. Non-finite operands never take the
    arithmetic branch (inf - -inf = inf would satisfy any relative bound). *)
let close ?(eps = default_eps) x y =
  if Float.is_finite x && Float.is_finite y then
    x = y || Float.abs (x -. y) <= eps *. (1. +. Float.abs y)
  else x = y || same_non_finite x y

(* Map a double onto a monotone integer line: negative floats are reflected
   so that consecutive integers are consecutive representable doubles. *)
let ordered_bits f =
  let b = Int64.bits_of_float f in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

(** ULP distance between two doubles; [Int64.max_int] if either is NaN. *)
let ulp_dist x y =
  if Float.is_nan x || Float.is_nan y then Int64.max_int
  else
    let a = ordered_bits x and b = ordered_bits y in
    Int64.abs (Int64.sub a b)

(** ULP-bounded scalar comparison (NaN ~ NaN holds, mixed NaN does not). *)
let ulp_close ?(ulps = 64L) x y =
  same_non_finite x y || Int64.compare (ulp_dist x y) ulps <= 0

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
let compare_arrays ?eps want got =
  if Array.length want <> Array.length got then
    Some (Length { want = Array.length want; got = Array.length got })
  else
    let n = Array.length want in
    let rec go i =
      if i >= n then None
      else if close ?eps want.(i) got.(i) then go (i + 1)
      else Some (Element { index = i; want = want.(i); got = got.(i) })
    in
    go 0

let arrays_close ?eps a b = Option.is_none (compare_arrays ?eps a b)
