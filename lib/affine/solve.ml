(** Lightweight affine "solvers" used by dependence analysis and the
    remove-variable-bound pass: interval bounds of linear expressions over
    boxed iteration domains, constant differences of expressions, and the
    GCD dependence test. *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Interval [lo, hi] of a linear expression over dims with inclusive ranges
    [ranges.(i) = (lo_i, hi_i)]. [None] if the expression is not linear in the
    dims. *)
let range_of_expr ~num_dims ~ranges e =
  match Expr.coefficients ~num_dims (Expr.simplify e) with
  | None -> None
  | Some (coeffs, cst) ->
      let lo = ref cst and hi = ref cst in
      Array.iteri
        (fun i c ->
          if c <> 0 then begin
            let l, h = ranges.(i) in
            if c > 0 then begin
              lo := !lo + (c * l);
              hi := !hi + (c * h)
            end
            else begin
              lo := !lo + (c * h);
              hi := !hi + (c * l)
            end
          end)
        coeffs;
      Some (!lo, !hi)

(** GCD test: can [sum_i coeff_i * d_i + cst = 0] have an integer solution?
    Returns [false] only when a dependence is definitely impossible. *)
let gcd_test coeffs cst =
  let g = Array.fold_left (fun acc c -> gcd acc c) 0 coeffs in
  if g = 0 then cst = 0 else cst mod g = 0

(** All divisors of [n] in increasing order. *)
let divisors n =
  if n <= 0 then []
  else
    let rec go i acc = if i > n then List.rev acc else go (i + 1) (if n mod i = 0 then i :: acc else acc) in
    go 1 []

(** Powers of two [<= n] (at least [1]). *)
let powers_of_two n =
  let rec go p acc = if p > n then List.rev acc else go (p * 2) (p :: acc) in
  go 1 []
