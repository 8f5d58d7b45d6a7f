(** Integer sets: conjunctions of affine constraints [e >= 0] or [e = 0] over
    dims and symbols, mirroring MLIR's [IntegerSet]. Used as the condition of
    [affine.if] operations. *)

type constraint_ = { expr : Expr.t; eq : bool }
(** [eq = true] means [expr = 0]; otherwise [expr >= 0]. *)

type t = { num_dims : int; num_syms : int; constraints : constraint_ list }

let make ~num_dims ~num_syms constraints =
  List.iter
    (fun c ->
      if Expr.num_dims c.expr > num_dims || Expr.num_syms c.expr > num_syms then
        invalid_arg "Set_.make: constraint references out-of-range variable")
    constraints;
  { num_dims; num_syms; constraints }

let ge_zero e = { expr = e; eq = false }
let eq_zero e = { expr = e; eq = true }

(** [e1 >= e2] as a constraint. *)
let ge e1 e2 = ge_zero (Expr.sub e1 e2)

(** [e1 <= e2] as a constraint. *)
let le e1 e2 = ge_zero (Expr.sub e2 e1)

let num_dims s = s.num_dims
let num_syms s = s.num_syms
let constraints s = s.constraints

(** Evaluate set membership for concrete dim/sym values. *)
let contains s ~dims ~syms =
  List.for_all
    (fun c ->
      let v = Expr.eval ~dims ~syms c.expr in
      if c.eq then v = 0 else v >= 0)
    s.constraints

let simplify s =
  let constraints =
    List.filter_map
      (fun c ->
        let e = Expr.simplify c.expr in
        match Expr.as_const e with
        | Some v when (c.eq && v = 0) || ((not c.eq) && v >= 0) ->
            None (* trivially true: drop *)
        | _ -> Some { c with expr = e })
      s.constraints
  in
  { s with constraints }

(** [Some true] if the set is trivially the whole space, [Some false] if some
    constraint is statically violated, [None] when undecided syntactically. *)
let trivial s =
  let decide c =
    match Expr.as_const (Expr.simplify c.expr) with
    | Some v -> Some (if c.eq then v = 0 else v >= 0)
    | None -> None
  in
  let rec go = function
    | [] -> Some true
    | c :: rest -> (
        match decide c with
        | Some false -> Some false
        | Some true -> go rest
        | None -> ( match go rest with Some false -> Some false | _ -> None))
  in
  go s.constraints

(** Decide constraints using known per-dim ranges [lo, hi] (inclusive):
    returns the set with all constraints provably true removed, or [None] if a
    constraint is provably false. Linear-only analysis; non-linear constraints
    are kept undecided. *)
let simplify_with_ranges s ~ranges =
  if Array.length ranges < s.num_dims then
    invalid_arg "Set_.simplify_with_ranges: not enough ranges";
  let bound_of_expr e =
    (* Interval arithmetic over the linear form. *)
    match Expr.coefficients ~num_dims:s.num_dims (Expr.simplify e) with
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
  in
  let rec go acc = function
    | [] -> Some { s with constraints = List.rev acc }
    | c :: rest -> (
        match bound_of_expr c.expr with
        | Some (lo, hi) when not c.eq ->
            if lo >= 0 then go acc rest (* always true *)
            else if hi < 0 then None (* always false *)
            else go (c :: acc) rest
        | Some (lo, hi) when c.eq ->
            if lo = 0 && hi = 0 then go acc rest
            else if lo > 0 || hi < 0 then None
            else go (c :: acc) rest
        | _ -> go (c :: acc) rest)
  in
  go [] s.constraints

let pp fmt s =
  let pp_c fmt c =
    Fmt.pf fmt "%a %s 0" Expr.pp c.expr (if c.eq then "==" else ">=")
  in
  Fmt.pf fmt "{ %a }" Fmt.(list ~sep:(any " and ") pp_c) s.constraints
