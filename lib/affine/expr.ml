(** Affine expressions over dimension and symbol variables, mirroring MLIR's
    [AffineExpr]. Expressions are kept in a lightly-normalized form by the
    smart constructors; {!simplify} canonicalizes further into a
    sum-of-scaled-terms representation when possible. *)

type t =
  | Dim of int
  | Sym of int
  | Const of int
  | Add of t * t
  | Mul of t * t
  | Mod of t * t
  | Floor_div of t * t
  | Ceil_div of t * t

let dim i = Dim i
let sym i = Sym i
let const c = Const c

let rec equal a b =
  match (a, b) with
  | Dim i, Dim j | Sym i, Sym j -> i = j
  | Const c, Const d -> c = d
  | Add (a1, a2), Add (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Mod (a1, a2), Mod (b1, b2)
  | Floor_div (a1, a2), Floor_div (b1, b2)
  | Ceil_div (a1, a2), Ceil_div (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Dim _ | Sym _ | Const _ | Add _ | Mul _ | Mod _ | Floor_div _ | Ceil_div _), _
    -> false

(* Floor/ceil division with mathematically correct semantics for negative
   numerators, matching MLIR's affine semantics. *)
let floor_div a b =
  if b = 0 then invalid_arg "Expr.floor_div: division by zero";
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let ceil_div a b =
  if b = 0 then invalid_arg "Expr.ceil_div: division by zero";
  -floor_div (-a) b

let euclid_mod a b =
  if b = 0 then invalid_arg "Expr.mod_: modulo by zero";
  let r = a mod b in
  if r < 0 then r + abs b else r

(* Smart constructors performing constant folding and simple identities. *)
let rec add a b =
  match (a, b) with
  | Const 0, e | e, Const 0 -> e
  | Const x, Const y -> Const (x + y)
  | Add (e, Const x), Const y -> add e (Const (x + y))
  | Const _, e -> add e a
  | _ -> Add (a, b)

let rec mul a b =
  match (a, b) with
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, e | e, Const 1 -> e
  | Const x, Const y -> Const (x * y)
  | e, (Const _ as c) -> Mul (e, c)
  | (Const _ as c), e -> mul e c
  | _ -> Mul (a, b)

let neg e = mul e (Const (-1))
let sub a b = add a (neg b)

let mod_ a b =
  match (a, b) with
  | Const x, Const y when y > 0 -> Const (euclid_mod x y)
  | _, Const 1 -> Const 0
  | _ -> Mod (a, b)

let fdiv a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> Const (floor_div x y)
  | e, Const 1 -> e
  | _ -> Floor_div (a, b)

let cdiv a b =
  match (a, b) with
  | Const x, Const y when y <> 0 -> Const (ceil_div x y)
  | e, Const 1 -> e
  | _ -> Ceil_div (a, b)

(** [eval ~dims ~syms e] evaluates [e] with [Dim i] bound to [dims.(i)] and
    [Sym i] bound to [syms.(i)]. *)
let rec eval ~dims ~syms = function
  | Dim i ->
      if i >= Array.length dims then invalid_arg "Expr.eval: dim out of range";
      dims.(i)
  | Sym i ->
      if i >= Array.length syms then invalid_arg "Expr.eval: sym out of range";
      syms.(i)
  | Const c -> c
  | Add (a, b) -> eval ~dims ~syms a + eval ~dims ~syms b
  | Mul (a, b) -> eval ~dims ~syms a * eval ~dims ~syms b
  | Mod (a, b) -> euclid_mod (eval ~dims ~syms a) (eval ~dims ~syms b)
  | Floor_div (a, b) -> floor_div (eval ~dims ~syms a) (eval ~dims ~syms b)
  | Ceil_div (a, b) -> ceil_div (eval ~dims ~syms a) (eval ~dims ~syms b)

(** Substitute dims and syms with arbitrary expressions. [dims] maps dim index
    to replacement; same for [syms]. Missing entries keep the variable. *)
let rec substitute ?(dims = fun i -> Dim i) ?(syms = fun i -> Sym i) = function
  | Dim i -> dims i
  | Sym i -> syms i
  | Const c -> Const c
  | Add (a, b) -> add (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Mul (a, b) -> mul (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Mod (a, b) -> mod_ (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Floor_div (a, b) -> fdiv (substitute ~dims ~syms a) (substitute ~dims ~syms b)
  | Ceil_div (a, b) -> cdiv (substitute ~dims ~syms a) (substitute ~dims ~syms b)

(** Shift all dim indices by [delta] (used when concatenating dim spaces). *)
let shift_dims delta e = substitute ~dims:(fun i -> Dim (i + delta)) e

(* ---- Linear-form normalization ----------------------------------------- *)

(* A purely linear affine expression is a map var -> coefficient plus a
   constant. Variables are [`D i] or [`S i]. Mod/div subexpressions are
   treated as opaque atoms keyed by their structure. *)

module Term = struct
  type atom = D of int | S of int | Opaque of t

  let compare_atom a b =
    match (a, b) with
    | D i, D j | S i, S j -> compare i j
    | D _, _ -> -1
    | _, D _ -> 1
    | S _, _ -> -1
    | _, S _ -> 1
    | Opaque x, Opaque y -> compare x y
end

module Atom_map = Stdlib.Map.Make (struct
  type t = Term.atom

  let compare = Term.compare_atom
end)

type linear = { terms : int Atom_map.t; cst : int }

let linear_zero = { terms = Atom_map.empty; cst = 0 }

let linear_add_term atom coeff l =
  if coeff = 0 then l
  else
    let c = Option.value ~default:0 (Atom_map.find_opt atom l.terms) + coeff in
    let terms =
      if c = 0 then Atom_map.remove atom l.terms else Atom_map.add atom c l.terms
    in
    { l with terms }

let linear_plus a b =
  let terms =
    Atom_map.union (fun _ x y -> if x + y = 0 then None else Some (x + y)) a.terms b.terms
  in
  { terms; cst = a.cst + b.cst }

let linear_scale k l =
  if k = 0 then linear_zero
  else { terms = Atom_map.map (fun c -> c * k) l.terms; cst = l.cst * k }

(** Convert an expression into the canonical linear form. Mod/div atoms are
    first recursively simplified, then treated as opaque variables. *)
let rec to_linear e : linear =
  match e with
  | Const c -> { terms = Atom_map.empty; cst = c }
  | Dim i -> linear_add_term (Term.D i) 1 linear_zero
  | Sym i -> linear_add_term (Term.S i) 1 linear_zero
  | Add (a, b) -> linear_plus (to_linear a) (to_linear b)
  | Mul (a, b) -> (
      let la = to_linear a and lb = to_linear b in
      match (linear_is_const la, linear_is_const lb) with
      | Some ka, _ -> linear_scale ka lb
      | _, Some kb -> linear_scale kb la
      | None, None ->
          (* Non-affine product: keep opaque. *)
          linear_add_term (Term.Opaque (Mul (of_linear la, of_linear lb))) 1 linear_zero)
  | Mod (a, b) -> simplify_divmod (fun x y -> Mod (x, y)) a b
  | Floor_div (a, b) -> simplify_divmod (fun x y -> Floor_div (x, y)) a b
  | Ceil_div (a, b) -> simplify_divmod (fun x y -> Ceil_div (x, y)) a b

and linear_is_const l = if Atom_map.is_empty l.terms then Some l.cst else None

and simplify_divmod mk a b =
  let a' = of_linear (to_linear a) and b' = of_linear (to_linear b) in
  match (a', b', mk a' b') with
  | _, _, Const c -> { terms = Atom_map.empty; cst = c }
  | Const x, Const y, _ when y <> 0 -> (
      match mk (Const 0) (Const 1) with
      | Mod _ -> { terms = Atom_map.empty; cst = euclid_mod x y }
      | Floor_div _ -> { terms = Atom_map.empty; cst = floor_div x y }
      | _ -> { terms = Atom_map.empty; cst = ceil_div x y })
  | _ -> (
      (* When every variable coefficient of the numerator is divisible by a
         constant positive denominator k, the variable part contributes
         exactly (terms/k) to the floor/ceil quotient and nothing to the
         modulus, so only the constant offset remains to fold:
           (k*e + c) mod k      = c mod k
           (k*e + c) floordiv k = e + floor(c/k)
           (k*e + c) ceildiv k  = e + ceil(c/k)   (when c mod k = 0; else
                                                   keep ceil opaque unless
                                                   terms are empty) *)
      match b' with
      | Const k when k > 0 -> (
          let la = to_linear a' in
          let vars_divisible = Atom_map.for_all (fun _ c -> c mod k = 0) la.terms in
          match mk (Const 0) (Const 1) with
          | Mod _ when vars_divisible ->
              { terms = Atom_map.empty; cst = euclid_mod la.cst k }
          | Floor_div _ when vars_divisible ->
              {
                terms = Atom_map.map (fun c -> c / k) la.terms;
                cst = floor_div la.cst k;
              }
          | Ceil_div _ when vars_divisible && la.cst mod k = 0 ->
              { terms = Atom_map.map (fun c -> c / k) la.terms; cst = la.cst / k }
          | Ceil_div _ when Atom_map.is_empty la.terms ->
              { terms = Atom_map.empty; cst = ceil_div la.cst k }
          | _ -> linear_add_term (Term.Opaque (mk a' b')) 1 linear_zero)
      | _ -> linear_add_term (Term.Opaque (mk a' b')) 1 linear_zero)

and of_linear l =
  let sorted = Atom_map.bindings l.terms in
  let term_expr (atom, coeff) =
    let base =
      match atom with Term.D i -> Dim i | Term.S i -> Sym i | Term.Opaque e -> e
    in
    mul base (Const coeff)
  in
  let sum =
    List.fold_left (fun acc t -> add acc (term_expr t)) (Const 0) sorted
  in
  add sum (Const l.cst)

(** True when [e] is already in the form {!of_linear} builds for a linear
    form without opaque atoms: a constant, or a left-nested sum of [Dim]/[Sym]
    terms in strictly increasing atom order (dims before symbols), each bare
    when its coefficient is 1 and [Mul (atom, Const c)] with [c] outside
    [{0, 1}] otherwise, followed by an optional nonzero constant. Such an
    expression is its own simplification. *)
let is_canonical_linear e =
  (* {!Term.compare_atom}'s order on dims and symbols *)
  let atom_lt a b =
    match (a, b) with
    | Dim i, Dim j | Sym i, Sym j -> i < j
    | Dim _, Sym _ -> true
    | _ -> false
  in
  (* The atom of a canonical term; [Const 0] when [t] is not one. *)
  let term_atom t =
    match t with
    | Dim _ | Sym _ -> t
    | Mul (((Dim _ | Sym _) as a), Const c) when c <> 0 && c <> 1 -> a
    | _ -> Const 0
  in
  (* The last atom of a canonical term sum; [Const 0] when [s] is not one. *)
  let rec last_atom s =
    match s with
    | Add (rest, t) ->
        let a = last_atom rest and b = term_atom t in
        if atom_lt a b then b else Const 0
    | t -> term_atom t
  in
  let is_sum s = match last_atom s with Const _ -> false | _ -> true in
  match e with
  | Const _ -> true
  | Add (s, Const c) -> c <> 0 && is_sum s
  | s -> is_sum s

(** Canonicalize an affine expression. Linear parts are flattened and sorted;
    div/mod atoms are simplified where statically possible. An expression
    already in canonical linear form is returned as is. *)
let simplify e = if is_canonical_linear e then e else of_linear (to_linear e)

(** [coefficients ~num_dims e] returns [Some (dim_coeffs, const)] when [e] is
    purely linear in dims (symbols or opaque atoms make it [None]). *)
let coefficients ~num_dims e =
  let l = to_linear e in
  let coeffs = Array.make num_dims 0 in
  let ok =
    Atom_map.for_all
      (fun atom c ->
        match atom with
        | Term.D i when i < num_dims ->
            coeffs.(i) <- c;
            true
        | Term.D _ | Term.S _ | Term.Opaque _ -> false)
      l.terms
  in
  if ok then Some (coeffs, l.cst) else None

(** Largest dim index referenced, plus one ([0] if none). *)
let rec num_dims = function
  | Dim i -> i + 1
  | Sym _ | Const _ -> 0
  | Add (a, b) | Mul (a, b) | Mod (a, b) | Floor_div (a, b) | Ceil_div (a, b) ->
      max (num_dims a) (num_dims b)

let rec num_syms = function
  | Sym i -> i + 1
  | Dim _ | Const _ -> 0
  | Add (a, b) | Mul (a, b) | Mod (a, b) | Floor_div (a, b) | Ceil_div (a, b) ->
      max (num_syms a) (num_syms b)

let is_const = function Const _ -> true | _ -> false

let as_const = function Const c -> Some c | _ -> None

(** True when the expression is affine: no products of two non-constant
    subexpressions and divisors/moduli are positive constants. *)
let rec is_pure_affine = function
  | Dim _ | Sym _ | Const _ -> true
  | Add (a, b) -> is_pure_affine a && is_pure_affine b
  | Mul (a, b) -> (
      match (as_const (simplify a), as_const (simplify b)) with
      | None, None -> false
      | _ -> is_pure_affine a && is_pure_affine b)
  | Mod (a, b) | Floor_div (a, b) | Ceil_div (a, b) -> (
      match as_const (simplify b) with
      | Some k when k > 0 -> is_pure_affine a
      | Some _ | None -> false)

let rec pp fmt = function
  | Dim i -> Fmt.pf fmt "d%d" i
  | Sym i -> Fmt.pf fmt "s%d" i
  | Const c -> Fmt.pf fmt "%d" c
  | Add (a, Mul (b, Const -1)) -> Fmt.pf fmt "(%a - %a)" pp a pp b
  | Add (a, Const c) when c < 0 -> Fmt.pf fmt "(%a - %d)" pp a (-c)
  | Add (a, b) -> Fmt.pf fmt "(%a + %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf fmt "(%a * %a)" pp a pp b
  | Mod (a, b) -> Fmt.pf fmt "(%a mod %a)" pp a pp b
  | Floor_div (a, b) -> Fmt.pf fmt "(%a floordiv %a)" pp a pp b
  | Ceil_div (a, b) -> Fmt.pf fmt "(%a ceildiv %a)" pp a pp b

