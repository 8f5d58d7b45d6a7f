(** Affine maps: functions [(d0..dn-1)[s0..sm-1] -> (e0, ..., ek-1)] mapping a
    list of dimension and symbol values to a list of affine results, mirroring
    MLIR's [AffineMap]. Used for loop bounds, memory access functions, and
    (crucially, §4.3.3 of the paper) memref layout / array-partition
    encodings. *)

type t = { num_dims : int; num_syms : int; results : Expr.t list }

let make ~num_dims ~num_syms results =
  List.iter
    (fun e ->
      if Expr.num_dims e > num_dims then
        invalid_arg "Map.make: result references out-of-range dim";
      if Expr.num_syms e > num_syms then
        invalid_arg "Map.make: result references out-of-range sym")
    results;
  { num_dims; num_syms; results }

let num_dims m = m.num_dims
let num_syms m = m.num_syms
let results m = m.results
let num_results m = List.length m.results

(** The d-dimensional identity map [(d0..dn-1) -> (d0..dn-1)]. *)
let identity n =
  { num_dims = n; num_syms = 0; results = List.init n (fun i -> Expr.dim i) }

(** A map with no dims producing constant results. *)
let constant cs =
  { num_dims = 0; num_syms = 0; results = List.map Expr.const cs }

(** A single-result map. *)
let of_expr ~num_dims ?(num_syms = 0) e = make ~num_dims ~num_syms [ e ]

let equal a b =
  a.num_dims = b.num_dims && a.num_syms = b.num_syms
  && List.length a.results = List.length b.results
  && List.for_all2 Expr.equal a.results b.results

let simplify m =
  let results = List.map Expr.simplify m.results in
  if List.for_all2 ( == ) results m.results then m else { m with results }

let is_identity m =
  m.num_syms = 0
  && num_results m = m.num_dims
  && List.for_all2 Expr.equal (List.map Expr.simplify m.results)
       (List.init m.num_dims Expr.dim)

(** Evaluate all results. *)
let eval m ~dims ~syms =
  if Array.length dims < m.num_dims then invalid_arg "Map.eval: too few dims";
  List.map (Expr.eval ~dims ~syms) m.results

let eval1 m ~dims ~syms =
  match eval m ~dims ~syms with
  | [ r ] -> r
  | _ -> invalid_arg "Map.eval1: map has multiple results"

(** [compose f g] is the map [x -> f (g x)]: [g]'s results feed [f]'s dims.
    Symbol spaces are concatenated ([f]'s symbols first). *)
let compose f g =
  if num_results g <> f.num_dims then
    invalid_arg "Map.compose: result/dim arity mismatch";
  let g_results = Array.of_list g.results in
  let g_shift = Expr.substitute ~syms:(fun i -> Expr.sym (i + f.num_syms)) in
  let results =
    List.map
      (fun e -> Expr.simplify (Expr.substitute ~dims:(fun i -> g_shift g_results.(i)) e))
      f.results
  in
  { num_dims = g.num_dims; num_syms = f.num_syms + g.num_syms; results }

(** Replace dims with the given expressions (over a fresh dim space of size
    [num_dims]). *)
let replace_dims ~num_dims reps m =
  let reps = Array.of_list reps in
  if Array.length reps <> m.num_dims then
    invalid_arg "Map.replace_dims: arity mismatch";
  {
    num_dims;
    num_syms = m.num_syms;
    results =
      List.map
        (fun e -> Expr.simplify (Expr.substitute ~dims:(fun i -> reps.(i)) e))
        m.results;
  }

(** Concatenate the results of two maps over the same dim/sym space. *)
let concat a b =
  if a.num_dims <> b.num_dims || a.num_syms <> b.num_syms then
    invalid_arg "Map.concat: space mismatch";
  { a with results = a.results @ b.results }

(** Permutation map: result [i] is [Dim (perm.(i))]. *)
let permutation perm =
  let n = Array.length perm in
  {
    num_dims = n;
    num_syms = 0;
    results = Array.to_list (Array.map Expr.dim perm);
  }

let is_single_constant m =
  match m.results with [ e ] -> Expr.as_const (Expr.simplify e) | _ -> None

let pp fmt m =
  let dims = List.init m.num_dims (fun i -> Fmt.str "d%d" i) in
  let syms = List.init m.num_syms (fun i -> Fmt.str "s%d" i) in
  Fmt.pf fmt "(%a)" Fmt.(list ~sep:comma string) dims;
  if syms <> [] then Fmt.pf fmt "[%a]" Fmt.(list ~sep:comma string) syms;
  Fmt.pf fmt " -> (%a)" Fmt.(list ~sep:comma Expr.pp) m.results

let to_string m = Fmt.str "%a" pp m
