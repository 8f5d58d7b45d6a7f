(** Affine memory dependence analysis over loop bands. Access functions are
    assumed (and checked to be) linear over the band's induction variables;
    dependences between accesses with equal coefficient matrices are {e
    uniform} and yield constant distance/direction vectors. Anything else is
    treated conservatively. Used by loop-order legality (§5.2.2), pipelining
    II estimation (Eq. 4), and loop fusion. *)

open Mir

module A = Affine

type direction = Eq | Lt of int  (** forced positive distance *) | Star

type dep = {
  src : Mem_access.t;
  dst : Mem_access.t;
  dirs : direction list;  (** one per band dim, outermost first *)
}

(* ---- Rational feasibility via Fourier-Motzkin --------------------------------
   Constraints are [coeffs . x + cst >= 0], or [= 0] when passed as
   equalities. Rational relaxation of the integer
   dependence problem: infeasible (rational) implies infeasible (integer), so
   pruning a direction is sound; feasible keeps the dependence
   (conservative). *)

module Fm = struct
  type lin = { coeffs : int array; cst : int }

  exception Give_up

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let normalize (c : lin) =
    let g = Array.fold_left (fun acc x -> gcd acc x) (abs c.cst) c.coeffs in
    if g > 1 then
      { coeffs = Array.map (fun x -> x / g) c.coeffs; cst = c.cst / g }
    else c

  (* b*p + a*n eliminates variable v when p.(v) = a > 0 and n.(v) = -b < 0. *)
  let combine v (p : lin) (n : lin) =
    let a = p.coeffs.(v) and b = -n.coeffs.(v) in
    let coeffs =
      Array.init (Array.length p.coeffs) (fun i ->
          (b * p.coeffs.(i)) + (a * n.coeffs.(i)))
    in
    normalize { coeffs; cst = (b * p.cst) + (a * n.cst) }

  (* |a|*c - sign(a)*b*e, with a = e.(v) <> 0 and b = c.(v): drops variable
     v from [c]. As [e] is zero, the result has the sign of [c] scaled by
     |a| > 0, so this serves inequalities and equalities alike. *)
  let substitute v (e : lin) (c : lin) =
    let b = c.coeffs.(v) in
    if b = 0 then c
    else
      let a = e.coeffs.(v) in
      let ma = abs a and mb = if a > 0 then b else -b in
      normalize
        {
          coeffs =
            Array.init (Array.length c.coeffs) (fun i ->
                (ma * c.coeffs.(i)) - (mb * e.coeffs.(i)));
          cst = (ma * c.cst) - (mb * e.cst);
        }

  (* Gaussian elimination of the equalities [eqs] (each [= 0]) from [cons]:
     exact over the rationals. [None] when the equalities alone are
     inconsistent. *)
  let rec substitute_eqs eqs cons =
    match eqs with
    | [] -> Some cons
    | (e : lin) :: rest -> (
        let v = ref (-1) in
        Array.iteri (fun i c -> if c <> 0 && !v < 0 then v := i) e.coeffs;
        if !v < 0 then if e.cst = 0 then substitute_eqs rest cons else None
        else
          let sub = List.map (substitute !v e) in
          substitute_eqs (sub rest) (sub cons))

  (** Rational feasibility of the conjunction of [eqs] (each [= 0]) and
      [cons] (each [>= 0]) over [nvars] variables. The equalities are
      substituted away first, so only the inequalities reach the
      Fourier-Motzkin elimination. Raises [Give_up] past the blowup cap. *)
  let feasible ~eqs ~nvars cons =
    let cap = 3000 in
    let rec go v cons =
      if List.length cons > cap then raise Give_up;
      if v = nvars then
        List.for_all (fun (c : lin) -> c.cst >= 0) cons
      else begin
        let pos, rest = List.partition (fun c -> c.coeffs.(v) > 0) cons in
        let neg, zero = List.partition (fun c -> c.coeffs.(v) < 0) rest in
        let combined =
          List.concat_map (fun p -> List.map (fun n -> combine v p n) neg) pos
        in
        go (v + 1) (zero @ combined)
      end
    in
    match substitute_eqs (List.map normalize eqs) (List.map normalize cons) with
    | None -> false
    | Some cons -> go 0 cons
end

(** Linear form of an access: per array dim, (coeffs over band dims, const).
    [None] when some dim expression is not linear. *)
let linear_form ~num_dims (a : Mem_access.t) =
  let rows = List.map (A.Expr.coefficients ~num_dims) a.Mem_access.exprs in
  if List.for_all Option.is_some rows then Some (List.map Option.get rows)
  else None

(** Compute the dependence between two accesses to the same memref, as a
    family of direction vectors over [num_dims] band dims. Returns [None] if
    the accesses provably never touch the same element; [Some dirs] otherwise.
    Conservative fallback: all-[Star].

    Uniform case (equal coefficient rows): solving
    [A·I + k_src = A·(I + delta) + k_dst] gives [A·delta = k_src - k_dst];
    dims appearing with nonzero coefficient get a forced delta, dims absent
    from every row are free ([Star]). *)
let dependence_forms ~num_dims (src : Mem_access.t) forms_src
    (dst : Mem_access.t) forms_dst =
  if src.Mem_access.memref.Ir.vid <> dst.Mem_access.memref.Ir.vid then None
  else if not (src.Mem_access.is_store || dst.Mem_access.is_store) then None
  else
    match (forms_src, forms_dst) with
    | Some rows_s, Some rows_d ->
        let coeffs_equal =
          List.for_all2 (fun (cs, _) (cd, _) -> cs = cd) rows_s rows_d
        in
        if not coeffs_equal then
          (* Non-uniform: first the GCD test, then a rational feasibility
             refinement with iteration domains and affine.if guards
             (Fourier-Motzkin). Without domain info, fall back to all-Star. *)
          let impossible =
            List.exists2
              (fun (cs, ks) (cd, kd) ->
                (* src indices over I, dst over I' — treat as 2n dims:
                   cs·I - cd·I' + (ks - kd) = 0 must be solvable. *)
                let coeffs = Array.append cs (Array.map (fun c -> -c) cd) in
                not (A.Solve.gcd_test coeffs (ks - kd)))
              rows_s rows_d
          in
          if impossible then None
          else Some (List.init num_dims (fun _ -> Star))
        else
          (* Uniform: per band dim j, collect the forced delta_j if some row
             has a nonzero coefficient on j. Allocation-free inner loops:
             this runs once per ordered same-memref access pair, which is
             quadratic in the body's access count on wide unrolled bodies. *)
          let exception Independent in
          let rows =
            List.map2 (fun (cs, ks) (_, kd) -> (cs, ks - kd)) rows_s rows_d
          in
          let dir_of j =
            (* Tentatively solve assuming all other deltas are 0:
               cs.(j) * delta_j = bd for each row where only dim j appears;
               a row with several nonzero coeffs cannot isolate — Star. *)
            let seen = ref false and forced = ref 0 in
            List.iter
              (fun ((cs : int array), bd) ->
                if cs.(j) <> 0 then begin
                  let others = ref false in
                  Array.iteri
                    (fun i c -> if i <> j && c <> 0 then others := true)
                    cs;
                  if not !others then
                    if bd mod cs.(j) <> 0 then raise Independent
                    else begin
                      let d = bd / cs.(j) in
                      if !seen then begin
                        if d <> !forced then raise Independent
                      end
                      else begin
                        seen := true;
                        forced := d
                      end
                    end
                end)
              rows;
            if not !seen then Star else if !forced = 0 then Eq else Lt !forced
          in
          (try
             let ds = List.init num_dims dir_of in
             (* Rows with coefficient only outside j were ignored; check the
                pure-constant rows: coeffs all zero -> need b = 0. *)
             let const_rows_ok =
               List.for_all
                 (fun ((cs : int array), bd) ->
                   Array.exists (fun c -> c <> 0) cs || bd = 0)
                 rows
             in
             if const_rows_ok then Some ds else None
           with Independent -> None)
    | _ -> Some (List.init num_dims (fun _ -> Star))

(* ---- Guard- and domain-aware refinement ----------------------------------- *)

(* The src-before-dst direction of a non-uniform pair, carried at band level
   [level]: is it feasible, given iteration domains [ranges] (inclusive, in
   iteration space) and the accesses' affine.if guards? Variables are
   x = I ++ I' (2*num_dims). *)
let direction_feasible ~num_dims ~ranges (src : Mem_access.t) (dst : Mem_access.t)
    ~level =
  let nvars = 2 * num_dims in
  let lin coeffs cst = { Fm.coeffs; cst } in
  let var side d =
    (* unit vector for I_d (side=0) or I'_d (side=1) *)
    let a = Array.make nvars 0 in
    a.((side * num_dims) + d) <- 1;
    a
  in
  let cons = ref [] and eqs = ref [] in
  let add c = cons := c :: !cons in
  let add_eq c = eqs := c :: !eqs in
  (* domains *)
  Array.iteri
    (fun d (lo, hi) ->
      List.iter
        (fun side ->
          add (lin (var side d) (-lo));
          add (lin (Array.map (fun x -> -x) (var side d)) hi))
        [ 0; 1 ])
    ranges;
  (* touch equalities from the linear rows *)
  let rows side (a : Mem_access.t) =
    List.map
      (fun e ->
        match A.Expr.coefficients ~num_dims (A.Expr.simplify e) with
        | Some (coeffs, cst) ->
            let full = Array.make nvars 0 in
            Array.iteri (fun d c -> full.((side * num_dims) + d) <- c) coeffs;
            Some (full, cst)
        | None -> None)
      a.Mem_access.exprs
  in
  let rs = rows 0 src and rd = rows 1 dst in
  let ok = ref true in
  List.iter2
    (fun r1 r2 ->
      match (r1, r2) with
      | Some (c1, k1), Some (c2, k2) ->
          add_eq (lin (Array.init nvars (fun i -> c1.(i) - c2.(i))) (k1 - k2))
      | _ -> ok := false)
    rs rd;
  (* guards *)
  let add_guards side (a : Mem_access.t) =
    List.iter
      (fun (c : A.Set_.constraint_) ->
        match A.Expr.coefficients ~num_dims (A.Expr.simplify c.A.Set_.expr) with
        | Some (coeffs, cst) ->
            let full = Array.make nvars 0 in
            Array.iteri (fun d v -> full.((side * num_dims) + d) <- v) coeffs;
            (if c.A.Set_.eq then add_eq else add) (lin full cst)
        | None -> () (* unrepresentable guard: drop (sound) *))
      a.Mem_access.guards
  in
  add_guards 0 src;
  add_guards 1 dst;
  (* lexicographic ordering: I_d = I'_d for d < level; I'_level >= I_level+1 *)
  for d = 0 to level - 1 do
    let diff = Array.init nvars (fun i ->
        if i = d then 1 else if i = num_dims + d then -1 else 0)
    in
    add_eq (lin diff 0)
  done;
  let lt = Array.init nvars (fun i ->
      if i = level then -1 else if i = num_dims + level then 1 else 0)
  in
  add (lin lt (-1));
  if not !ok then true
  else try Fm.feasible ~eqs:!eqs ~nvars !cons with Fm.Give_up -> true

(* Replace an all-Star (non-uniform) dependence by one dep per feasible
   carried level; [] when no level is feasible (no loop-carried dep). *)
let refine_star_dep ~num_dims ~ranges (dep : dep) =
  if not (List.for_all (( = ) Star) dep.dirs) then [ dep ]
  else
    List.filter_map
      (fun level ->
        if direction_feasible ~num_dims ~ranges dep.src dep.dst ~level then
          Some
            {
              dep with
              dirs =
                List.init num_dims (fun d ->
                    if d < level then Eq else if d = level then Lt 1 else Star);
            }
        else None)
      (List.init num_dims Fun.id)

(* ---- The pair sieve --------------------------------------------------------- *)

(* Residue signature of a linear form within a coefficient class: one entry
   per access-map row — the full constant for all-zero rows (the uniform
   solve requires equal constants there), the constant modulo the stride for
   rows with exactly one nonzero coefficient (the solve requires the
   constant difference divisible by it), and a don't-care marker for
   multi-coefficient rows (the solve derives no divisibility from them).
   Two same-class accesses with different signatures provably have no
   dependence: [dependence_forms] would raise [Independent] on the
   divisibility check or fail the constant-row check. *)
let residue_sig rows =
  List.map
    (fun ((cs : int array), k) ->
      let nz = ref 0 and last = ref 0 in
      Array.iter
        (fun c ->
          if c <> 0 then begin
            incr nz;
            last := c
          end)
        cs;
      match !nz with
      | 0 -> k
      | 1 ->
          let m = abs !last in
          ((k mod m) + m) mod m
      | _ -> min_int)
    rows

(* Residue key of a linear form against another coefficient class: per row
   r, with [g] the gcd of both classes' coefficients on r ([class_gcds]),
   the constant when [g = 0] and the constant modulo [g] otherwise (0 when
   [g = 1]). Two accesses of different classes pass the GCD test of
   [dependence_forms] exactly when their keys are equal. *)
let class_gcds rows_a rows_b =
  List.map2
    (fun (ca, _) (cb, _) ->
      Array.fold_left A.Solve.gcd (Array.fold_left A.Solve.gcd 0 ca) cb)
    rows_a rows_b

let cross_key gcds rows =
  List.map2 (fun g (_, k) -> if g = 0 then k else ((k mod g) + g) mod g) gcds rows

(** The pair sieve over [accs], with [forms.(i) = linear_form accs.(i)]:
    calls [f i j] once for each ordered pair (src [i], dst [j]) that
    [dependence_forms] may answer [Some] for; every pair it passes over
    provably has no dependence. It builds nothing per pair. Accesses are
    grouped by memref (cross-memref pairs never depend); groups without a
    store are skipped, and so is every pair without a store. Inside a
    group:
    - same-coefficient-class accesses pair only inside a residue bucket
      ({!residue_sig}), the uniform solve's divisibility sieve;
    - two different classes pair only on equal {!cross_key}s, the GCD test
      done before enumeration, so [dependence_forms] answers all-[Star]
      for each such pair;
    - non-linear accesses pair with every access, both ways;
    - each store pairs with itself (its recurrence across iterations). *)
let iter_pairs (accs : Mem_access.t array) forms f =
  let store i = accs.(i).Mem_access.is_store in
  let emit i j = if store i || store j then f i j in
  let both_ways i j =
    emit i j;
    emit j i
  in
  let ordered_pairs ms =
    List.iter (fun i -> List.iter (fun j -> if i <> j then emit i j) ms) ms
  in
  (* [ms] bucketed by [key_of]: the table, and the buckets in order of first
     appearance, each in access order *)
  let bucket key_of ms =
    let tbl = Hashtbl.create 8 and order = ref [] in
    List.iter
      (fun i ->
        let k = key_of i in
        match Hashtbl.find_opt tbl k with
        | Some r -> r := i :: !r
        | None ->
            order := k :: !order;
            Hashtbl.add tbl k (ref [ i ]))
      ms;
    (tbl, List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order)
  in
  let rows i = Option.get forms.(i) in
  let rec cross = function
    | [] -> ()
    | ma :: rest ->
        List.iter
          (fun mb ->
            let gcds = class_gcds (rows (List.hd ma)) (rows (List.hd mb)) in
            let tbl, _ = bucket (fun j -> cross_key gcds (rows j)) mb in
            List.iter
              (fun i ->
                match Hashtbl.find_opt tbl (cross_key gcds (rows i)) with
                | Some r -> List.iter (both_ways i) !r
                | None -> ())
              ma)
          rest;
        cross rest
  in
  let _, groups =
    bucket
      (fun i -> accs.(i).Mem_access.memref.Ir.vid)
      (List.init (Array.length accs) Fun.id)
  in
  List.iter
    (fun members ->
      if List.exists store members then begin
        let regular, irregular =
          List.partition (fun i -> Option.is_some forms.(i)) members
        in
        let _, classes = bucket (fun i -> List.map fst (rows i)) regular in
        List.iter
          (fun ms ->
            List.iter ordered_pairs (snd (bucket (fun i -> residue_sig (rows i)) ms)))
          classes;
        cross classes;
        List.iter (fun i -> List.iter (both_ways i) regular) irregular;
        ordered_pairs irregular;
        List.iter (fun i -> if store i then f i i) members
      end)
    groups

(** All dependences among [accs] (ordered pairs, both directions, and each
    store with itself), over [num_dims] band dims: [dependence_forms] folded
    over {!iter_pairs}. [ranges] (inclusive iteration-space bounds per dim)
    enables the guard-aware Fourier-Motzkin refinement of non-uniform
    dependences. The order is unspecified; consumers treat the result as a
    set. *)
let all_deps ?ranges ~num_dims accs =
  let accs = Array.of_list accs in
  let forms = Array.map (linear_form ~num_dims) accs in
  let deps = ref [] in
  iter_pairs accs forms (fun i j ->
      match dependence_forms ~num_dims accs.(i) forms.(i) accs.(j) forms.(j) with
      | None -> ()
      | Some dirs -> (
          let dep = { src = accs.(i); dst = accs.(j); dirs } in
          match ranges with
          | None -> deps := dep :: !deps
          | Some ranges ->
              deps := List.rev_append (refine_star_dep ~num_dims ~ranges dep) !deps));
  !deps

(** Expand [Star] entries into [Lt 1] and [Eq] alternatives, producing the
    set of concrete direction vectors to check for permutation legality.
    Reverse directions are covered because {!all_deps} emits ordered pairs
    both ways. *)
let expand_dirs dirs =
  List.fold_left
    (fun acc d ->
      match d with
      | Star -> List.concat_map (fun v -> [ v @ [ Eq ]; v @ [ Lt 1 ] ]) acc
      | d -> List.map (fun v -> v @ [ d ]) acc)
    [ [] ] dirs

(** Is a permuted direction vector legal (lexicographically non-negative)?
    [perm.(i)] is the new position of original dim [i]. *)
let permuted_legal perm dirs =
  let n = List.length dirs in
  let arr = Array.make n Eq in
  List.iteri (fun i d -> arr.(perm.(i)) <- d) dirs;
  let rec scan i =
    if i >= n then true
    else
      match arr.(i) with
      | Eq -> scan (i + 1)
      | Lt d when d > 0 -> true
      | Lt _ -> false
      | Star -> false
  in
  scan 0

(** Is permutation [perm] legal for all dependences [deps]? *)
let permutation_legal perm deps =
  List.for_all
    (fun dep -> List.for_all (permuted_legal perm) (expand_dirs dep.dirs))
    deps

(** Is the band fully permutable — every dependence direction component
    non-negative? This is the legality condition for rectangular tiling with
    point loops sunk innermost (the tile execution order interleaves all band
    dims, so lexicographic non-negativity alone is not enough). A
    lexicographically negative vector is the reverse image of an ordered pair
    and does not constrain; [Star] components are conservatively rejected
    (unknown sign, could become a backward component inside a tile). *)
let fully_permutable deps =
  let rec lex_negative = function
    | Eq :: rest -> lex_negative rest
    | Lt d :: _ -> d < 0
    | (Star :: _ | []) -> false
  in
  let component_nonneg = function Eq -> true | Lt d -> d > 0 | Star -> false in
  List.for_all
    (fun dep -> lex_negative dep.dirs || List.for_all component_nonneg dep.dirs)
    deps

(** Loop-carried dependence distance on band dim [dim], assuming all other
    dims are equal ([Eq]): for II computation of a pipelined loop. Returns
    [None] when no dependence is carried by [dim];
    [Some d] with the (positive) forced distance otherwise. [Star] at [dim]
    means carried at every distance: returns [Some 1]. *)
let carried_distance ~dim dep =
  let ok_elsewhere =
    List.for_all
      (fun (j, d) -> j = dim || d = Eq || d = Star)
      (List.mapi (fun j d -> (j, d)) dep.dirs)
  in
  if not ok_elsewhere then None
  else
    match List.nth dep.dirs dim with
    | Eq -> None
    | Lt d when d > 0 -> Some d
    | Lt _ -> None
    | Star -> Some 1
