(* Unit and property tests for the affine substrate: expressions, maps,
   integer sets, and the little solvers. *)

module A = Affine
open Helpers

let expr = Alcotest.testable A.Expr.pp A.Expr.equal

(* ---- Generators ------------------------------------------------------------ *)

let gen_expr ~num_dims =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map A.Expr.dim (int_range 0 (num_dims - 1));
        map A.Expr.const (int_range (-20) 20);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map2 A.Expr.add (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun e k -> A.Expr.mul e (A.Expr.const k)) (go (depth - 1)) (int_range (-6) 6));
          (1, map2 (fun e k -> A.Expr.mod_ e (A.Expr.const k)) (go (depth - 1)) (int_range 1 9));
          (1, map2 (fun e k -> A.Expr.fdiv e (A.Expr.const k)) (go (depth - 1)) (int_range 1 9));
          (1, map2 (fun e k -> A.Expr.cdiv e (A.Expr.const k)) (go (depth - 1)) (int_range 1 9));
        ]
  in
  go 3

let arb_expr =
  QCheck.make ~print:A.Expr.to_string (gen_expr ~num_dims:3)

let arb_expr_and_point =
  QCheck.make
    ~print:(fun (e, d) ->
      Fmt.str "%a at [%a]" A.Expr.pp e Fmt.(list ~sep:comma int) (Array.to_list d))
    QCheck.Gen.(
      pair (gen_expr ~num_dims:3) (array_size (return 3) (int_range (-15) 15)))

(* ---- Expression tests -------------------------------------------------------- *)

let test_floor_ceil_mod () =
  Alcotest.(check int) "floor 7/2" 3 (A.Expr.floor_div 7 2);
  Alcotest.(check int) "floor -7/2" (-4) (A.Expr.floor_div (-7) 2);
  Alcotest.(check int) "ceil 7/2" 4 (A.Expr.ceil_div 7 2);
  Alcotest.(check int) "ceil -7/2" (-3) (A.Expr.ceil_div (-7) 2);
  Alcotest.(check int) "mod -7 2" 1 (A.Expr.euclid_mod (-7) 2);
  Alcotest.(check int) "mod 7 2" 1 (A.Expr.euclid_mod 7 2)

let test_smart_constructors () =
  Alcotest.check expr "x+0 = x" (A.Expr.dim 0) (A.Expr.add (A.Expr.dim 0) (A.Expr.const 0));
  Alcotest.check expr "x*1 = x" (A.Expr.dim 0) (A.Expr.mul (A.Expr.dim 0) (A.Expr.const 1));
  Alcotest.check expr "x*0 = 0" (A.Expr.const 0) (A.Expr.mul (A.Expr.dim 0) (A.Expr.const 0));
  Alcotest.check expr "x mod 1 = 0" (A.Expr.const 0) (A.Expr.mod_ (A.Expr.dim 0) (A.Expr.const 1))

let test_simplify_linear () =
  (* (d0 + d0) + 2 - d0 simplifies to d0 + 2 *)
  let e =
    A.Expr.sub (A.Expr.add (A.Expr.add (A.Expr.dim 0) (A.Expr.dim 0)) (A.Expr.const 2)) (A.Expr.dim 0)
  in
  Alcotest.check expr "linear normal form"
    (A.Expr.add (A.Expr.dim 0) (A.Expr.const 2))
    (A.Expr.simplify e)

let test_simplify_divmod () =
  (* (16*d0 + 5) mod 16 = 5 *)
  let e =
    A.Expr.mod_
      (A.Expr.add (A.Expr.mul (A.Expr.const 16) (A.Expr.dim 0)) (A.Expr.const 5))
      (A.Expr.const 16)
  in
  Alcotest.check expr "(16d+5) mod 16" (A.Expr.const 5) (A.Expr.simplify e);
  (* (16*d0 + 5) floordiv 16 = d0 *)
  let e =
    A.Expr.fdiv
      (A.Expr.add (A.Expr.mul (A.Expr.const 16) (A.Expr.dim 0)) (A.Expr.const 5))
      (A.Expr.const 16)
  in
  Alcotest.check expr "(16d+5) floordiv 16" (A.Expr.dim 0) (A.Expr.simplify e)

let test_coefficients () =
  let e =
    A.Expr.add
      (A.Expr.add (A.Expr.mul (A.Expr.dim 0) (A.Expr.const 3)) (A.Expr.mul (A.Expr.dim 2) (A.Expr.const (-2))))
      (A.Expr.const 7)
  in
  match A.Expr.coefficients ~num_dims:3 e with
  | Some (coeffs, cst) ->
      Alcotest.(check (array int)) "coeffs" [| 3; 0; -2 |] coeffs;
      Alcotest.(check int) "const" 7 cst
  | None -> Alcotest.fail "expected linear"

let test_is_pure_affine () =
  Alcotest.(check bool) "d0*d1 not affine" false
    (A.Expr.is_pure_affine (A.Expr.Mul (A.Expr.dim 0, A.Expr.dim 1)));
  Alcotest.(check bool) "d0*3 affine" true
    (A.Expr.is_pure_affine (A.Expr.mul (A.Expr.dim 0) (A.Expr.const 3)));
  Alcotest.(check bool) "d0 mod d1 not affine" false
    (A.Expr.is_pure_affine (A.Expr.Mod (A.Expr.dim 0, A.Expr.dim 1)))

(* ---- Map tests --------------------------------------------------------------- *)

let test_map_identity () =
  let m = A.Map.identity 3 in
  Alcotest.(check bool) "is_identity" true (A.Map.is_identity m);
  Alcotest.(check (list int)) "eval id" [ 4; 5; 6 ]
    (A.Map.eval m ~dims:[| 4; 5; 6 |] ~syms:[||])

let test_map_compose () =
  (* f(x,y) = (x+y, x-y); g(x) = (2x, 3x); f.g(x) = (5x, -x) *)
  let f =
    A.Map.make ~num_dims:2 ~num_syms:0
      [ A.Expr.add (A.Expr.dim 0) (A.Expr.dim 1); A.Expr.sub (A.Expr.dim 0) (A.Expr.dim 1) ]
  in
  let g =
    A.Map.make ~num_dims:1 ~num_syms:0
      [ A.Expr.mul (A.Expr.dim 0) (A.Expr.const 2); A.Expr.mul (A.Expr.dim 0) (A.Expr.const 3) ]
  in
  let fg = A.Map.compose f g in
  Alcotest.(check (list int)) "compose eval" [ 35; -7 ]
    (A.Map.eval fg ~dims:[| 7 |] ~syms:[||])

let test_map_permutation () =
  let p = A.Map.permutation [| 2; 0; 1 |] in
  Alcotest.(check (list int)) "perm" [ 30; 10; 20 ]
    (A.Map.eval p ~dims:[| 10; 20; 30 |] ~syms:[||])

(* ---- Set tests --------------------------------------------------------------- *)

let test_set_contains () =
  (* { d0 >= 2 and d0 - d1 == 0 } *)
  let s =
    A.Set_.make ~num_dims:2 ~num_syms:0
      [
        A.Set_.ge_zero (A.Expr.sub (A.Expr.dim 0) (A.Expr.const 2));
        A.Set_.eq_zero (A.Expr.sub (A.Expr.dim 0) (A.Expr.dim 1));
      ]
  in
  Alcotest.(check bool) "in" true (A.Set_.contains s ~dims:[| 3; 3 |] ~syms:[||]);
  Alcotest.(check bool) "out eq" false (A.Set_.contains s ~dims:[| 3; 4 |] ~syms:[||]);
  Alcotest.(check bool) "out ge" false (A.Set_.contains s ~dims:[| 1; 1 |] ~syms:[||])

let test_set_ranges () =
  (* d0 - 3 >= 0 with d0 in [5, 9]: always true. *)
  let s =
    A.Set_.make ~num_dims:1 ~num_syms:0
      [ A.Set_.ge_zero (A.Expr.sub (A.Expr.dim 0) (A.Expr.const 3)) ]
  in
  (match A.Set_.simplify_with_ranges s ~ranges:[| (5, 9) |] with
  | Some s' -> Alcotest.(check int) "dropped" 0 (List.length (A.Set_.constraints s'))
  | None -> Alcotest.fail "should not be empty");
  (* with d0 in [0, 2]: always false. *)
  match A.Set_.simplify_with_ranges s ~ranges:[| (0, 2) |] with
  | None -> ()
  | Some _ -> Alcotest.fail "should be empty"

(* ---- Solver tests -------------------------------------------------------------- *)

let test_range_of_expr () =
  (* 2*d0 - d1 over d0 in [0,3], d1 in [1,2] -> [-2, 5] *)
  let e = A.Expr.sub (A.Expr.mul (A.Expr.const 2) (A.Expr.dim 0)) (A.Expr.dim 1) in
  match A.Solve.range_of_expr ~num_dims:2 ~ranges:[| (0, 3); (1, 2) |] e with
  | Some (lo, hi) ->
      Alcotest.(check int) "lo" (-2) lo;
      Alcotest.(check int) "hi" 5 hi
  | None -> Alcotest.fail "expected range"

let test_gcd_test () =
  (* 2x + 4y + 1 = 0 has no integer solution *)
  Alcotest.(check bool) "no solution" false (A.Solve.gcd_test [| 2; 4 |] 1);
  Alcotest.(check bool) "solution" true (A.Solve.gcd_test [| 2; 4 |] 6)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (A.Solve.divisors 12);
  Alcotest.(check (list int)) "powers" [ 1; 2; 4; 8 ] (A.Solve.powers_of_two 8)

(* ---- Properties ----------------------------------------------------------------- *)

let prop_simplify_preserves_eval =
  qtest ~count:500 "simplify preserves evaluation" arb_expr_and_point (fun (e, dims) ->
      try A.Expr.eval ~dims ~syms:[||] e = A.Expr.eval ~dims ~syms:[||] (A.Expr.simplify e)
      with Invalid_argument _ -> QCheck.assume_fail ())

let prop_simplify_idempotent =
  qtest ~count:300 "simplify is idempotent" arb_expr (fun e ->
      A.Expr.equal (A.Expr.simplify e) (A.Expr.simplify (A.Expr.simplify e)))

(* [e] with dim 2 turned into symbol 0, so that sums mix dims and symbols. *)
let with_symbol e =
  A.Expr.substitute ~dims:(fun i -> if i = 2 then A.Expr.sym 0 else A.Expr.dim i) e

let prop_simplify_shortcut_exact =
  (* the shortcut returns canonical linear forms as they are: simplify must
     still equal the full normalization, on random expressions and on the
     normalized ones the shortcut takes, and it must take every normalized
     form without opaque atoms *)
  qtest ~count:500 "simplify = of_linear (to_linear _)" arb_expr (fun e ->
      let full e = A.Expr.of_linear (A.Expr.to_linear e) in
      List.for_all
        (fun e ->
          let n = full e in
          let linear =
            A.Expr.Atom_map.for_all
              (fun atom _ -> match atom with A.Expr.Term.Opaque _ -> false | _ -> true)
              (A.Expr.to_linear n).A.Expr.terms
          in
          A.Expr.equal (A.Expr.simplify e) n
          && A.Expr.equal (A.Expr.simplify n) (full n)
          && ((not linear) || A.Expr.is_canonical_linear n))
        [ e; with_symbol e ])

let test_canonical_linear () =
  let open A.Expr in
  let accept =
    [
      Const 0;
      Const 5;
      Dim 0;
      Sym 1;
      Add (Add (Add (Dim 0, Mul (Dim 1, Const 3)), Mul (Sym 0, Const (-1))), Const (-2));
    ]
  in
  List.iter
    (fun e -> Alcotest.(check bool) ("accepts " ^ to_string e) true (is_canonical_linear e))
    accept;
  let reject =
    [
      ("d0 + 0", Add (Dim 0, Const 0));
      ("d0 * 1", Mul (Dim 0, Const 1));
      ("d1 + d0", Add (Dim 1, Dim 0));
      ("d0 + d0", Add (Dim 0, Dim 0));
      ("s0 + d0", Add (Sym 0, Dim 0));
      ("d0 * 0", Mul (Dim 0, Const 0));
      ("(d0 + 1) + 2", Add (Add (Dim 0, Const 1), Const 2));
      ("d0 mod 2", Mod (Dim 0, Const 2));
    ]
  in
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) ("rejects " ^ name) false (is_canonical_linear e))
    reject

let prop_floor_ceil_relation =
  qtest ~count:300 "ceil(a/b) = -floor(-a/b)"
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) -> A.Expr.ceil_div a b = -A.Expr.floor_div (-a) b)

let prop_mod_in_range =
  qtest ~count:300 "euclid mod in [0, b)"
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) ->
      let m = A.Expr.euclid_mod a b in
      m >= 0 && m < b)

let prop_div_mod_consistent =
  qtest ~count:300 "a = b*floor(a/b) + (a mod b)"
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 50))
    (fun (a, b) -> a = (b * A.Expr.floor_div a b) + A.Expr.euclid_mod a b)

let prop_compose_is_application =
  (* eval (compose f g) x = eval f (eval g x) on single-result pipelines *)
  qtest ~count:300 "map composition = function composition"
    (QCheck.make
       ~print:(fun ((e1, e2), d) ->
         Fmt.str "%a . %a at %d" A.Expr.pp e1 A.Expr.pp e2 d)
       QCheck.Gen.(pair (pair (gen_expr ~num_dims:1) (gen_expr ~num_dims:1)) (int_range (-10) 10)))
    (fun ((e1, e2), x) ->
      try
        let f = A.Map.of_expr ~num_dims:1 e1 and g = A.Map.of_expr ~num_dims:1 e2 in
        let fg = A.Map.compose f g in
        let inner = A.Map.eval1 g ~dims:[| x |] ~syms:[||] in
        A.Map.eval1 fg ~dims:[| x |] ~syms:[||]
        = A.Map.eval1 f ~dims:[| inner |] ~syms:[||]
      with Invalid_argument _ -> QCheck.assume_fail ())

let prop_range_sound =
  qtest ~count:300 "interval bound contains all sampled values"
    (QCheck.make
       ~print:(fun (e, _) -> A.Expr.to_string e)
       QCheck.Gen.(pair (gen_expr ~num_dims:2) (pair (int_range 0 5) (int_range 0 5))))
    (fun (e, (x, y)) ->
      match A.Solve.range_of_expr ~num_dims:2 ~ranges:[| (0, 5); (0, 5) |] e with
      | None -> true
      | Some (lo, hi) ->
          let v = A.Expr.eval ~dims:[| x; y |] ~syms:[||] e in
          lo <= v && v <= hi)

let suite =
  ( "affine",
    [
      Alcotest.test_case "floor/ceil/mod arithmetic" `Quick test_floor_ceil_mod;
      Alcotest.test_case "smart constructors fold" `Quick test_smart_constructors;
      Alcotest.test_case "linear simplification" `Quick test_simplify_linear;
      Alcotest.test_case "div/mod simplification" `Quick test_simplify_divmod;
      Alcotest.test_case "coefficients extraction" `Quick test_coefficients;
      Alcotest.test_case "canonical linear forms" `Quick test_canonical_linear;
      Alcotest.test_case "pure-affine recognition" `Quick test_is_pure_affine;
      Alcotest.test_case "identity map" `Quick test_map_identity;
      Alcotest.test_case "map composition" `Quick test_map_compose;
      Alcotest.test_case "permutation map" `Quick test_map_permutation;
      Alcotest.test_case "set membership" `Quick test_set_contains;
      Alcotest.test_case "set range simplification" `Quick test_set_ranges;
      Alcotest.test_case "interval of linear expr" `Quick test_range_of_expr;
      Alcotest.test_case "gcd dependence test" `Quick test_gcd_test;
      Alcotest.test_case "divisors and powers" `Quick test_divisors;
      prop_simplify_preserves_eval;
      prop_simplify_idempotent;
      prop_simplify_shortcut_exact;
      prop_floor_ceil_relation;
      prop_mod_in_range;
      prop_div_mod_consistent;
      prop_compose_is_application;
      prop_range_sound;
    ] )
