(* Tests of the Figure 1 lowering chain (affine -> scf -> unstructured CFG)
   and of the prebuilt pipelines / transform-library facade. *)

open Mir
open Dialects
open Scalehls
open Helpers

let test_affine_to_scf_semantics () =
  List.iter
    (fun k ->
      let ctx, m = compile_kernel ~n:6 k in
      let m' = Pass.run_one ~verify:true Lower.affine_to_scf ctx m in
      Alcotest.(check bool)
        (Models.Polybench.name k ^ ": no affine ops left")
        false
        (Walk.exists (fun o -> Affine_d.is_for o || Affine_d.is_if o) m');
      check_semantics ~msg:(Models.Polybench.name k ^ " affine->scf") k ~n:6 m m')
    Models.Polybench.all

let test_affine_to_scf_variable_bounds () =
  (* variable bounds materialize as arith ops feeding scf.for *)
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Syrk in
  let m' = Pass.run_one ~verify:true Lower.affine_to_scf ctx m in
  Alcotest.(check bool) "scf loops present" true (Walk.exists is_scf_for m');
  check_semantics ~msg:"syrk affine->scf" Models.Polybench.Syrk ~n:6 m m'

let test_scf_to_cf_structure () =
  let src = "void foo(float A[8], float B[8]) { for (int i = 0; i < 8; i++) { B[i] = A[i]; } }" in
  let ctx, m = compile_c_affine src in
  let m1 = Pass.run_one Lower.affine_to_scf ctx m in
  let m2 = Pass.run_one Lower.scf_to_cf ctx m1 in
  (* the paper's Figure 1(iii): header + body + exit blocks with branches *)
  Alcotest.(check bool) "br present" true (Walk.exists (fun o -> o.Ir.name = "cf.br") m2);
  Alcotest.(check bool) "cond_br present" true
    (Walk.exists (fun o -> o.Ir.name = "cf.cond_br") m2);
  Alcotest.(check bool) "no structured loops" false
    (Walk.exists (fun o -> is_scf_for o || Affine_d.is_for o) m2);
  let f = Ir.find_func_exn m2 "foo" in
  Alcotest.(check int) "four basic blocks" 4 (List.length (List.hd f.Ir.regions))

let test_scf_to_cf_if () =
  let src = "void g(float A[4]) { for (int i = 0; i < 4; i++) { if (i < 2) { A[i] = 1.0; } else { A[i] = 2.0; } } }" in
  let ctx, m = compile_c_affine src in
  let m2 =
    Pass.run_pipeline [ Lower.affine_to_scf; Lower.scf_to_cf ] ctx m
  in
  (* loop (3 extra blocks) + if (3 extra blocks) + entry *)
  let f = Ir.find_func_exn m2 "g" in
  Alcotest.(check int) "seven basic blocks" 7 (List.length (List.hd f.Ir.regions))

let test_pipeline_compile_c () =
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Gemm ~n:8) in
  check_verifies ~msg:"compile_c result" m;
  (* cleanup ran: the scf-era dead constants are gone *)
  let consts = Walk.count (fun o -> o.Ir.name = "arith.constant") m in
  Alcotest.(check bool) "dead constants pruned" true (consts <= 2)

let test_transform_lib_registry () =
  (* every Table 2 pass name resolves, to the row of that name *)
  let names =
    List.map (fun (r : Transform_lib.row) -> r.pass.Pass.pass_name) Transform_lib.all_passes
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (List.mem name names);
      match Transform_lib.find_pass name with
      | Some p -> Alcotest.(check string) (name ^ " resolves") name p.Pass.pass_name
      | None -> Alcotest.failf "%s does not resolve" name)
    [
      "legalize-dataflow"; "split-function"; "affine-loop-perfectization";
      "affine-loop-order-opt"; "remove-variable-bound"; "affine-loop-tile";
      "affine-loop-unroll"; "affine-loop-fusion"; "loop-pipelining";
      "func-pipelining"; "array-partition"; "simplify-affine-if";
      "affine-store-forward"; "simplify-memref-access"; "canonicalize"; "cse";
      "raise-scf-to-affine"; "lower-affine-to-scf"; "lower-scf-to-cf";
      "lower-graph"; "multiple-level-dse";
    ];
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "unknown pass rejected" true
    (Option.is_none (Transform_lib.find_pass "no-such-pass"))

let test_multiple_level_dse_pass () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let p = Option.get (Transform_lib.find_pass "multiple-level-dse") in
  let m' = Pass.run_one p ctx m in
  check_verifies ~msg:"dse pass output" m';
  let before = (Estimator.estimate m ~top:"gemm").Estimator.latency in
  let after = (Estimator.estimate m' ~top:"gemm").Estimator.latency in
  Alcotest.(check bool) "improved" true (after < before)

let test_pass_timing_report () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let _, timings =
    Pass.run_timed [ Canonicalize.pass; Cse.pass ] ctx m
  in
  (* each pass's verification is an entry of its own, after the pass *)
  Alcotest.(check (list string)) "entries"
    [ "canonicalize"; Pass.verifier_label; "cse"; Pass.verifier_label ]
    (List.map (fun (t : Pass.timing) -> t.Pass.label) timings);
  let report = Fmt.str "%a" Pass.pp_timings timings in
  Alcotest.(check bool) "mentions canonicalize" true (contains ~needle:"canonicalize" report);
  Alcotest.(check bool) "one verifier line" true
    (contains ~needle:(Pass.verifier_label ^ " (2 runs)") report);
  Alcotest.(check bool) "has a total" true (contains ~needle:"Total" report)

let suite =
  ( "lower",
    [
      Alcotest.test_case "affine->scf semantics (6 kernels)" `Slow test_affine_to_scf_semantics;
      Alcotest.test_case "affine->scf: variable bounds" `Quick test_affine_to_scf_variable_bounds;
      Alcotest.test_case "scf->cf: Figure 1 structure" `Quick test_scf_to_cf_structure;
      Alcotest.test_case "scf->cf: conditionals" `Quick test_scf_to_cf_if;
      Alcotest.test_case "compile_c pipeline" `Quick test_pipeline_compile_c;
      Alcotest.test_case "Table 2 pass registry" `Quick test_transform_lib_registry;
      Alcotest.test_case "-multiple-level-dse pass" `Slow test_multiple_level_dse_pass;
      Alcotest.test_case "-pass-timing report" `Quick test_pass_timing_report;
    ] )
