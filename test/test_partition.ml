(* Array-partition tests: the affine layout-map encoding of Figure 3, the
   Eq. 1 metric, inter-procedural propagation, and round-trip properties. *)

open Mir
open Dialects
open Scalehls
open Helpers

module A = Affine

(* ---- Figure 3 encodings ---------------------------------------------------------- *)

let test_fig3_cyclic () =
  (* (b): dim 0 cyclic factor 2 on a [4;8] array:
     (d0, d1) -> (d0 mod 2, 0, d0 floordiv 2, d1) *)
  let map = Hlscpp.partition_layout ~shape:[ 4; 8 ] [ Hlscpp.Cyclic 2; Hlscpp.None_p ] in
  Alcotest.(check (list int)) "index (3, 5)" [ 1; 0; 1; 5 ]
    (A.Map.eval map ~dims:[| 3; 5 |] ~syms:[||])

let test_fig3_block () =
  (* (c): dim 1 block factor 4 on an [4;8] array: block size 2 *)
  let map = Hlscpp.partition_layout ~shape:[ 4; 8 ] [ Hlscpp.None_p; Hlscpp.Block 4 ] in
  Alcotest.(check (list int)) "index (1, 5)" [ 0; 2; 1; 1 ]
    (A.Map.eval map ~dims:[| 1; 5 |] ~syms:[||])

let test_partition_roundtrip_cases () =
  List.iter
    (fun spec ->
      let shape = [ 8; 16 ] in
      let map = Hlscpp.partition_layout ~shape spec in
      match Hlscpp.partition_of_layout ~shape map with
      | Some spec' -> Alcotest.(check bool) "decode(encode) = id" true (spec = spec')
      | None -> Alcotest.fail "decode failed")
    [
      [ Hlscpp.None_p; Hlscpp.None_p ];
      [ Hlscpp.Cyclic 2; Hlscpp.None_p ];
      [ Hlscpp.None_p; Hlscpp.Block 4 ];
      [ Hlscpp.Cyclic 4; Hlscpp.Cyclic 8 ];
      [ Hlscpp.Block 2; Hlscpp.Cyclic 4 ];
    ]

let prop_partition_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 3)
        (oneof
           [
             return Hlscpp.None_p;
             map (fun f -> Hlscpp.Cyclic (1 lsl f)) (int_range 1 3);
             map (fun f -> Hlscpp.Block (1 lsl f)) (int_range 1 3);
           ]))
  in
  qtest ~count:200 "partition encode/decode round-trip"
    (QCheck.make ~print:(fun spec -> Fmt.str "[%a]" Fmt.(list ~sep:comma Hlscpp.pp_partition) spec) gen)
    (fun spec ->
      let shape = List.map (fun _ -> 16) spec in
      let map = Hlscpp.partition_layout ~shape spec in
      Hlscpp.partition_of_layout ~shape map = Some spec)

let prop_banks_cover_all_cells =
  (* every logical index maps to a valid (bank, physical) pair; cyclic
     partitions spread consecutive indices over distinct banks *)
  qtest ~count:200 "cyclic partition spreads consecutive indices"
    QCheck.(pair (int_range 1 3) (int_range 0 12))
    (fun (logf, i) ->
      let f = 1 lsl logf in
      let shape = [ 16 ] in
      let layout = Hlscpp.partition_layout ~shape [ Hlscpp.Cyclic f ] in
      let mr = Ty.as_memref (Ty.memref ~layout:(Some layout) shape Ty.F32) in
      (* the layout's first result is the partition index of the one dim *)
      let bank i =
        match Affine.Map.eval layout ~dims:[| i |] ~syms:[||] with
        | part :: _ -> Hlscpp.linear_bank mr [ part ]
        | [] -> -1
      in
      let b1 = bank i and b2 = bank (i + 1) in
      b1 >= 0 && b1 < f && (f = 1 || b1 <> b2))

let test_num_banks () =
  let mr shape spec =
    Ty.as_memref
      (Ty.memref ~layout:(Some (Hlscpp.partition_layout ~shape spec)) shape Ty.F32)
  in
  Alcotest.(check int) "2x4 banks" 8
    (Hlscpp.num_banks (mr [ 8; 8 ] [ Hlscpp.Cyclic 2; Hlscpp.Block 4 ]));
  Alcotest.(check int) "unpartitioned" 1
    (Hlscpp.num_banks (Ty.as_memref (Ty.memref [ 8; 8 ] Ty.F32)))

(* ---- Eq. 1 metric ------------------------------------------------------------------ *)

let test_metric_cyclic_vs_block () =
  (* offsets {0,1}: count 2, span 2 -> P = 1 -> cyclic 2 *)
  Alcotest.(check bool) "adjacent -> cyclic" true
    (Array_partition.partition_for_dim [ A.Expr.dim 0; A.Expr.add (A.Expr.dim 0) (A.Expr.const 1) ]
    = Hlscpp.Cyclic 2);
  (* offsets {0,4}: count 2, span 5 -> P < 1 -> block 2 *)
  Alcotest.(check bool) "strided -> block" true
    (Array_partition.partition_for_dim [ A.Expr.dim 0; A.Expr.add (A.Expr.dim 0) (A.Expr.const 4) ]
    = Hlscpp.Block 2);
  (* single access -> none *)
  Alcotest.(check bool) "single -> none" true
    (Array_partition.partition_for_dim [ A.Expr.dim 0 ] = Hlscpp.None_p)

(* ---- The pass on real kernels -------------------------------------------------------- *)

let optimized_gemm () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let pt = { Dse.lp = true; rvb = false; perm = [ 1; 2; 0 ]; tiles = [ 2; 1; 4 ]; target_ii = 1 } in
  (ctx, m, Dse.apply_point ctx m ~top:"gemm" pt)

let test_pass_partitions_unrolled_arrays () =
  let _, _, m' = optimized_gemm () in
  let f = Ir.find_func_exn m' "gemm" in
  let partitioned =
    List.filter
      (fun (v : Ir.value) ->
        match v.Ir.vty with
        | Ty.Memref mr -> Hlscpp.num_banks mr > 1
        | _ -> false)
      (Func.func_args f)
  in
  Alcotest.(check bool) "some argument arrays partitioned" true (partitioned <> [])

let test_pass_is_semantics_neutral () =
  (* partitioning only changes types/layout, not behaviour *)
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Gemm in
  let m1 =
    Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass; Loop_pipeline.pass () ] ctx m
  in
  let m2 = Array_partition.run ctx m1 in
  check_verifies ~msg:"partitioned verifies" m2;
  check_semantics ~msg:"array partition" Models.Polybench.Gemm ~n:6 m1 m2

let test_interprocedural_propagation () =
  (* an array accessed in a pipelined callee gets its partition reflected on
     the caller side of the call *)
  let src =
    {|
void stagef(float A[8]) {
  for (int i = 0; i < 8; i++) {
    A[i] = A[i] + 1.0;
  }
}
void top(float A[8]) {
  stagef(A);
}
|}
  in
  let ctx, m = compile_c_affine src in
  (* unroll + pipeline the callee loop to force a partition demand *)
  let stagef = Ir.find_func_exn m "stagef" in
  let stagef =
    Ir.with_body stagef
      (List.map
         (fun o ->
           if Affine_d.is_for o then
             match Loop_unroll.unroll_by ctx o ~factor:4 with
             | Some o' -> (
                 match Loop_pipeline.pipeline_band ctx ~depth:0 o' with
                 | Some o'' -> o''
                 | None -> o')
             | None -> o
           else o)
         (Func.func_body stagef))
  in
  let m = Ir.replace_func m stagef in
  let m = Pass.run_pipeline [ Canonicalize.pass ] ctx m in
  let m' = Array_partition.run ctx m in
  let callee_arg = List.hd (Func.func_args (Ir.find_func_exn m' "stagef")) in
  let caller_arg = List.hd (Func.func_args (Ir.find_func_exn m' "top")) in
  let banks (v : Ir.value) =
    match v.Ir.vty with Ty.Memref mr -> Hlscpp.num_banks mr | _ -> 0
  in
  Alcotest.(check bool) "callee partitioned" true (banks callee_arg > 1);
  Alcotest.(check int) "caller type matches callee" (banks callee_arg) (banks caller_arg)

let test_dram_arrays_not_partitioned () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref ~memspace:Ty.Memspace.dram [ 8 ] Ty.F32 in
  let f =
    Func.func ctx ~name:"d" ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        [
          Affine_d.for_const ctx ~lb:0 ~ub:8 (fun iv ->
              let lop, lv = load_id ctx mem [ iv ] in
              [ lop; store_id ctx lv mem [ iv ]; Affine_d.yield ]);
          Func.return_ [];
        ])
  in
  let f =
    Ir.with_body f
      (List.map
         (fun o ->
           if Affine_d.is_for o then
             Option.value ~default:o (Loop_pipeline.pipeline_band ctx ~depth:0 o)
           else o)
         (Func.func_body f))
  in
  let m = Array_partition.run ctx (Ir.module_ [ f ]) in
  let arg = List.hd (Func.func_args (Ir.find_func_exn m "d")) in
  match arg.Ir.vty with
  | Ty.Memref mr -> Alcotest.(check int) "still one bank" 1 (Hlscpp.num_banks mr)
  | _ -> Alcotest.fail "not a memref"

let test_explicit_factors_override () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let m' =
    Array_partition.run
      ~factors:[ (("gemm", 2), [ Hlscpp.Cyclic 4; Hlscpp.None_p ]) ]
      ctx m
  in
  let arg = List.nth (Func.func_args (Ir.find_func_exn m' "gemm")) 2 in
  match arg.Ir.vty with
  | Ty.Memref mr ->
      Alcotest.(check bool) "pinned factor applied" true
        (Hlscpp.partitions_of_memref mr = [ Hlscpp.Cyclic 4; Hlscpp.None_p ])
  | _ -> Alcotest.fail "not a memref"

let suite =
  ( "partition",
    [
      Alcotest.test_case "Figure 3(b): cyclic map" `Quick test_fig3_cyclic;
      Alcotest.test_case "Figure 3(c): block map" `Quick test_fig3_block;
      Alcotest.test_case "encode/decode cases" `Quick test_partition_roundtrip_cases;
      prop_partition_roundtrip;
      prop_banks_cover_all_cells;
      Alcotest.test_case "bank counting" `Quick test_num_banks;
      Alcotest.test_case "Eq.1: cyclic vs block" `Quick test_metric_cyclic_vs_block;
      Alcotest.test_case "pass partitions unrolled arrays" `Quick test_pass_partitions_unrolled_arrays;
      Alcotest.test_case "pass is semantics-neutral" `Quick test_pass_is_semantics_neutral;
      Alcotest.test_case "inter-procedural propagation" `Quick test_interprocedural_propagation;
      Alcotest.test_case "DRAM arrays untouched" `Quick test_dram_arrays_not_partitioned;
      Alcotest.test_case "explicit part-factors" `Quick test_explicit_factors_override;
    ] )
