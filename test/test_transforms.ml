(* Tests of the loop/directive/misc transform passes. The central property,
   checked over and over: every transform preserves the program semantics
   under the reference interpreter, and the IR stays verifiable. *)

open Mir
open Dialects
open Scalehls
open Helpers

let pass_preserves ~msg ?(n = 6) kernel pass =
  let ctx, m = compile_kernel ~n kernel in
  let m' = Pass.run_one pass ctx m in
  check_verifies ~msg:(msg ^ " verifies") m';
  check_semantics ~msg kernel ~n m m'

(* ---- Loop perfectization -------------------------------------------------------- *)

let test_perfectization_gemm () =
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Gemm in
  let m' = Pass.run_one Loop_perfectization.pass ctx m in
  let f = Ir.find_func_exn m' "gemm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  Alcotest.(check int) "band depth" 3 (List.length band);
  Alcotest.(check bool) "perfect" true (Affine_d.band_is_perfect band);
  check_semantics ~msg:"gemm perfectization" Models.Polybench.Gemm ~n:6 m m'

let test_perfectization_semantics () =
  List.iter
    (fun k ->
      pass_preserves ~msg:(Models.Polybench.name k ^ " perfectization") k
        Loop_perfectization.pass)
    Models.Polybench.all

let test_perfectization_guards_stores () =
  (* post-statement (TRMM's B[i][j] *= alpha) becomes a last-iteration
     guard once RVB makes the k loop provably non-empty; LP alone must
     refuse (the k = i+1 .. N loop is empty at i = N-1 and sinking would
     drop the store). *)
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Trmm in
  let lp_only = Pass.run_one Loop_perfectization.pass ctx m in
  let f = Ir.find_func_exn lp_only "trmm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  Alcotest.(check bool) "LP alone leaves the band imperfect" false
    (Affine_d.band_is_perfect band);
  let m' = Pass.run_pipeline [ Remove_var_bound.pass; Loop_perfectization.pass ] ctx m in
  Alcotest.(check bool) "guard inserted" true (Walk.exists Affine_d.is_if m');
  let f' = Ir.find_func_exn m' "trmm" in
  let band' = List.hd (Analysis.Loop_utils.bands f') in
  Alcotest.(check bool) "rvb+lp perfectizes" true (Affine_d.band_is_perfect band');
  check_semantics ~msg:"trmm rvb+lp" Models.Polybench.Trmm ~n:6 m m' 

let test_perfectization_idempotent () =
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Gemm in
  let m1 = Pass.run_one Loop_perfectization.pass ctx m in
  let m2 = Pass.run_one Loop_perfectization.pass ctx m1 in
  Alcotest.(check bool) "fixpoint" true (m1 = m2)

(* ---- Remove variable bound -------------------------------------------------------- *)

let test_rvb_constantizes () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Syrk in
  let m' = Pass.run_one Remove_var_bound.pass ctx m in
  Alcotest.(check bool) "no variable bounds left" false
    (Walk.exists (fun o -> Affine_d.is_for o && not (Affine_d.has_const_bounds o)) m');
  check_semantics ~msg:"syrk rvb" Models.Polybench.Syrk ~n:8 m m'

let test_rvb_semantics () =
  List.iter
    (fun k ->
      pass_preserves ~msg:(Models.Polybench.name k ^ " rvb") k Remove_var_bound.pass)
    [ Models.Polybench.Syrk; Models.Polybench.Syr2k; Models.Polybench.Trmm ]

let test_rvb_after_lp_semantics () =
  List.iter
    (fun k ->
      let ctx, m = compile_kernel ~n:6 k in
      let m' =
        Pass.run_pipeline
          [ Loop_perfectization.pass; Remove_var_bound.pass; Canonicalize.pass ]
          ctx m
      in
      check_verifies ~msg:"lp+rvb verifies" m';
      check_semantics ~msg:(Models.Polybench.name k ^ " lp+rvb") k ~n:6 m m')
    Models.Polybench.all

(* ---- Loop order optimization -------------------------------------------------------- *)

let test_order_opt_gemm_moves_reduction () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let m1 =
    Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass ] ctx m
  in
  let f = Ir.find_func_exn m1 "gemm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  match Loop_order_opt.optimize_band ~scope:f band with
  | Some perm ->
      (* k (dim 2) must not stay innermost: it carries the accumulation *)
      Alcotest.(check bool) "k moved off innermost" true (List.nth perm 2 <> 2)
  | None -> Alcotest.fail "expected a permutation for gemm"

let test_order_opt_semantics () =
  List.iter
    (fun k ->
      let ctx, m = compile_kernel ~n:6 k in
      let m' =
        Pass.run_pipeline
          [
            Loop_perfectization.pass; Remove_var_bound.pass; Canonicalize.pass;
            Loop_order_opt.pass;
          ]
          ctx m
      in
      check_verifies ~msg:"order-opt verifies" m';
      check_semantics ~msg:(Models.Polybench.name k ^ " order-opt") k ~n:6 m m')
    Models.Polybench.all

let test_explicit_perm_map_legality () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let m1 = Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass ] ctx m in
  let f = Ir.find_func_exn m1 "gemm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  (* [1;2;0] (the paper's Table 3 gemm row) is legal *)
  (match Loop_order_opt.optimize_band ~perm_map:[ 1; 2; 0 ] ~scope:f band with
  | Some p -> Alcotest.(check (list int)) "accepted" [ 1; 2; 0 ] p
  | None -> Alcotest.fail "legal perm rejected");
  (* applying it preserves semantics *)
  let root = Loop_order_opt.permute_band band [ 1; 2; 0 ] in
  let f' = Analysis.Loop_utils.replace_band_in f ~old_root:(List.hd band) ~new_root:root in
  let m' = Ir.replace_func m1 f' in
  check_verifies ~msg:"permuted verifies" m';
  check_semantics ~msg:"gemm [1;2;0]" Models.Polybench.Gemm ~n:8 m1 m'

let test_permutation_illegal_rejected () =
  (* a loop-carried flow dependence across i forbids reversing (i, j):
     A[i][j] = A[i-1][j] + 1 — moving j outward is fine, but the dependence
     direction (<, =) stays legal under any permutation; build instead
     A[i][j] = A[i-1][j+1]-style skewed dependence (<, >) where swapping
     makes it (>, <): illegal. *)
  let src =
    {|
void skew(float A[8][8]) {
  for (int i = 1; i < 8; i++) {
    for (int j = 0; j < 7; j++) {
      A[i][j] = A[i - 1][j + 1] + 1.0;
    }
  }
}
|}
  in
  let _, m = compile_c_affine src in
  let f = Ir.find_func_exn m "skew" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  let deps = Loop_order_opt.band_deps ~scope:f band in
  Alcotest.(check bool) "swap illegal" false
    (Loop_order_opt.legal_permutation ~deps band [ 1; 0 ])

(* ---- Tiling ---------------------------------------------------------------------- *)

let test_tile_gemm_semantics () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let m1 = Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass ] ctx m in
  let f = Ir.find_func_exn m1 "gemm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  match Loop_tile.tile_band ctx band ~sizes:[ 2; 4; 2 ] with
  | Some root ->
      let f' = Analysis.Loop_utils.replace_band_in f ~old_root:(List.hd band) ~new_root:root in
      let m' = Pass.run_one Canonicalize.pass ctx (Ir.replace_func m1 f') in
      check_verifies ~msg:"tiled verifies" m';
      check_semantics ~msg:"gemm tiled 2x4x2" Models.Polybench.Gemm ~n:8 m1 m';
      (* 3 tile loops + 3 point loops *)
      let f'' = Ir.find_func_exn m' "gemm" in
      let band' = Affine_d.band (List.hd (Analysis.Loop_utils.top_loops f'')) in
      Alcotest.(check int) "band grew" 6 (List.length band')
  | None -> Alcotest.fail "tiling failed"

let test_tile_non_dividing_clamped () =
  let ctx, m = compile_kernel ~n:6 Models.Polybench.Gemm in
  let m1 = Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass ] ctx m in
  let f = Ir.find_func_exn m1 "gemm" in
  let band = List.hd (Analysis.Loop_utils.bands f) in
  (* 4 does not divide 6: loop stays untiled; 1-tiling everything = None *)
  (match Loop_tile.tile_band ctx band ~sizes:[ 4; 4; 4 ] with
  | Some _ -> Alcotest.fail "expected clamping to leave nothing to tile"
  | None -> ());
  match Loop_tile.tile_band ctx band ~sizes:[ 3; 1; 2 ] with
  | Some root ->
      let f' = Analysis.Loop_utils.replace_band_in f ~old_root:(List.hd band) ~new_root:root in
      let m' = Ir.replace_func m1 f' in
      check_semantics ~msg:"gemm tile 3x1x2" Models.Polybench.Gemm ~n:6 m1 m'
  | None -> Alcotest.fail "dividing sizes should tile"

(* ---- Unrolling ------------------------------------------------------------------- *)

let test_unroll_full_semantics () =
  let src = "void inc(float A[6]) { for (int i = 0; i < 6; i++) { A[i] = A[i] + 1.0; } }" in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one (Loop_unroll.pass ()) ctx m in
  let m' = Pass.run_one Canonicalize.pass ctx m' in
  Alcotest.(check bool) "loop gone" false (Walk.exists Affine_d.is_for m');
  let a = Interp.buffer_init [ 6 ] Ty.F32 (fun i -> float_of_int i) in
  ignore (Interp.run_func m' "inc" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "A[5]" 6.0 a.Interp.data.(5)

let test_unroll_by_factor () =
  let src = "void inc(float A[8]) { for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; } }" in
  let ctx, m = compile_c_affine src in
  let f = Ir.find_func_exn m "inc" in
  let loop = List.hd (Analysis.Loop_utils.top_loops f) in
  (match Loop_unroll.unroll_by ctx loop ~factor:4 with
  | Some loop' ->
      Alcotest.(check int) "widened step" 4 (Affine_d.bounds loop').Affine_d.step;
      let f' = Ir.with_body f (List.map (fun o -> if o == loop then loop' else o) (Func.func_body f)) in
      let m' = Pass.run_one Canonicalize.pass ctx (Ir.replace_func m f') in
      check_verifies ~msg:"partial unroll verifies" m';
      let a = Interp.buffer_init [ 8 ] Ty.F32 (fun _ -> 0.) in
      ignore (Interp.run_func m' "inc" [ Interp.VBuf a ]);
      Alcotest.(check bool) "all incremented" true
        (Array.for_all (fun x -> x = 1.0) a.Interp.data)
  | None -> Alcotest.fail "unroll_by failed");
  (* non-dividing factor refused *)
  match Loop_unroll.unroll_by ctx loop ~factor:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "non-dividing factor accepted"

let test_unroll_nested () =
  let ctx, m = compile_kernel ~n:4 Models.Polybench.Gemm in
  let f = Ir.find_func_exn m "gemm" in
  let root = List.hd (Analysis.Loop_utils.top_loops f) in
  match Loop_unroll.unroll_nested ctx root with
  | Some root' ->
      Alcotest.(check int) "only the target loop remains" 1
        (Walk.count Affine_d.is_for root' )
  | None -> Alcotest.fail "unroll_nested failed"

(* ---- Fusion ---------------------------------------------------------------------- *)

let test_fusion_merges () =
  let src =
    {|
void two(float A[8], float B[8]) {
  for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }
  for (int i = 0; i < 8; i++) { B[i] = B[i] * 2.0; }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Loop_fusion.pass ctx m in
  Alcotest.(check int) "one loop" 1 (Walk.count Affine_d.is_for m');
  check_verifies ~msg:"fused verifies" m';
  let a = Interp.buffer_init [ 8 ] Ty.F32 (fun _ -> 1.) in
  let b = Interp.buffer_init [ 8 ] Ty.F32 (fun _ -> 3.) in
  ignore (Interp.run_func m' "two" [ Interp.VBuf a; Interp.VBuf b ]);
  Alcotest.(check (float 1e-9)) "A" 2.0 a.Interp.data.(0);
  Alcotest.(check (float 1e-9)) "B" 6.0 b.Interp.data.(0)

let test_fusion_blocked_by_dependence () =
  (* second loop reads A at shifted indices: element-wise alignment fails *)
  let src =
    {|
void shift(float A[8], float B[8]) {
  for (int i = 0; i < 7; i++) { A[i] = B[i] + 1.0; }
  for (int i = 0; i < 7; i++) { B[i] = A[i + 1] * 2.0; }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Loop_fusion.pass ctx m in
  Alcotest.(check int) "not fused" 2 (Walk.count Affine_d.is_for m')

(* ---- Pipelining ------------------------------------------------------------------- *)

let test_pipeline_annotates () =
  let ctx, m = compile_kernel ~n:4 Models.Polybench.Gemm in
  let m1 = Pass.run_pipeline [ Loop_perfectization.pass; Canonicalize.pass ] ctx m in
  let m' = Pass.run_one (Loop_pipeline.pass ~target_ii:2 ()) ctx m1 in
  let pipelined = Walk.collect Hlscpp.is_pipelined m' in
  Alcotest.(check int) "one pipelined loop" 1 (List.length pipelined);
  (match Hlscpp.get_loop_directive (List.hd pipelined) with
  | Some d -> Alcotest.(check int) "target ii" 2 d.Hlscpp.loop_target_ii
  | None -> Alcotest.fail "no directive");
  let flattened =
    Walk.collect
      (fun o ->
        match Hlscpp.get_loop_directive o with Some d -> d.Hlscpp.flatten | None -> false)
      m'
  in
  Alcotest.(check int) "outer loops flattened" 2 (List.length flattened);
  check_semantics ~msg:"pipelining is semantics-neutral" Models.Polybench.Gemm ~n:4 m1 m'

let test_func_pipeline () =
  let src = "void tiny(float A[4]) { for (int i = 0; i < 4; i++) { A[i] = A[i] + 1.0; } }" in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one (Func_pipeline.pass ~target_ii:1 ()) ctx m in
  let f = Ir.find_func_exn m' "tiny" in
  (match Hlscpp.get_func_directive f with
  | Some d -> Alcotest.(check bool) "pipelined" true d.Hlscpp.pipeline
  | None -> Alcotest.fail "no func directive");
  Alcotest.(check bool) "loops unrolled away" false (Walk.exists Affine_d.is_for f)

(* ---- Redundancy elimination --------------------------------------------------------- *)

let test_store_forward () =
  let src =
    {|
void fwd(float A[4], float B[4]) {
  for (int i = 0; i < 4; i++) {
    A[i] = B[i] + 1.0;
    B[i] = A[i] * 2.0;
  }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let before = Walk.count (fun o -> o.Ir.name = "affine.load") m in
  let m' = Pass.run_one Store_forward.pass ctx m in
  let after = Walk.count (fun o -> o.Ir.name = "affine.load") m' in
  Alcotest.(check bool) "a load was forwarded" true (after < before);
  check_verifies ~msg:"store-forward verifies" m';
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 0.) in
  let b = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 2.) in
  ignore (Interp.run_func m' "fwd" [ Interp.VBuf a; Interp.VBuf b ]);
  Alcotest.(check (float 1e-9)) "A" 3.0 a.Interp.data.(1);
  Alcotest.(check (float 1e-9)) "B" 6.0 b.Interp.data.(1)

let test_dead_store_elimination () =
  let src =
    {|
void ds(float A[4]) {
  for (int i = 0; i < 4; i++) {
    A[i] = 1.0;
    A[i] = 2.0;
  }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Store_forward.pass ctx m in
  Alcotest.(check int) "one store left" 1
    (Walk.count (fun o -> o.Ir.name = "affine.store") m');
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 0.) in
  ignore (Interp.run_func m' "ds" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "last store wins" 2.0 a.Interp.data.(0)

let test_writeonly_memref_dropped () =
  let src =
    {|
void wo(float A[4]) {
  float tmp[4];
  for (int i = 0; i < 4; i++) {
    tmp[i] = A[i];
    A[i] = A[i] + 1.0;
  }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Store_forward.pass ctx m in
  Alcotest.(check int) "tmp alloc dropped" 0
    (Walk.count (fun o -> o.Ir.name = "memref.alloc") m')

let test_simplify_memref_access () =
  let src =
    {|
void dup(float A[4], float B[4]) {
  for (int i = 0; i < 4; i++) {
    B[i] = A[i] + A[i];
  }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Simplify_memref.pass ctx m in
  Alcotest.(check int) "duplicate load folded" 1
    (Walk.count (fun o -> o.Ir.name = "affine.load") m');
  check_verifies ~msg:"simplify-memref verifies" m'

let test_simplify_affine_if () =
  let src =
    {|
void si(float A[8]) {
  for (int i = 0; i < 8; i++) {
    if (i >= 0) { A[i] = 1.0; }
    if (i > 8) { A[i] = 2.0; }
  }
}
|}
  in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_pipeline [ Simplify_affine_if.pass; Canonicalize.pass ] ctx m in
  Alcotest.(check int) "both ifs decided" 0 (Walk.count Affine_d.is_if m');
  let a = Interp.buffer_init [ 8 ] Ty.F32 (fun _ -> 0.) in
  ignore (Interp.run_func m' "si" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "true branch kept" 1.0 a.Interp.data.(0)

let test_canonicalize_folds_constants () =
  let src = "void k(float A[4]) { A[1 + 2] = 5.0; }" in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Canonicalize.pass ctx m in
  (* the addi and its constant operands fold into the access map *)
  Alcotest.(check int) "no addi left" 0 (Walk.count (fun o -> o.Ir.name = "arith.addi") m');
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 0.) in
  ignore (Interp.run_func m' "k" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "A[3]" 5.0 a.Interp.data.(3)

let test_canonicalize_removes_trip1 () =
  let src = "void t1(float A[4]) { for (int i = 2; i < 3; i++) { A[i] = 7.0; } }" in
  let ctx, m = compile_c_affine src in
  let m' = Pass.run_one Canonicalize.pass ctx m in
  Alcotest.(check int) "loop inlined" 0 (Walk.count Affine_d.is_for m');
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 0.) in
  ignore (Interp.run_func m' "t1" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "A[2]" 7.0 a.Interp.data.(2)

let test_cse_dedups () =
  let src = "void c(float A[4], float B[4]) { for (int i = 0; i < 4; i++) { A[i] = (B[i] * 2.0) + (B[i] * 2.0); } }" in
  let ctx, m = compile_c_affine src in
  let m1 = Pass.run_one Simplify_memref.pass ctx m in
  let before = Walk.count (fun o -> o.Ir.name = "arith.mulf") m1 in
  let m' = Pass.run_one Cse.pass ctx m1 in
  let after = Walk.count (fun o -> o.Ir.name = "arith.mulf") m' in
  Alcotest.(check int) "two multiplies before" 2 before;
  Alcotest.(check int) "one multiply after" 1 after;
  check_verifies ~msg:"cse verifies" m'

(* The structural access key of store forwarding and memref simplification
   groups accesses exactly as the printed key it replaced: two affine
   accesses get equal keys iff their memref, printed access map and index
   operands agree. Checked by pairing the classes of every access of [m]
   under both keys one-to-one; returns how many accesses share their class
   with another. *)
let printed_access_key (o : Ir.op) =
  ( (Memref.accessed_memref o).Ir.vid,
    Attr.to_string (Ir.attr_exn o "map"),
    List.map (fun (v : Ir.value) -> v.Ir.vid) (Memref.access_indices o) )

let check_access_keys ~msg m =
  let accs =
    Walk.collect (fun o -> o.Ir.name = "affine.load" || o.Ir.name = "affine.store") m
  in
  (* printed key -> accesses with it; structural key -> class number *)
  let printed = Hashtbl.create 64 and structural = Affine_d.Access_tbl.create 64 in
  let pairs =
    List.map
      (fun o ->
        let p = printed_access_key o and k = Affine_d.Access_key.of_op o in
        Hashtbl.replace printed p (1 + Option.value ~default:0 (Hashtbl.find_opt printed p));
        if not (Affine_d.Access_tbl.mem structural k) then
          Affine_d.Access_tbl.add structural k (Affine_d.Access_tbl.length structural);
        (p, Affine_d.Access_tbl.find structural k))
      accs
    |> List.sort_uniq compare
  in
  Alcotest.(check int) (msg ^ ": as many classes") (Hashtbl.length printed)
    (Affine_d.Access_tbl.length structural);
  Alcotest.(check int) (msg ^ ": classes pair one-to-one") (Hashtbl.length printed)
    (List.length pairs);
  Hashtbl.fold (fun _ n acc -> if n > 1 then acc + n else acc) printed 0

let test_access_key_matches_printed_key () =
  let shared = ref 0 in
  let check ~msg m = shared := !shared + check_access_keys ~msg m in
  List.iter
    (fun k ->
      let name = Models.Polybench.name k in
      check ~msg:(name ^ " raised") (snd (compile_kernel k));
      List.iter (check ~msg:(name ^ " design point")) (design_point_stages ~seed:11 k))
    Models.Polybench.all;
  List.iter
    (fun k -> check ~msg:(Models.Polybench.name k ^ " raised") (snd (compile_kernel k)))
    Models.Polybench.extras;
  for seed = 1 to 60 do
    check ~msg:(Fmt.str "fuzz seed %d" seed) (Fuzz.Gen.program ~seed ()).Fuzz.Gen.module_
  done;
  Alcotest.(check bool) "some accesses share a key" true (!shared > 0)

(* ---- Canonicalize against a reference ------------------------------------------ *)

(* Canonicalize as it was before it returned an unchanged function as is:
   every round rebuilds the function and simplifies every map, DCE drops
   unused pure ops until a round drops none, and the pass stops when a round
   gives a structurally equal function. The pass must compute exactly what
   this computes. The parts both share (constant scan, dim pruning, arith
   folding, loop simplification) come from [Canonicalize]. *)
module Reference_canonicalize = struct
  module A = Affine

  let fold_map_operands (env : Canonicalize.env) (map : A.Map.t) (operands : Ir.value list) =
    let changed = ref false in
    let new_operands = ref [] in
    let push v =
      new_operands := v :: !new_operands;
      List.length !new_operands - 1
    in
    let reps =
      List.map
        (fun (v : Ir.value) ->
          match Hashtbl.find_opt env.Canonicalize.consts v.Ir.vid with
          | Some c ->
              changed := true;
              A.Expr.const c
          | None -> (
              match Hashtbl.find_opt env.Canonicalize.applies v.Ir.vid with
              | Some (amap, aoperands) when A.Map.num_results amap = 1 ->
                  changed := true;
                  let positions = List.map push aoperands in
                  let expr = List.hd (A.Map.results amap) in
                  A.Expr.substitute ~dims:(fun i -> A.Expr.dim (List.nth positions i)) expr
              | _ ->
                  let j = push v in
                  A.Expr.dim j))
        operands
    in
    if not !changed then None
    else
      let new_operands = List.rev !new_operands in
      let map' =
        A.Map.replace_dims ~num_dims:(List.length new_operands) reps map |> A.Map.simplify
      in
      Some (map', new_operands)

  let rec fold_map_operands_fix env map operands =
    match fold_map_operands env map operands with
    | None -> Canonicalize.prune_unused_dims (A.Map.simplify map) operands
    | Some (m, ops) -> fold_map_operands_fix env m ops

  let fold_set_operands_fix env (set : A.Set_.t) operands =
    let exprs = List.map (fun c -> c.A.Set_.expr) (A.Set_.constraints set) in
    let map = A.Map.make ~num_dims:(A.Set_.num_dims set) ~num_syms:0 exprs in
    let map', operands' = fold_map_operands_fix env map operands in
    let constraints =
      List.map2 (fun c e -> { c with A.Set_.expr = e }) (A.Set_.constraints set) (A.Map.results map')
    in
    (A.Set_.make ~num_dims:(A.Map.num_dims map') ~num_syms:0 constraints, operands')

  let fold_affine_op env (o : Ir.op) : Ir.op =
    match o.Ir.name with
    | "affine.load" ->
        let mem = Memref.accessed_memref o and idxs = Memref.access_indices o in
        let map, idxs = fold_map_operands_fix env (Affine_d.access_map o) idxs in
        { o with Ir.operands = mem :: idxs; Ir.attrs = [ ("map", Attr.Map map) ] }
    | "affine.store" ->
        let v = Memref.stored_value o in
        let mem = Memref.accessed_memref o and idxs = Memref.access_indices o in
        let map, idxs = fold_map_operands_fix env (Affine_d.access_map o) idxs in
        { o with Ir.operands = v :: mem :: idxs; Ir.attrs = [ ("map", Attr.Map map) ] }
    | "affine.apply" ->
        let map, operands = fold_map_operands_fix env (Affine_d.access_map o) o.Ir.operands in
        { o with Ir.operands = operands; Ir.attrs = [ ("map", Attr.Map map) ] }
    | "affine.for" ->
        let b = Affine_d.bounds o in
        let lb_map, lb_operands = fold_map_operands_fix env b.Affine_d.lb_map b.Affine_d.lb_operands in
        let ub_map, ub_operands = fold_map_operands_fix env b.Affine_d.ub_map b.Affine_d.ub_operands in
        Affine_d.with_bounds o { b with Affine_d.lb_map; lb_operands; ub_map; ub_operands }
    | "affine.if" ->
        let set, operands = fold_set_operands_fix env (Affine_d.if_set o) o.Ir.operands in
        Ir.set_attr { o with Ir.operands = operands } "set" (Attr.Set set)
    | _ -> o

  let dce (f : Ir.op) : Ir.op =
    let changed = ref true in
    let f = ref f in
    while !changed do
      changed := false;
      let used = Walk.used_values !f in
      f :=
        Walk.expand_in_op
          (fun o ->
            if
              (not (Canonicalize.has_side_effects o))
              && o.Ir.results <> []
              && List.for_all (fun r -> not (Ir.Value_set.mem r.Ir.vid used)) o.Ir.results
            then begin
              changed := true;
              []
            end
            else [ o ])
          !f
    done;
    !f

  let run_on_func ctx f =
    let rec iterate n f =
      if n = 0 then f
      else
        let env = Canonicalize.scan f in
        let f' =
          Walk.expand_in_op (fun o -> Canonicalize.fold_arith env (fold_affine_op env o)) f
        in
        let f' = Canonicalize.simplify_loops ctx f' in
        let f' = dce f' in
        if f' = f then f else iterate (n - 1) f'
    in
    iterate 4 f
end

(* The modules canonicalize is given while [f] runs. *)
let canonicalize_inputs f =
  let inputs = ref [] in
  Pass.clear_instrumentations ();
  Pass.register_instrumentation
    (Pass.instrumentation
       ~before_pass:(fun name m -> if name = "canonicalize" then inputs := m :: !inputs)
       ());
  Fun.protect ~finally:Pass.clear_instrumentations f;
  List.rev !inputs

(* Canonicalize and the reference on every function of [m], each side with
   its own context seeded from [m] so that trip-1 loop inlining mints the
   same value ids on both: the results must be equal. Canonicalize run again
   on its own output must then return every function physically. *)
let check_canonicalize ~msg m =
  let run canon = Ir.module_map_funcs (canon (Ir.Ctx.of_op m)) m in
  let got = run Canonicalize.run_on_func in
  if got <> run Reference_canonicalize.run_on_func then
    Alcotest.failf "%s: canonicalize differs from the reference" msg;
  let ctx = Ir.Ctx.of_op got in
  List.iter
    (fun f ->
      if Canonicalize.run_on_func ctx f != f then
        Alcotest.failf "%s: canonicalize changed its own output" msg)
    (Ir.module_funcs got)

let test_canonicalize_matches_reference () =
  let design = ref 0 in
  List.iter
    (fun k ->
      let name = Models.Polybench.name k in
      let ctx, m = compile_kernel k in
      let space = Dse.build_space ~max_unroll:16 ~max_ii:4 ctx m ~top:name in
      let rng = Random.State.make [| 11 |] in
      for _ = 1 to 8 do
        let pt = Dse.random_point rng space in
        List.iter
          (fun symbolic ->
            let inputs =
              canonicalize_inputs (fun () ->
                  try ignore (Dse.apply_point ~symbolic ctx m ~top:name pt)
                  with Dse.Inapplicable -> ())
            in
            let msg = Fmt.str "%s %a symbolic=%b" name Dse.pp_point pt symbolic in
            design := !design + List.length inputs;
            List.iter (check_canonicalize ~msg) inputs)
          [ true; false ]
      done)
    Models.Polybench.all;
  List.iter
    (fun k ->
      check_canonicalize ~msg:(Models.Polybench.name k ^ " raised") (snd (compile_kernel k)))
    (Models.Polybench.all @ Models.Polybench.extras);
  for seed = 1 to 60 do
    check_canonicalize ~msg:(Fmt.str "fuzz seed %d" seed)
      (Fuzz.Gen.program ~seed ()).Fuzz.Gen.module_
  done;
  Alcotest.(check bool) "design points gave inputs" true (!design > 0)

(* DCE is one backward sweep: an outer constant whose only user is a dead op
   inside a loop body goes in the same call as that op. *)
let test_canonicalize_dead_chain () =
  let ctx = Ir.Ctx.create () in
  let f =
    Func.func ctx ~name:"k" ~inputs:[ Ty.memref [ 8 ] Ty.F32 ] ~outputs:[] (fun _ ->
        let c3op, c3 = Arith.constant_i ctx 3 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:8 (fun i ->
              let add, _ = Arith.addi ctx c3 i in
              [ add; Affine_d.yield ])
        in
        [ c3op; loop; Func.return_ [] ])
  in
  let f' = Canonicalize.dce f in
  Alcotest.(check int) "constant and its dead user gone" 0
    (Walk.count (fun o -> o.Ir.name = "arith.constant" || o.Ir.name = "arith.addi") f');
  Alcotest.(check int) "loop kept" 1 (Walk.count Affine_d.is_for f');
  Alcotest.(check bool) "nothing left to drop" true (Canonicalize.dce f' == f');
  check_verifies ~msg:"dead chain" (Ir.module_ [ f' ])

(* ---- The end-to-end property: random DSE points preserve semantics ---------------- *)

let test_random_points_preserve_semantics () =
  let n = 8 in
  List.iter
    (fun kernel ->
      let ctx, m = compile_kernel ~n kernel in
      let top = Models.Polybench.name kernel in
      let space = Dse.build_space ~max_unroll:16 ~max_ii:4 ctx m ~top in
      let rng = Random.State.make [| 7 |] in
      let tried = ref 0 and applied = ref 0 in
      let base =
        {
          Dse.lp = false;
          rvb = false;
          perm = (match space.Dse.perms with p :: _ -> List.init (List.length p) Fun.id | [] -> []);
          tiles = List.map (fun _ -> 1) space.Dse.tile_options;
          target_ii = 1;
        }
      in
      let points = ref [ base ] in
      while !tried < 16 do
        incr tried;
        let pt = match !points with p :: rest -> points := rest; p | [] -> Dse.random_point rng space in
        match Dse.apply_point ctx m ~top pt with
        | m' ->
            incr applied;
            check_verifies ~msg:(top ^ " point verifies") m';
            check_semantics
              ~msg:(Fmt.str "%s under %a" top Dse.pp_point pt)
              kernel ~n m m'
        | exception Dse.Inapplicable -> ()
      done;
      Alcotest.(check bool) (top ^ ": at least one point applied") true (!applied > 0))
    (Models.Polybench.all @ Models.Polybench.extras)

let suite =
  ( "transforms",
    [
      Alcotest.test_case "perfectization: gemm becomes perfect" `Quick test_perfectization_gemm;
      Alcotest.test_case "perfectization: semantics (6 kernels)" `Slow test_perfectization_semantics;
      Alcotest.test_case "perfectization: guards stores" `Quick test_perfectization_guards_stores;
      Alcotest.test_case "perfectization: idempotent" `Quick test_perfectization_idempotent;
      Alcotest.test_case "rvb: removes variable bounds" `Quick test_rvb_constantizes;
      Alcotest.test_case "rvb: semantics (triangular kernels)" `Quick test_rvb_semantics;
      Alcotest.test_case "lp+rvb: semantics (6 kernels)" `Slow test_rvb_after_lp_semantics;
      Alcotest.test_case "order-opt: gemm reduction outward" `Quick test_order_opt_gemm_moves_reduction;
      Alcotest.test_case "order-opt: semantics (6 kernels)" `Slow test_order_opt_semantics;
      Alcotest.test_case "order-opt: explicit perm-map" `Quick test_explicit_perm_map_legality;
      Alcotest.test_case "order-opt: illegal perm rejected" `Quick test_permutation_illegal_rejected;
      Alcotest.test_case "tile: gemm semantics + structure" `Quick test_tile_gemm_semantics;
      Alcotest.test_case "tile: non-dividing sizes clamp" `Quick test_tile_non_dividing_clamped;
      Alcotest.test_case "unroll: full" `Quick test_unroll_full_semantics;
      Alcotest.test_case "unroll: partial by factor" `Quick test_unroll_by_factor;
      Alcotest.test_case "unroll: nested legalization" `Quick test_unroll_nested;
      Alcotest.test_case "fusion: merges aligned loops" `Quick test_fusion_merges;
      Alcotest.test_case "fusion: dependence blocks it" `Quick test_fusion_blocked_by_dependence;
      Alcotest.test_case "pipelining: directives + flatten" `Quick test_pipeline_annotates;
      Alcotest.test_case "func pipelining" `Quick test_func_pipeline;
      Alcotest.test_case "store-forward" `Quick test_store_forward;
      Alcotest.test_case "dead store elimination" `Quick test_dead_store_elimination;
      Alcotest.test_case "write-only memref dropped" `Quick test_writeonly_memref_dropped;
      Alcotest.test_case "simplify-memref-access" `Quick test_simplify_memref_access;
      Alcotest.test_case "access key = printed access key" `Quick
        test_access_key_matches_printed_key;
      Alcotest.test_case "simplify-affine-if" `Quick test_simplify_affine_if;
      Alcotest.test_case "canonicalize: constant folding" `Quick test_canonicalize_folds_constants;
      Alcotest.test_case "canonicalize: trip-1 loops" `Quick test_canonicalize_removes_trip1;
      Alcotest.test_case "canonicalize = reference" `Quick test_canonicalize_matches_reference;
      Alcotest.test_case "canonicalize: dead chain in one sweep" `Quick
        test_canonicalize_dead_chain;
      Alcotest.test_case "cse" `Quick test_cse_dedups;
      Alcotest.test_case "random DSE points preserve semantics" `Slow
        test_random_points_preserve_semantics;
    ] )
