(* Tests of the IR core: contexts, attributes, types, construction, walking,
   cloning, verification, and the interpreter. *)

open Mir
open Dialects
open Helpers

(* ---- Types / attrs ----------------------------------------------------------- *)

let test_ty_bits () =
  Alcotest.(check int) "f32" 32 (Ty.bits Ty.F32);
  Alcotest.(check int) "i8" 8 (Ty.bits Ty.I8);
  Alcotest.(check int) "memref bits" (4 * 4 * 32)
    (Ty.storage_bits (Ty.memref [ 4; 4 ] Ty.F32))

let test_ty_equal () =
  Alcotest.(check bool) "same memref" true
    (Ty.equal (Ty.memref [ 2; 3 ] Ty.F32) (Ty.memref [ 2; 3 ] Ty.F32));
  Alcotest.(check bool) "different shape" false
    (Ty.equal (Ty.memref [ 2; 3 ] Ty.F32) (Ty.memref [ 3; 2 ] Ty.F32));
  Alcotest.(check bool) "different memspace" false
    (Ty.equal (Ty.memref [ 2 ] Ty.F32) (Ty.memref ~memspace:Ty.Memspace.dram [ 2 ] Ty.F32))

let test_memspace_ports () =
  Alcotest.(check int) "single port" 1 (Ty.Memspace.ports Ty.Memspace.bram_s1p);
  Alcotest.(check int) "true dual port" 2 (Ty.Memspace.ports Ty.Memspace.bram_t2p);
  Alcotest.(check int) "dram" 1 (Ty.Memspace.ports Ty.Memspace.dram)

let test_attr_roundtrip () =
  let a = Attr.Dict [ ("x", Attr.Int 3); ("y", Attr.Arr [ Attr.Bool true; Attr.Str "s" ]) ] in
  Alcotest.(check bool) "equal self" true (Attr.equal a a);
  Alcotest.(check int) "dict find" 3
    (Attr.as_int (Option.get (Attr.dict_find "x" a)))

(* ---- Construction / ctx -------------------------------------------------------- *)

let test_ctx_fresh () =
  let ctx = Ir.Ctx.create () in
  let a = Ir.Ctx.fresh ctx Ty.F32 and b = Ir.Ctx.fresh ctx Ty.F32 in
  Alcotest.(check bool) "distinct ids" true (a.Ir.vid <> b.Ir.vid)

let test_ctx_seed () =
  let ctx = Ir.Ctx.create () in
  let op, _ = Arith.constant_i ctx 1 in
  let m = Ir.module_ [ Func.func_raw ~name:"f" ~args:[] ~outputs:[] [ op; Func.return_ [] ] ] in
  let ctx2 = Ir.Ctx.of_op m in
  let v = Ir.Ctx.fresh ctx2 Ty.F32 in
  Alcotest.(check bool) "seeded past existing" true (v.Ir.vid > (Ir.result op).Ir.vid)

let test_module_funcs () =
  let ctx = Ir.Ctx.create () in
  let f1 = Func.func ctx ~name:"a" ~inputs:[] ~outputs:[] (fun _ -> [ Func.return_ [] ]) in
  let f2 = Func.func ctx ~name:"b" ~inputs:[] ~outputs:[] (fun _ -> [ Func.return_ [] ]) in
  let m = Ir.module_ [ f1; f2 ] in
  Alcotest.(check int) "two funcs" 2 (List.length (Ir.module_funcs m));
  Alcotest.(check bool) "find" true (Option.is_some (Ir.find_func m "b"));
  let f2' = Func.func ctx ~name:"b" ~inputs:[ Ty.F32 ] ~outputs:[] (fun _ -> [ Func.return_ [] ]) in
  let m' = Ir.replace_func m f2' in
  let found = Ir.find_func_exn m' "b" in
  Alcotest.(check int) "replaced arity" 1 (List.length (Func.func_args found))

(* ---- Walking ------------------------------------------------------------------- *)

let sample_func ctx =
  Func.func ctx ~name:"walkme" ~inputs:[ Ty.memref [ 8 ] Ty.F32 ] ~outputs:[]
    (fun args ->
      let mem = List.hd args in
      [
        Affine_d.for_const ctx ~lb:0 ~ub:8 (fun iv ->
            let lop, lv = load_id ctx mem [ iv ] in
            let aop, av = Arith.addf ctx lv lv in
            [ lop; aop; store_id ctx av mem [ iv ]; Affine_d.yield ]);
        Func.return_ [];
      ])

let test_walk_collect () =
  let ctx = Ir.Ctx.create () in
  let f = sample_func ctx in
  Alcotest.(check int) "loads" 1 (Walk.count (fun o -> o.Ir.name = "affine.load") f);
  Alcotest.(check int) "loops" 1 (Walk.count Affine_d.is_for f);
  Alcotest.(check bool) "exists addf" true (Walk.exists (fun o -> o.Ir.name = "arith.addf") f)

(* The vids [Walk.iter_free_values] visits, in visiting order. *)
let free_vids o =
  let vids = ref [] in
  Walk.iter_free_values (fun v -> vids := v.Ir.vid :: !vids) o;
  List.rev !vids

let test_free_values () =
  let ctx = Ir.Ctx.create () in
  let f = sample_func ctx in
  let loop = List.hd (Walk.collect Affine_d.is_for f) in
  let frees = free_vids loop in
  (* the loop body uses the memref argument, defined outside *)
  let arg = List.hd (Func.func_args f) in
  Alcotest.(check bool) "memref is free in loop" true (List.mem arg.Ir.vid frees);
  let iv = Affine_d.induction_var loop in
  Alcotest.(check bool) "iv is not free" false (List.mem iv.Ir.vid frees);
  Alcotest.(check bool) "each free value once" true
    (List.length (List.sort_uniq compare frees) = List.length frees)

let test_substitute_uses () =
  let ctx = Ir.Ctx.create () in
  let c1, v1 = Arith.constant_i ctx 1 in
  let c2, v2 = Arith.constant_i ctx 2 in
  let add, _ = Arith.addi ctx v1 v1 in
  let f = Func.func_raw ~name:"s" ~args:[] ~outputs:[] [ c1; c2; add; Func.return_ [] ] in
  let f' = Walk.substitute_uses (Ir.Value_map.singleton v1.Ir.vid v2) f in
  let add' = List.hd (Walk.collect (fun o -> o.Ir.name = "arith.addi") f') in
  Alcotest.(check bool) "both operands rewritten" true
    (List.for_all (fun (v : Ir.value) -> v.Ir.vid = v2.Ir.vid) add'.Ir.operands)

(* A rewrite that changes nothing returns its input physically; one that
   changes an op rebuilds only the path to it. *)
let test_walk_shares_unchanged () =
  let _, m = compile_kernel Models.Polybench.Gemm in
  let f = Ir.find_func_exn m "gemm" in
  Alcotest.(check bool) "identity expand" true (Walk.expand_in_op (fun o -> [ o ]) f == f);
  Alcotest.(check bool) "identity map" true (Walk.map_op Fun.id f == f);
  Alcotest.(check bool) "empty substitution" true
    (Walk.substitute_uses Ir.Value_map.empty f == f);
  let rename o =
    if o.Ir.name = "func.return" then [ { o with Ir.name = "func.return" } ] else [ o ]
  in
  let f' = Walk.expand_in_op rename f in
  Alcotest.(check bool) "a rebuilt op rebuilds its function" true (f' != f && f' = f);
  let loops fn = List.filter Affine_d.is_for (Func.func_body fn) in
  Alcotest.(check bool) "its siblings are shared" true
    (List.for_all2 ( == ) (loops f) (loops f'))

(* ---- Clone --------------------------------------------------------------------- *)

let test_clone_fresh_ids () =
  let ctx = Ir.Ctx.create () in
  let f = sample_func ctx in
  let loop = List.hd (Walk.collect Affine_d.is_for f) in
  let clone = Clone.op ctx loop in
  let orig_defs = Walk.defined_values loop in
  let clone_defs = Walk.defined_values clone in
  Alcotest.(check bool) "disjoint definitions" true
    (Ir.Value_set.is_empty (Ir.Value_set.inter orig_defs clone_defs))

let test_clone_preserves_free_uses () =
  let ctx = Ir.Ctx.create () in
  let f = sample_func ctx in
  let loop = List.hd (Walk.collect Affine_d.is_for f) in
  let clone = Clone.op ctx loop in
  let arg = List.hd (Func.func_args f) in
  Alcotest.(check bool) "free memref use survives" true
    (List.mem arg.Ir.vid (free_vids clone))

let test_clone_semantics () =
  (* duplicating the loop doubles the doubling: A[i] becomes 4*A[i] *)
  let ctx = Ir.Ctx.create () in
  let f = sample_func ctx in
  let loop = List.hd (Walk.collect Affine_d.is_for f) in
  let clone = Clone.op ctx loop in
  let f2 = Ir.with_body f [ loop; clone; Func.return_ [] ] in
  let m = Ir.module_ [ f2 ] in
  let buf = Interp.buffer_init [ 8 ] Ty.F32 (fun i -> float_of_int i) in
  ignore (Interp.run_func m "walkme" [ Interp.VBuf buf ]);
  Alcotest.(check (float 1e-9)) "A[3] quadrupled" 12.0 buf.Interp.data.(3)

(* ---- Verifier ------------------------------------------------------------------- *)

let test_verify_ok () =
  let ctx = Ir.Ctx.create () in
  check_verifies ~msg:"sample" (Ir.module_ [ sample_func ctx ])

let test_verify_catches_use_before_def () =
  let ctx = Ir.Ctx.create () in
  let c, v = Arith.constant_i ctx 1 in
  let add, _ = Arith.addi ctx v v in
  (* add placed before its operand's definition *)
  let f = Func.func_raw ~name:"bad" ~args:[] ~outputs:[] [ add; c; Func.return_ [] ] in
  match Verify.verify (Ir.module_ [ f ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted use-before-def"

let test_verify_catches_double_def () =
  let ctx = Ir.Ctx.create () in
  let c, v = Arith.constant_i ctx 1 in
  let c2 = Ir.mk "arith.constant" ~attrs:[ ("value", Attr.Int 2) ] ~operands:[] ~results:[ v ] in
  let f = Func.func_raw ~name:"bad2" ~args:[] ~outputs:[] [ c; c2; Func.return_ [] ] in
  match Verify.verify (Ir.module_ [ f ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted double definition"

let test_verify_catches_out_of_scope () =
  let ctx = Ir.Ctx.create () in
  (* a value defined inside a loop used outside of it *)
  let mem_ty = Ty.memref [ 4 ] Ty.F32 in
  let mem = Ir.Ctx.fresh ctx mem_ty in
  let inner_load = ref None in
  let loop =
    Affine_d.for_const ctx ~lb:0 ~ub:4 (fun iv ->
        let lop, lv = load_id ctx mem [ iv ] in
        inner_load := Some lv;
        [ lop; Affine_d.yield ])
  in
  let escaped, _ = Arith.addf ctx (Option.get !inner_load) (Option.get !inner_load) in
  let f = Func.func_raw ~name:"bad3" ~args:[ mem ] ~outputs:[] [ loop; escaped; Func.return_ [] ] in
  match Verify.verify (Ir.module_ [ f ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted scope escape"

(* ---- Interpreter ----------------------------------------------------------------- *)

let test_interp_arith () =
  let ctx = Ir.Ctx.create () in
  let ops = ref [] in
  let e (op, v) = ops := op :: !ops; v in
  let a = e (Arith.constant_f ctx 3.0) in
  let b = e (Arith.constant_f ctx 4.0) in
  let s = e (Arith.mulf ctx a b) in
  let c = e (Arith.constant_i ctx 7) in
  let d = e (Arith.constant_i ctx 2) in
  let r = e (Arith.remi ctx c d) in
  let ri = e (Arith.sitofp ctx r ~ty:Ty.F32) in
  let total = e (Arith.addf ctx s ri) in
  let f = Func.func_raw ~name:"t" ~args:[] ~outputs:[ Ty.F32 ] (List.rev (Func.return_ [ total ] :: !ops)) in
  match Interp.run_func (Ir.module_ [ f ]) "t" [] with
  | [ Interp.VFloat v ] -> Alcotest.(check (float 1e-9)) "3*4 + 7 mod 2" 13.0 v
  | _ -> Alcotest.fail "expected one float"

let test_interp_if () =
  let src =
    {|
void clampit(float A[8]) {
  for (int i = 0; i < 8; i++) {
    if (A[i] > 2.0) { A[i] = 2.0; } else { A[i] = A[i] + 1.0; }
  }
}
|}
  in
  let _, m = compile_c_affine src in
  let buf = Interp.buffer_init [ 8 ] Ty.F32 (fun i -> float_of_int i) in
  ignore (Interp.run_func m "clampit" [ Interp.VBuf buf ]);
  Alcotest.(check (float 1e-9)) "A[0] bumped" 1.0 buf.Interp.data.(0);
  Alcotest.(check (float 1e-9)) "A[7] clamped" 2.0 buf.Interp.data.(7)

let test_interp_call () =
  let src =
    {|
float square(float x) { return x * x; }
void apply(float A[4]) {
  for (int i = 0; i < 4; i++) {
    A[i] = square(A[i]);
  }
}
|}
  in
  let _, m = compile_c_affine src in
  let buf = Interp.buffer_init [ 4 ] Ty.F32 (fun i -> float_of_int (i + 1)) in
  ignore (Interp.run_func m "apply" [ Interp.VBuf buf ]);
  Alcotest.(check (float 1e-9)) "4^2" 16.0 buf.Interp.data.(3)

let test_interp_init_seed () =
  let ctx = Ir.Ctx.create () in
  let alloc, mem = Memref.alloc ctx [ 8 ] Ty.I8 in
  let alloc = Ir.set_attr alloc "init_seed" (Attr.Int 5) in
  let lop, lv = load_id ctx mem [] in
  (* 1-d load of a 1-d memref needs an index: use constant 0 *)
  ignore (lop, lv);
  let c0op, c0 = Arith.constant_i ctx 0 in
  let lop, lv = Memref.load ctx mem [ c0 ] in
  let f = Func.func_raw ~name:"w" ~args:[] ~outputs:[ Ty.I8 ] [ alloc; c0op; lop; Func.return_ [ lv ] ] in
  match Interp.run_func (Ir.module_ [ f ]) "w" [] with
  | [ Interp.VInt v ] -> Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  | _ -> Alcotest.fail "expected an int"

(* ---- Printer -------------------------------------------------------------------- *)

let test_printer_mentions_structure () =
  let ctx = Ir.Ctx.create () in
  let text = Printer.op_to_string (Ir.module_ [ sample_func ctx ]) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains ~needle text))
    [ "module"; "func"; "affine.for"; "affine.load"; "affine.store"; "sym_name" ]

let suite =
  ( "ir",
    [
      Alcotest.test_case "type bit widths" `Quick test_ty_bits;
      Alcotest.test_case "type equality" `Quick test_ty_equal;
      Alcotest.test_case "memory-space ports" `Quick test_memspace_ports;
      Alcotest.test_case "attribute dict" `Quick test_attr_roundtrip;
      Alcotest.test_case "fresh value ids" `Quick test_ctx_fresh;
      Alcotest.test_case "context seeding" `Quick test_ctx_seed;
      Alcotest.test_case "module function table" `Quick test_module_funcs;
      Alcotest.test_case "walk collection" `Quick test_walk_collect;
      Alcotest.test_case "free-value analysis" `Quick test_free_values;
      Alcotest.test_case "use substitution" `Quick test_substitute_uses;
      Alcotest.test_case "walk shares unchanged subtrees" `Quick test_walk_shares_unchanged;
      Alcotest.test_case "clone mints fresh ids" `Quick test_clone_fresh_ids;
      Alcotest.test_case "clone keeps free uses" `Quick test_clone_preserves_free_uses;
      Alcotest.test_case "clone is a semantic copy" `Quick test_clone_semantics;
      Alcotest.test_case "verifier accepts valid IR" `Quick test_verify_ok;
      Alcotest.test_case "verifier: use before def" `Quick test_verify_catches_use_before_def;
      Alcotest.test_case "verifier: double definition" `Quick test_verify_catches_double_def;
      Alcotest.test_case "verifier: scope escape" `Quick test_verify_catches_out_of_scope;
      Alcotest.test_case "interp: scalar arithmetic" `Quick test_interp_arith;
      Alcotest.test_case "interp: conditionals" `Quick test_interp_if;
      Alcotest.test_case "interp: function calls" `Quick test_interp_call;
      Alcotest.test_case "interp: weight init seeds" `Quick test_interp_init_seed;
      Alcotest.test_case "printer shows structure" `Quick test_printer_mentions_structure;
    ] )
