(* Tests of the HLS-C front-end: lexer, parser, codegen semantics, and the
   -raise-scf-to-affine pass (including partially-affine programs). *)

open Mir
open Dialects
open Scalehls [@@warning "-33"]
open Helpers

(* ---- Lexer ------------------------------------------------------------------- *)

let test_lexer_tokens () =
  let lx = Frontend.Lexer.tokenize "int x = 42; // comment\nfloat y = 3.5f; /* block */ x += y;" in
  let rec drain acc =
    match Frontend.Lexer.next lx with Frontend.Lexer.Eof -> List.rev acc | t -> drain (t :: acc)
  in
  let toks = drain [] in
  Alcotest.(check int) "token count" 14 (List.length toks);
  Alcotest.(check bool) "float literal" true
    (List.mem (Frontend.Lexer.Float_lit 3.5) toks);
  Alcotest.(check bool) "compound operator" true (List.mem (Frontend.Lexer.Punct "+=") toks)

let test_lexer_skips_preprocessor () =
  let lx = Frontend.Lexer.tokenize "#include <stdio.h>\n#pragma HLS pipeline\nint x;" in
  Alcotest.(check bool) "first token is int" true (Frontend.Lexer.next lx = Frontend.Lexer.Kw "int")

(* ---- Parser ------------------------------------------------------------------- *)

let test_parser_gemm () =
  let prog = Frontend.Parser.parse_program (Models.Polybench.source Models.Polybench.Gemm ~n:8) in
  match prog with
  | [ f ] ->
      Alcotest.(check string) "name" "gemm" f.Frontend.Cast.fname;
      Alcotest.(check int) "params" 5 (List.length f.Frontend.Cast.params)
  | _ -> Alcotest.fail "expected one function"

let test_parser_all_kernels () =
  List.iter
    (fun k ->
      let prog = Frontend.Parser.parse_program (Models.Polybench.source k ~n:8) in
      Alcotest.(check int)
        (Models.Polybench.name k ^ " parses")
        1 (List.length prog))
    (Models.Polybench.all @ Models.Polybench.extras)

let test_parser_for_le () =
  let prog = Frontend.Parser.parse_program "void f(float A[4]) { for (int i = 0; i <= 3; i++) { A[i] = 0.0; } }" in
  match prog with
  | [ { Frontend.Cast.fbody = [ Frontend.Cast.For fl ]; _ } ] ->
      Alcotest.(check string) "cmp" "<=" fl.Frontend.Cast.cmp
  | _ -> Alcotest.fail "unexpected shape"

let test_parser_rejects_while () =
  Alcotest.check_raises "while rejected"
    (Frontend.Parser.Parse_error "while loops are outside the synthesizable subset accepted here")
    (fun () -> ignore (Frontend.Parser.parse_program "void f() { while (1) { } }"))

let test_parser_rejects_pointer_pointer () =
  match Frontend.Parser.parse_program "void f(float **p) { }" with
  | exception Frontend.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "pointer-to-pointer accepted"

let test_parser_pointer_scalar () =
  (* a scalar pointer becomes a 1-element array (paper §6.1) *)
  match Frontend.Parser.parse_program "void f(float *out) { *out; }" with
  | exception Frontend.Parser.Parse_error _ ->
      (* deref syntax unsupported; just check the parameter type *)
      ()
  | _ -> ()

let test_parser_param_type () =
  match Frontend.Parser.parse_program "void f(float *out, int n) { }" with
  | [ { Frontend.Cast.params = [ p1; p2 ]; _ } ] ->
      Alcotest.(check bool) "ptr becomes [1]" true (p1.Frontend.Cast.pty = Frontend.Cast.Carr (Frontend.Cast.Cfloat, [ 1 ]));
      Alcotest.(check bool) "int scalar" true (p2.Frontend.Cast.pty = Frontend.Cast.Cint)
  | _ -> Alcotest.fail "unexpected shape"

(* ---- Codegen semantics ---------------------------------------------------------- *)

let reference_gemm ~n ~alpha ~beta a b c =
  let c = Array.copy c in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      c.((i * n) + j) <- c.((i * n) + j) *. beta;
      for k = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (alpha *. a.((i * n) + k) *. b.((k * n) + j))
      done
    done
  done;
  c

let test_codegen_gemm_semantics () =
  let n = 8 in
  let _, m = compile_kernel ~n Models.Polybench.Gemm in
  let a = Interp.buffer_init [ n; n ] Ty.F32 (fill_pattern 1) in
  let b = Interp.buffer_init [ n; n ] Ty.F32 (fill_pattern 2) in
  let c = Interp.buffer_init [ n; n ] Ty.F32 (fill_pattern 3) in
  let want = reference_gemm ~n ~alpha:1.5 ~beta:0.5 a.Interp.data b.Interp.data c.Interp.data in
  ignore
    (Interp.run_func m "gemm"
       [ Interp.VFloat 1.5; Interp.VFloat 0.5; Interp.VBuf c; Interp.VBuf a; Interp.VBuf b ]);
  Alcotest.(check bool) "matches reference" true (arrays_close want c.Interp.data)

let reference_trmm ~n ~alpha a b =
  let b = Array.copy b in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        b.((i * n) + j) <- b.((i * n) + j) +. (a.((k * n) + i) *. b.((k * n) + j))
      done;
      b.((i * n) + j) <- alpha *. b.((i * n) + j)
    done
  done;
  b

let test_codegen_trmm_semantics () =
  let n = 8 in
  let _, m = compile_kernel ~n Models.Polybench.Trmm in
  let a = Interp.buffer_init [ n; n ] Ty.F32 (fill_pattern 4) in
  let b = Interp.buffer_init [ n; n ] Ty.F32 (fill_pattern 5) in
  let want = reference_trmm ~n ~alpha:1.5 a.Interp.data b.Interp.data in
  ignore (Interp.run_func m "trmm" [ Interp.VFloat 1.5; Interp.VBuf a; Interp.VBuf b ]);
  Alcotest.(check bool) "matches reference" true (arrays_close want b.Interp.data)

let test_codegen_scalar_locals () =
  let src =
    {|
void acc(float A[8], float *out) {
  float s = 0.0;
  for (int i = 0; i < 8; i++) {
    s = s + A[i];
  }
  out[0] = s;
}
|}
  in
  let _, m = compile_c_affine src in
  let a = Interp.buffer_init [ 8 ] Ty.F32 (fun i -> float_of_int i) in
  let out = Interp.buffer_init [ 1 ] Ty.F32 (fun _ -> 0.) in
  ignore (Interp.run_func m "acc" [ Interp.VBuf a; Interp.VBuf out ]);
  Alcotest.(check (float 1e-9)) "sum 0..7" 28.0 out.Interp.data.(0)

let test_codegen_math_builtin () =
  let src = "void e(float A[4]) { for (int i = 0; i < 4; i++) { A[i] = expf(A[i]); } }" in
  let _, m = compile_c_affine src in
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 1.0) in
  ignore (Interp.run_func m "e" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-4)) "exp(1)" (Float.exp 1.0) a.Interp.data.(0)

let test_codegen_ternary () =
  let src = "void t(float A[4]) { for (int i = 0; i < 4; i++) { A[i] = A[i] > 1.0 ? 1.0 : A[i]; } }" in
  let _, m = compile_c_affine src in
  let a = Interp.buffer_init [ 4 ] Ty.F32 (fun i -> float_of_int i) in
  ignore (Interp.run_func m "t" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "clamped" 1.0 a.Interp.data.(3);
  Alcotest.(check (float 1e-9)) "kept" 0.0 a.Interp.data.(0)

(* ---- Raising ---------------------------------------------------------------------- *)

let test_raise_produces_affine () =
  let _, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  Alcotest.(check bool) "has affine.for" true (Walk.exists Affine_d.is_for m);
  Alcotest.(check bool) "no scf.for left" false (Walk.exists is_scf_for m);
  Alcotest.(check bool) "no memref.load left" false
    (Walk.exists (fun o -> o.Ir.name = "memref.load") m)

let test_raise_variable_bound () =
  (* j <= i raises into an affine loop with a variable upper bound *)
  let _, m = compile_kernel ~n:8 Models.Polybench.Syrk in
  let var_bound_loops =
    Walk.collect (fun o -> Affine_d.is_for o && not (Affine_d.has_const_bounds o)) m
  in
  Alcotest.(check bool) "has variable-bound affine loop" true (var_bound_loops <> [])

let test_raise_is_partial () =
  (* A loop with a data-dependent bound must stay at the scf level while the
     rest of the function still raises — the paper's partial granularity
     claim (§2.3). *)
  let src =
    {|
void partial(float A[8], float B[8], int n) {
  for (int i = 0; i < 8; i++) {
    A[i] = A[i] + 1.0;
  }
  for (int j = 0; j < n * n; j++) {
    B[0] = B[0] + 1.0;
  }
}
|}
  in
  let _, m = compile_c_affine src in
  Alcotest.(check bool) "affine part raised" true (Walk.exists Affine_d.is_for m);
  Alcotest.(check bool) "non-affine loop stays scf" true (Walk.exists is_scf_for m)

let test_raise_preserves_semantics () =
  List.iter
    (fun k ->
      let ctx = Ir.Ctx.create () in
      let src = Models.Polybench.source k ~n:6 in
      let scf_m = Frontend.Codegen.compile_source ctx src in
      let aff_m = Pass.run_one Frontend.Raise_affine.pass ctx scf_m in
      check_semantics ~msg:(Models.Polybench.name k ^ " raising") k ~n:6 scf_m aff_m)
    (Models.Polybench.all @ Models.Polybench.extras)

let test_raise_if_to_affine_if () =
  let src =
    {|
void guard(float A[8]) {
  for (int i = 0; i < 8; i++) {
    if (i < 4) {
      A[i] = 0.0;
    }
  }
}
|}
  in
  let _, m = compile_c_affine src in
  Alcotest.(check bool) "scf.if raised" true (Walk.exists Affine_d.is_if m);
  let a = Interp.buffer_init [ 8 ] Ty.F32 (fun _ -> 9.0) in
  ignore (Interp.run_func m "guard" [ Interp.VBuf a ]);
  Alcotest.(check (float 1e-9)) "guarded zeroed" 0.0 a.Interp.data.(2);
  Alcotest.(check (float 1e-9)) "unguarded kept" 9.0 a.Interp.data.(6)

let test_frontend_verifies () =
  List.iter
    (fun k ->
      let _, m = compile_kernel ~n:8 k in
      check_verifies ~msg:(Models.Polybench.name k) m)
    Models.Polybench.all

let suite =
  ( "frontend",
    [
      Alcotest.test_case "lexer token stream" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer skips preprocessor" `Quick test_lexer_skips_preprocessor;
      Alcotest.test_case "parser: gemm shape" `Quick test_parser_gemm;
      Alcotest.test_case "parser: all kernels" `Quick test_parser_all_kernels;
      Alcotest.test_case "parser: <= loops" `Quick test_parser_for_le;
      Alcotest.test_case "parser: rejects while" `Quick test_parser_rejects_while;
      Alcotest.test_case "parser: rejects T**" `Quick test_parser_rejects_pointer_pointer;
      Alcotest.test_case "parser: scalar pointer params" `Quick test_parser_param_type;
      Alcotest.test_case "codegen: gemm vs reference" `Quick test_codegen_gemm_semantics;
      Alcotest.test_case "codegen: trmm vs reference" `Quick test_codegen_trmm_semantics;
      Alcotest.test_case "codegen: scalar locals" `Quick test_codegen_scalar_locals;
      Alcotest.test_case "codegen: math builtins" `Quick test_codegen_math_builtin;
      Alcotest.test_case "codegen: ternary" `Quick test_codegen_ternary;
      Alcotest.test_case "raise: produces affine ops" `Quick test_raise_produces_affine;
      Alcotest.test_case "raise: variable bounds" `Quick test_raise_variable_bound;
      Alcotest.test_case "raise: partial granularity" `Quick test_raise_is_partial;
      Alcotest.test_case "raise: semantics (6 kernels)" `Quick test_raise_preserves_semantics;
      Alcotest.test_case "raise: scf.if to affine.if" `Quick test_raise_if_to_affine_if;
      Alcotest.test_case "verification of all kernels" `Quick test_frontend_verifies;
    ] )
