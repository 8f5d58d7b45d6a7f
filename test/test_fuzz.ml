(* Tests of the fuzzing subsystem: generator determinism and well-formedness,
   the shared float comparator, the typed interpreter errors and integer
   division semantics, the corpus format and its regression replay, the
   reducer's shrink invariants, and regression units for the two miscompiles
   the fuzzer found (CSE constant type confusion, tile dependence reorder). *)

open Mir
open Dialects
open Scalehls

(* Printed IR of a generated program: the canonical form the determinism
   checks compare. *)
let program_text (p : Fuzz.Gen.t) = Printer.op_to_string p.Fuzz.Gen.module_

(* ---- RNG ------------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Fuzz.Rng.create 7 and b = Fuzz.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Fuzz.Rng.int a 1000) (Fuzz.Rng.int b 1000)
  done;
  let c = Fuzz.Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Fuzz.Rng.int a 1000 <> Fuzz.Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seed, different stream" true !differs;
  Alcotest.(check bool) "derive differs from base" true
    (Fuzz.Rng.derive 42 0 <> Fuzz.Rng.derive 42 1);
  let r = Fuzz.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Fuzz.Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10)
  done

(* ---- Generator -------------------------------------------------------------- *)

let test_gen_determinism () =
  (* Identical seed => byte-identical printed IR and identical pipeline. *)
  List.iter
    (fun seed ->
      let p1 = Fuzz.Gen.program ~seed () and p2 = Fuzz.Gen.program ~seed () in
      Alcotest.(check string) "same printed IR"
        (program_text p1) (program_text p2);
      let c1 = Fuzz.Gen.config p1 and c2 = Fuzz.Gen.config p2 in
      Alcotest.(check (list string)) "same pipeline"
        c1.Fuzz.Gen.pipeline c2.Fuzz.Gen.pipeline)
    [ 0; 1; 42; 12345 ];
  let a = program_text (Fuzz.Gen.program ~seed:1 ()) in
  let b = program_text (Fuzz.Gen.program ~seed:2 ()) in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_gen_well_formed () =
  (* Every generated module verifies and interprets without error. *)
  for seed = 0 to 39 do
    let p = Fuzz.Gen.program ~seed () in
    (match Verify.verify p.Fuzz.Gen.module_ with
    | Ok () -> ()
    | Error es ->
        Alcotest.failf "seed %d does not verify: %a" seed
          Fmt.(list ~sep:sp Verify.pp_error)
          es);
    match Fuzz.Oracle.run_outputs ~seed p.Fuzz.Gen.module_ ~top:p.Fuzz.Gen.top with
    | outs -> Alcotest.(check bool) "has outputs" true (Array.length outs > 0)
    | exception e -> Alcotest.failf "seed %d does not interpret: %s" seed (Printexc.to_string e)
  done

let test_gen_pipelines_valid () =
  for seed = 0 to 19 do
    let p = Fuzz.Gen.program ~seed () in
    let cfg = Fuzz.Gen.config p in
    Alcotest.(check bool) "pipeline nonempty" true (cfg.Fuzz.Gen.pipeline <> []);
    List.iter
      (fun name ->
        match
          List.find_opt
            (fun (r : Transform_lib.row) -> r.pass.Pass.pass_name = name)
            Transform_lib.all_passes
        with
        | Some r ->
            Alcotest.(check bool) (name ^ " differential-testable") true
              (Option.is_some r.probe)
        | None -> Alcotest.failf "%s not registered" name)
      cfg.Fuzz.Gen.pipeline
  done

let test_differential_clean () =
  (* The acceptance property in miniature: a seed sweep of the full
     differential oracle finds nothing (seed 42's first 40 programs). *)
  for i = 0 to 39 do
    let seed = Fuzz.Rng.derive 42 i in
    let p = Fuzz.Gen.program ~seed () in
    let cfg = Fuzz.Gen.config p in
    match
      Fuzz.Oracle.differential ~seed p.Fuzz.Gen.module_ ~top:p.Fuzz.Gen.top
        ~pipeline:cfg.Fuzz.Gen.pipeline
    with
    | [] -> ()
    | f :: _ -> Alcotest.failf "prog seed %d: %a" seed Fuzz.Oracle.pp_failure f
  done

let pool_names m = List.map (fun (p : Pass.t) -> p.pass_name) (Transform_lib.fuzz_pool m)

let test_fuzz_pool () =
  let p = Fuzz.Gen.program ~seed:0 () in
  let pool = pool_names p.Fuzz.Gen.module_ in
  Alcotest.(check bool) "pool nonempty" true (pool <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " excluded") true (not (List.mem name pool)))
    [ "legalize-dataflow"; "split-function"; "lower-graph"; "lower-scf-to-cf" ]

(* The draws the generator makes, pinned in test/golden/fuzz_draws.txt: the
   pipelines of program seeds 0-99 and the fuzz pool of every PolyBench
   kernel at N=8, all of which follow from the pass table's order and
   probes. A registry edit that changes what the fuzzer draws shows here. *)
let fuzz_draws () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# Fuzz.Gen.config pipelines of program seeds 0-99\n";
  for seed = 0 to 99 do
    let cfg = Fuzz.Gen.config (Fuzz.Gen.program ~seed ()) in
    Printf.bprintf b "seed %d: %s\n" seed (String.concat " " cfg.Fuzz.Gen.pipeline)
  done;
  Buffer.add_string b "# fuzz pool of the PolyBench kernels at N=8\n";
  List.iter
    (fun k ->
      let _, m = Helpers.compile_kernel ~n:8 k in
      Printf.bprintf b "%s: %s\n" (Models.Polybench.name k)
        (String.concat " " (pool_names m)))
    Models.Polybench.all;
  Buffer.contents b

let test_fuzz_draws_pinned () =
  let golden =
    if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"
  in
  let want =
    In_channel.with_open_bin (Filename.concat golden "fuzz_draws.txt") In_channel.input_all
  in
  Alcotest.(check (list string)) "pinned draws"
    (String.split_on_char '\n' want)
    (String.split_on_char '\n' (fuzz_draws ()))

(* ---- Float comparator -------------------------------------------------------- *)

let test_float_compare () =
  let module Fc = Float_compare in
  Alcotest.(check bool) "equal" true (Fc.close 1.0 1.0);
  Alcotest.(check bool) "within eps" true (Fc.close 1.0 1.0005);
  Alcotest.(check bool) "outside eps" false (Fc.close 1.0 1.1);
  Alcotest.(check bool) "relative, large magnitudes" true (Fc.close 1000000.0 1000400.0);
  Alcotest.(check bool) "nan ~ nan" true (Fc.close Float.nan Float.nan);
  Alcotest.(check bool) "inf ~ inf" true (Fc.close Float.infinity Float.infinity);
  Alcotest.(check bool) "inf <> -inf" false (Fc.close Float.infinity Float.neg_infinity);
  Alcotest.(check bool) "nan <> 1.0" false (Fc.close Float.nan 1.0);
  (match Fc.compare_arrays [| 1.0; 2.0 |] [| 1.0 |] with
  | Some (Fc.Length { want = 2; got = 1 }) -> ()
  | _ -> Alcotest.fail "expected Length mismatch");
  (match Fc.compare_arrays [| 1.0; 2.0 |] [| 1.0; 2.5 |] with
  | Some (Fc.Element { index = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Element mismatch at 1");
  Alcotest.(check bool) "arrays close" true
    (Helpers.arrays_close [| 1.0; 2.0 |] [| 1.0; 2.0000001 |])

(* ---- Typed interpreter errors and integer division semantics ----------------- *)

(* A zero-arg function computing [ops] and returning [result]. *)
let scalar_fn build =
  let ctx = Ir.Ctx.create () in
  let f =
    Func.func ctx ~name:"f" ~inputs:[] ~outputs:[ Ty.I32 ] (fun _ ->
        let ops, v = build ctx in
        ops @ [ Func.return_ [ v ] ])
  in
  Ir.module_ [ f ]

let eval_int build =
  match Interp.run_func (scalar_fn build) "f" [] with
  | [ Interp.VInt i ] -> i
  | _ -> Alcotest.fail "expected one integer result"

let int_binop f a b =
  eval_int (fun ctx ->
      let oa, va = Arith.constant_i ctx ~ty:Ty.I32 a in
      let ob, vb = Arith.constant_i ctx ~ty:Ty.I32 b in
      let o, v = f ctx va vb in
      ([ oa; ob; o ], v))

let test_int_division_semantics () =
  (* divi/remi truncate toward zero (remainder keeps the dividend's sign);
     floordivi/ceildivi round toward -inf/+inf — the documented semantics. *)
  Alcotest.(check int) "-7 divi 2" (-3) (int_binop Arith.divi (-7) 2);
  Alcotest.(check int) "7 divi 2" 3 (int_binop Arith.divi 7 2);
  Alcotest.(check int) "-7 remi 2" (-1) (int_binop Arith.remi (-7) 2);
  Alcotest.(check int) "7 remi -2" 1 (int_binop Arith.remi 7 (-2));
  Alcotest.(check int) "-7 floordivi 2" (-4) (int_binop Arith.floordivi (-7) 2);
  Alcotest.(check int) "7 floordivi 2" 3 (int_binop Arith.floordivi 7 2);
  Alcotest.(check int) "-7 ceildivi 2" (-3) (int_binop Arith.ceildivi (-7) 2);
  Alcotest.(check int) "7 ceildivi 2" 4 (int_binop Arith.ceildivi 7 2)

let expect_error kind f =
  match f () with
  | (_ : int) -> Alcotest.fail "expected an Interp_error"
  | exception Interp.Interp_error (k, _) ->
      Alcotest.(check string) "error kind"
        (Interp.error_kind_to_string kind)
        (Interp.error_kind_to_string k)

let test_typed_errors () =
  expect_error Interp.Div_by_zero (fun () -> int_binop Arith.divi 1 0);
  expect_error Interp.Div_by_zero (fun () -> int_binop Arith.remi 1 0);
  expect_error Interp.Div_by_zero (fun () -> int_binop Arith.floordivi 1 0);
  (* Integer op on float operands: the strict as_int projection rejects the
     coercion with a Type_error (previously silently truncated). *)
  expect_error Interp.Type_error (fun () ->
      eval_int (fun ctx ->
          let oa, va = Arith.constant_f ctx 1.5 in
          let ob, vb = Arith.constant_f ctx 2.5 in
          let o, v = Arith.addi ctx va vb in
          ([ oa; ob; o ], v)));
  (* Out-of-bounds access reports Bounds_error. *)
  (match
     let ctx = Ir.Ctx.create () in
     let f =
       Func.func ctx ~name:"f" ~inputs:[ Ty.memref [ 4 ] Ty.F32 ] ~outputs:[]
         (fun args ->
           let mem = List.hd args in
           let oc, c = Arith.constant_i ctx 9 in
           let ol, _ = Helpers.load_id ctx mem [ c ] in
           [ oc; ol; Func.return_ [] ])
     in
     Interp.run_func (Ir.module_ [ f ]) "f"
       [ Interp.VBuf (Interp.buffer_init [ 4 ] Ty.F32 (fun _ -> 0.)) ]
   with
  | _ -> Alcotest.fail "expected Bounds_error"
  | exception Interp.Interp_error (Interp.Bounds_error, _) -> ())

(* ---- Corpus ------------------------------------------------------------------ *)

(* Under `dune runtest` the cwd is the sandboxed test dir (corpus/ is a dep);
   under `dune exec test/test_main.exe` it is the project root. *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_entries () =
  let corpus = corpus_dir () in
  Sys.readdir corpus |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.map (fun f ->
         match Fuzz.Corpus.load (Filename.concat corpus f) with
         | Ok e -> e
         | Error msg -> Alcotest.failf "%s: %s" f msg)

let test_corpus_roundtrip () =
  let e =
    {
      Fuzz.Corpus.name = "x";
      oracle = Fuzz.Corpus.Interp_diff;
      seed = 7;
      pipeline = [ "cse"; "canonicalize" ];
      note = "a note";
      gen = Fuzz.Corpus.gen_current;
    }
  in
  match Fuzz.Corpus.of_string (Fuzz.Corpus.to_string ~ir:"some\nir" e) with
  | Ok e' ->
      Alcotest.(check string) "name" e.Fuzz.Corpus.name e'.Fuzz.Corpus.name;
      Alcotest.(check int) "seed" e.Fuzz.Corpus.seed e'.Fuzz.Corpus.seed;
      Alcotest.(check (list string)) "pipeline" e.Fuzz.Corpus.pipeline e'.Fuzz.Corpus.pipeline;
      Alcotest.(check string) "note" e.Fuzz.Corpus.note e'.Fuzz.Corpus.note
  | Error msg -> Alcotest.fail msg

let test_oracle_kind_names () =
  let names = List.map snd Fuzz.Corpus.oracle_kinds in
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (kind, name) ->
      Alcotest.(check string) "to_string" name (Fuzz.Corpus.oracle_kind_to_string kind);
      Alcotest.(check bool)
        (name ^ " round-trips") true
        (Fuzz.Corpus.oracle_kind_of_string name = Some kind);
      Alcotest.(check bool)
        (name ^ " classifies") true
        (Fuzz.Engine.classify { Fuzz.Oracle.oracle = name; stage = None; detail = "" }
        = kind))
    Fuzz.Corpus.oracle_kinds;
  (* A differential failure surfaces under its stage's name. *)
  Alcotest.(check bool) "other names classify as interp-diff" true
    (Fuzz.Engine.classify { Fuzz.Oracle.oracle = "pass-crash"; stage = None; detail = "" }
    = Fuzz.Corpus.Interp_diff);
  Alcotest.(check bool) "unknown name" true
    (Fuzz.Corpus.oracle_kind_of_string "nosuch" = None)

let test_corpus_replay () =
  let entries = corpus_entries () in
  Alcotest.(check bool) "corpus nonempty" true (List.length entries >= 4);
  List.iter
    (fun (e : Fuzz.Corpus.entry) ->
      match Fuzz.Corpus.replay e with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s regressed: %a" e.Fuzz.Corpus.name Fuzz.Oracle.pp_failure f)
    entries

(* ---- Reducer ------------------------------------------------------------------ *)

let test_reducer_invariants () =
  (* Shrink a generated program against a synthetic structural oracle (the
     module contains an affine.store). Invariants: the reduced case still
     fails the oracle, still verifies, and is strictly smaller whenever any
     shrink was accepted. *)
  let p = Fuzz.Gen.program ~seed:5 () in
  let cfg = Fuzz.Gen.config p in
  let still_fails (c : Fuzz.Reduce.candidate) =
    Walk.exists (fun o -> o.Ir.name = "affine.store") c.Fuzz.Reduce.module_
  in
  let c0 =
    { Fuzz.Reduce.module_ = p.Fuzz.Gen.module_; pipeline = cfg.Fuzz.Gen.pipeline }
  in
  let o = Fuzz.Reduce.run ~still_fails c0 in
  Alcotest.(check bool) "still fails" true (still_fails o.Fuzz.Reduce.reduced);
  Alcotest.(check bool) "still verifies" true
    (match Verify.verify o.Fuzz.Reduce.reduced.Fuzz.Reduce.module_ with
    | Ok () -> true
    | Error _ -> false);
  Alcotest.(check bool) "strictly smaller" true
    (o.Fuzz.Reduce.final_size < o.Fuzz.Reduce.initial_size);
  Alcotest.(check bool) "steps ran" true (o.Fuzz.Reduce.steps > 0);
  (* The synthetic oracle ignores the pipeline, so reduction drops it all. *)
  Alcotest.(check (list string)) "pipeline emptied" []
    o.Fuzz.Reduce.reduced.Fuzz.Reduce.pipeline;
  (* Local minimum: re-running the reducer shrinks nothing further. *)
  let o2 = Fuzz.Reduce.run ~still_fails o.Fuzz.Reduce.reduced in
  Alcotest.(check int) "fixpoint" o.Fuzz.Reduce.final_size o2.Fuzz.Reduce.final_size

let test_reducer_rejects_passing_input () =
  let p = Fuzz.Gen.program ~seed:5 () in
  let c0 = { Fuzz.Reduce.module_ = p.Fuzz.Gen.module_; pipeline = [] } in
  match Fuzz.Reduce.run ~still_fails:(fun _ -> false) c0 with
  | (_ : Fuzz.Reduce.outcome) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---- Regression units for the two fuzzer-found miscompiles ------------------- *)

let test_cse_keeps_typed_constants () =
  (* `4 : index` and `4.0 : f32` print their value attrs identically; CSE
     must not merge them (found by fuzzing: full unrolling mints index
     constants that collided with float constants). *)
  let ctx = Ir.Ctx.create () in
  let f =
    Func.func ctx ~name:"f" ~inputs:[ Ty.memref [ 8 ] Ty.F32 ] ~outputs:[]
      (fun args ->
        let mem = List.hd args in
        let oi, vi = Arith.constant_i ctx 4 in
        let og, vg = Arith.constant_f ctx 4.0 in
        let ol, vl = Helpers.load_id ctx mem [ vi ] in
        let oa, va = Arith.addf ctx vl vg in
        let os = Helpers.store_id ctx va mem [ vi ] in
        [ oi; og; ol; oa; os; Func.return_ [] ])
  in
  let m = Ir.module_ [ f ] in
  let m' = Pass.run_one Cse.pass (Ir.Ctx.of_op m) m in
  let constants = Walk.collect Arith.is_constant m' in
  Alcotest.(check int) "both constants survive" 2 (List.length constants);
  (* And the result still interprets identically. *)
  let args () = [ Interp.VBuf (Interp.buffer_init [ 8 ] Ty.F32 float_of_int) ] in
  let run m =
    let a = args () in
    ignore (Interp.run_func m "f" a);
    Fuzz.Oracle.outputs_of_args a
  in
  Alcotest.(check bool) "semantics preserved" true
    (Helpers.arrays_close (run m) (run m'))

let test_tile_pass_skips_illegal_band () =
  (* A 2-loop band with a backward dependence (A[i][j] reads A[i-1][j+1],
     distance (1,-1)): not fully permutable, so the standalone tile pass must
     leave it alone (found by fuzzing: tiling reordered dependent
     iterations). *)
  let ctx = Ir.Ctx.create () in
  let mk_func () =
    Func.func ctx ~name:"f" ~inputs:[ Ty.memref [ 8; 8 ] Ty.F32 ] ~outputs:[]
      (fun args ->
        let mem = List.hd args in
        [
          Affine_d.for_const ctx ~lb:1 ~ub:8 (fun i ->
              [
                Affine_d.for_const ctx ~lb:0 ~ub:7 (fun j ->
                    let map_r =
                      Affine.Map.make ~num_dims:2 ~num_syms:0
                        [
                          Affine.Expr.sub (Affine.Expr.dim 0) (Affine.Expr.const 1);
                          Affine.Expr.add (Affine.Expr.dim 1) (Affine.Expr.const 1);
                        ]
                    in
                    let ol, vl = Affine_d.load ctx mem ~map:map_r [ i; j ] in
                    let os =
                      Helpers.store_id ctx vl mem [ i; j ]
                    in
                    [ ol; os; Affine_d.yield ]);
                Affine_d.yield;
              ]);
          Func.return_ [];
        ])
  in
  let m = Ir.module_ [ mk_func () ] in
  let m' = Pass.run_one (Loop_tile.pass ~tile_size:2) (Ir.Ctx.of_op m) m in
  Alcotest.(check int) "band untouched (still 2 loops)" 2
    (Walk.count (fun o -> o.Ir.name = "affine.for") m');
  (* Sanity for the gate itself: a dependence-free band must still tile, with
     identical semantics. *)
  let ctx2 = Ir.Ctx.create () in
  let legal =
    Func.func ctx2 ~name:"g"
      ~inputs:[ Ty.memref [ 8; 8 ] Ty.F32; Ty.memref [ 8; 8 ] Ty.F32 ]
      ~outputs:[]
      (fun args ->
        let a = List.nth args 0 and b = List.nth args 1 in
        [
          Affine_d.for_const ctx2 ~lb:0 ~ub:8 (fun i ->
              [
                Affine_d.for_const ctx2 ~lb:0 ~ub:8 (fun j ->
                    let ol, vl = Helpers.load_id ctx2 a [ i; j ] in
                    let on, vn = Arith.negf ctx2 vl in
                    let os = Helpers.store_id ctx2 vn b [ i; j ] in
                    [ ol; on; os; Affine_d.yield ]);
                Affine_d.yield;
              ]);
          Func.return_ [];
        ])
  in
  let lm = Ir.module_ [ legal ] in
  let lm' = Pass.run_one (Loop_tile.pass ~tile_size:2) (Ir.Ctx.of_op lm) lm in
  Alcotest.(check bool) "legal band still tiled" true
    (Walk.count (fun o -> o.Ir.name = "affine.for") lm'
    > Walk.count (fun o -> o.Ir.name = "affine.for") lm);
  let run m =
    let args =
      [
        Interp.VBuf (Interp.buffer_init [ 8; 8 ] Ty.F32 float_of_int);
        Interp.VBuf (Interp.buffer_init [ 8; 8 ] Ty.F32 (fun _ -> 0.));
      ]
    in
    ignore (Interp.run_func m "g" args);
    Fuzz.Oracle.outputs_of_args args
  in
  Alcotest.(check bool) "tiled semantics preserved" true
    (Helpers.arrays_close (run lm) (run lm'))

(* ---- QoR oracles -------------------------------------------------------------- *)

let test_qor_oracles_clean () =
  for seed = 0 to 9 do
    let p = Fuzz.Gen.program ~seed () in
    let m = p.Fuzz.Gen.module_ and top = p.Fuzz.Gen.top in
    (match Fuzz.Oracle.qor_pipelining_monotone m ~top with
    | [] -> ()
    | f :: _ -> Alcotest.failf "seed %d: %a" seed Fuzz.Oracle.pp_failure f);
    match Fuzz.Oracle.qor_estimator_agrees m ~top with
    | [] -> ()
    | f :: _ -> Alcotest.failf "seed %d: %a" seed Fuzz.Oracle.pp_failure f
  done

let test_dse_oracle_clean () =
  let p = Fuzz.Gen.program ~seed:3 () in
  match
    Fuzz.Oracle.dse_jobs_deterministic ~seed:3 p.Fuzz.Gen.module_ ~top:p.Fuzz.Gen.top
  with
  | [] -> ()
  | f :: _ -> Alcotest.failf "%a" Fuzz.Oracle.pp_failure f

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "rng: determinism + ranges" `Quick test_rng_determinism;
      Alcotest.test_case "gen: same seed, same stream" `Quick test_gen_determinism;
      Alcotest.test_case "gen: verifies + interprets (40 seeds)" `Quick test_gen_well_formed;
      Alcotest.test_case "gen: pipelines valid" `Quick test_gen_pipelines_valid;
      Alcotest.test_case "differential: clean seed sweep" `Slow test_differential_clean;
      Alcotest.test_case "probe: fuzz pool excludes non-testable" `Quick test_fuzz_pool;
      Alcotest.test_case "probe: pinned draws" `Quick test_fuzz_draws_pinned;
      Alcotest.test_case "float-compare: eps/ulp/non-finite" `Quick test_float_compare;
      Alcotest.test_case "interp: integer division semantics" `Quick test_int_division_semantics;
      Alcotest.test_case "interp: typed errors" `Quick test_typed_errors;
      Alcotest.test_case "corpus: format round-trip" `Quick test_corpus_roundtrip;
      Alcotest.test_case "corpus: oracle names round-trip" `Quick test_oracle_kind_names;
      Alcotest.test_case "corpus: replay (fixed findings stay fixed)" `Slow test_corpus_replay;
      Alcotest.test_case "reduce: shrink invariants" `Quick test_reducer_invariants;
      Alcotest.test_case "reduce: rejects passing input" `Quick test_reducer_rejects_passing_input;
      Alcotest.test_case "regression: cse keeps typed constants" `Quick test_cse_keeps_typed_constants;
      Alcotest.test_case "regression: tile skips non-permutable band" `Quick test_tile_pass_skips_illegal_band;
      Alcotest.test_case "qor: metamorphic oracles clean" `Quick test_qor_oracles_clean;
      Alcotest.test_case "dse: -j determinism oracle clean" `Slow test_dse_oracle_clean;
    ] )
