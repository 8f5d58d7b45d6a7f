(* Tests of the ML-based QoR estimator (the paper's future-work item 3). *)

open Scalehls
open Helpers

let test_features_shape () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  ignore ctx;
  let x = Qor_ml.features m ~top:"gemm" in
  Alcotest.(check int) "feature count" Qor_ml.num_features (Array.length x);
  Alcotest.(check (float 1e-9)) "bias" 1.0 x.(Qor_ml.num_features - 1);
  Alcotest.(check bool) "volume positive" true (x.(0) > 0.)

let test_features_sensitive_to_optimization () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let pt = { Dse.lp = true; rvb = false; perm = [ 1; 2; 0 ]; tiles = [ 2; 1; 4 ]; target_ii = 1 } in
  let m' = Dse.apply_point ctx m ~top:"gemm" pt in
  let x0 = Qor_ml.features m ~top:"gemm" and x1 = Qor_ml.features m' ~top:"gemm" in
  Alcotest.(check bool) "pipelined volume appears" true (x1.(1) > x0.(1));
  Alcotest.(check bool) "FU count grows with unrolling" true (x1.(3) > x0.(3))

let test_trained_model_tracks_tool () =
  let ctx = Mir.Ir.Ctx.create () in
  let designs =
    List.map
      (fun k ->
        ( Pipeline.compile_c ctx (Models.Polybench.source k ~n:16),
          Models.Polybench.name k ))
      [ Models.Polybench.Gemm; Models.Polybench.Bicg; Models.Polybench.Gesummv ]
  in
  let model, samples = Qor_ml.train ~points_per_design:10 ~seed:3 ctx designs in
  (* in-sample fit: average ratio well under 4x (log error < 1.4) *)
  let err = Qor_ml.mean_abs_log_error model samples in
  Alcotest.(check bool) (Fmt.str "training log-error %.2f < 1.4" err) true (err < 1.4);
  (* generalization: an unseen kernel's baseline prediction is within 100x of
     the tool (a crude but honest bar for 30 training points). *)
  let unseen = Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Syrk ~n:16) in
  let predicted = Qor_ml.predict model unseen ~top:"syrk" in
  let actual = (Vhls.Synth.synthesize unseen ~top:"syrk").Vhls.Synth.latency in
  let ratio =
    float_of_int (max predicted actual) /. float_of_int (max 1 (min predicted actual))
  in
  Alcotest.(check bool) (Fmt.str "unseen ratio %.1f < 100" ratio) true (ratio < 100.)

(* ---- Online RLS (the surrogate's model, and the trained estimator's) --------- *)

let test_online_rls_recovers_linear_map () =
  (* y = 5 + 2*x1 - 3*x2 recovered from exact data via Sherman-Morrison
     updates; with tau = 100 the ridge prior leaves a ~1% shrinkage bias. *)
  let t = Qor_ml.Online.create ~dim:3 () in
  let mk a b = [| 1.; a; b |] in
  let f x = 5. +. (2. *. x.(1)) -. (3. *. x.(2)) in
  let xs =
    [ mk 1. 0.; mk 0. 1.; mk 1. 1.; mk 2. 1.; mk 3. 5.; mk 0. 0.; mk 4. 2.; mk 2. 7. ]
  in
  List.iter (fun x -> Qor_ml.Online.observe t x (f x)) xs;
  Alcotest.(check int) "count" (List.length xs) (Qor_ml.Online.count t);
  List.iter
    (fun x ->
      Alcotest.(check (float 0.2)) "predicts training point" (f x)
        (Qor_ml.Online.predict t x))
    xs

let test_online_leverage_shrinks () =
  (* x^T P x is the predictive-variance scale: it must fall monotonically as
     the same direction is observed, and never go negative. *)
  let t = Qor_ml.Online.create ~dim:2 () in
  let x = [| 1.; 2. |] in
  let l0 = Qor_ml.Online.leverage t x in
  Qor_ml.Online.observe t x 1.;
  let l1 = Qor_ml.Online.leverage t x in
  Qor_ml.Online.observe t x 1.;
  let l2 = Qor_ml.Online.leverage t x in
  Alcotest.(check bool) "leverage positive before data" true (l0 > 0.);
  Alcotest.(check bool) "shrinks after first observation" true (l1 < l0);
  Alcotest.(check bool) "keeps shrinking" true (l2 < l1);
  Alcotest.(check bool) "stays non-negative" true (l2 >= 0.)

let test_point_features () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let s = Dse.build_space ctx m ~top:"gemm" in
  let pt1 =
    { Dse.lp = true; rvb = false; perm = [ 0; 1; 2 ]; tiles = [ 1; 1; 1 ]; target_ii = 1 }
  in
  let x1 = Qor_ml.point_features s pt1 in
  Alcotest.(check int) "dimension" Qor_ml.point_dim (Array.length x1);
  Alcotest.(check (float 1e-9)) "bias" 1.0 x1.(0);
  (* More unrolling = fewer pipeline iterations: the unroll feature grows and
     the iteration feature falls, without ever applying the transform. *)
  let x2 = Qor_ml.point_features s { pt1 with Dse.tiles = [ 2; 2; 2 ] } in
  Alcotest.(check bool) "unroll feature grows" true (x2.(3) > x1.(3));
  Alcotest.(check bool) "iteration feature falls" true (x2.(1) < x1.(1))

let test_strategy_registry () =
  Alcotest.(check bool) "exhaustive resolves" true
    (Option.is_some (Qor_ml.strategy_of_name "exhaustive"));
  Alcotest.(check bool) "surrogate resolves" true
    (Option.is_some (Qor_ml.strategy_of_name "surrogate"));
  Alcotest.(check bool) "unknown rejected" true
    (Option.is_none (Qor_ml.strategy_of_name "simulated-annealing"));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " listed name resolves") true
        (Option.is_some (Qor_ml.strategy_of_name n)))
    Qor_ml.strategy_names

let suite =
  ( "qor-ml",
    [
      Alcotest.test_case "feature extraction" `Quick test_features_shape;
      Alcotest.test_case "features track optimization" `Quick test_features_sensitive_to_optimization;
      Alcotest.test_case "trained model tracks the tool" `Slow test_trained_model_tracks_tool;
      Alcotest.test_case "online RLS recovers a linear map" `Quick
        test_online_rls_recovers_linear_map;
      Alcotest.test_case "online RLS leverage shrinks" `Quick test_online_leverage_shrinks;
      Alcotest.test_case "point features" `Quick test_point_features;
      Alcotest.test_case "strategy registry" `Quick test_strategy_registry;
    ] )
