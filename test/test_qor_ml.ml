(* Tests of the surrogate search strategy's learned model (the paper's
   future-work item 3). *)

open Scalehls
open Helpers

(* ---- Online RLS (the surrogate's model) -------------------------------------- *)

let test_online_rls_recovers_linear_map () =
  (* y = 5 + 2*x1 - 3*x2 recovered from exact data via Sherman-Morrison
     updates; with tau = 100 the ridge prior leaves a ~1% shrinkage bias. *)
  let t = Qor_ml.Online.create ~dim:3 in
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
  let t = Qor_ml.Online.create ~dim:2 in
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

(* ---- Sample efficiency on the reference search ------------------------------ *)

(* gemm-64 at 24 samples, 48 iterations and seed 42, exhaustive and then
   surrogate, each frontier snapshot scored with the repository's one
   hypervolume at a fixed corner: 2x the unoptimized design's latency, and
   the platform's DSPs. The surrogate must keep 95 % of the exhaustive final
   hypervolume, and reach that mark within 60 % of the exhaustive explored
   count. The exhaustive run also writes an event log, from which the offline
   analyzer (scalehls-report) must rebuild the engine's final hypervolume. *)
let test_surrogate_efficiency_and_report_hv () =
  let ctx, m = compile_kernel ~n:64 Models.Polybench.Gemm in
  let platform = Vhls.Platform.xc7z020 in
  let ref_latency = 2 * (Vhls.Synth.synthesize m ~top:"gemm").Vhls.Synth.latency in
  let ref_area = platform.Vhls.Platform.dsp in
  let search strategy =
    let hvs = ref [] in
    let r =
      Dse.run ~samples:24 ~iterations:48 ~seed:42 ~strategy
        ~on_frontier:(fun front explored ->
          let pts =
            List.map
              (fun (p : Dse.evaluated) ->
                (p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
              front
          in
          hvs := (explored, Obs.Hv.log_hv2 ~ref_latency ~ref_area pts) :: !hvs)
        ctx m ~top:"gemm" ~platform
    in
    (r, List.rev !hvs)
  in
  let final = function [] -> 0. | hvs -> snd (List.nth hvs (List.length hvs - 1)) in
  let path = Filename.temp_file "qor_ml_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.close ();
      Obs.Metrics.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Events.configure path;
      let exhaustive, hvs_e = search Dse.exhaustive in
      Obs.Events.close ();
      let _, hvs_s = search (Qor_ml.surrogate ()) in
      let hv_e = final hvs_e and hv_s = final hvs_s in
      Alcotest.(check bool)
        (Fmt.str "surrogate HV %.3f >= 0.95 x exhaustive HV %.3f" hv_s hv_e)
        true
        (hv_s >= 0.95 *. hv_e);
      (match List.find_opt (fun (_, hv) -> hv >= 0.95 *. hv_e) hvs_s with
      | None -> Alcotest.fail "the surrogate never reached 95 % of the exhaustive HV"
      | Some (n, _) ->
          Alcotest.(check bool)
            (Fmt.str "95 %% HV at %d of %d evaluations, at most 60 %%" n
               exhaustive.Dse.explored)
            true
            (float_of_int n <= 0.6 *. float_of_int exhaustive.Dse.explored));
      match Obs.Analyze.parse_jsonl path with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok rows -> (
          match Obs.Analyze.jobs_of_events ~ref_latency ~ref_area rows with
          | [ jt ] ->
              Alcotest.(check (float 1e-9))
                "report HV = engine HV" hv_e (Obs.Analyze.final_hv jt)
          | jts -> Alcotest.failf "expected one job, got %d" (List.length jts)))

let suite =
  ( "qor-ml",
    [
      Alcotest.test_case "online RLS recovers a linear map" `Quick
        test_online_rls_recovers_linear_map;
      Alcotest.test_case "online RLS leverage shrinks" `Quick test_online_leverage_shrinks;
      Alcotest.test_case "point features" `Quick test_point_features;
      Alcotest.test_case "strategy registry" `Quick test_strategy_registry;
      Alcotest.test_case "surrogate efficiency and report HV (gemm-64)" `Slow
        test_surrogate_efficiency_and_report_hv;
    ] )
