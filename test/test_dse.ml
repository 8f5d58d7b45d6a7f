(* DSE engine tests: space construction, Pareto-frontier properties,
   determinism, and actual quality improvement. *)

open Scalehls
open Helpers

module P = Vhls.Platform

(* ---- Pareto frontier properties ------------------------------------------------------ *)

let mk_eval latency dsp feasible =
  {
    Dse.point = { Dse.lp = false; rvb = false; perm = []; tiles = []; target_ii = latency };
    estimate =
      {
        Estimator.latency;
        interval = latency;
        usage = { P.usage_zero with P.u_dsp = dsp };
      };
    feasible;
  }

let test_pareto_basic () =
  let pts = [ mk_eval 10 5 true; mk_eval 5 10 true; mk_eval 10 10 true; mk_eval 20 20 true ] in
  let front = Dse.pareto_frontier pts in
  Alcotest.(check int) "two survivors" 2 (List.length front);
  Alcotest.(check (list int)) "latency sorted" [ 5; 10 ]
    (List.map (fun p -> p.Dse.estimate.Estimator.latency) front)

let test_pareto_drops_infeasible () =
  let pts = [ mk_eval 1 1 false; mk_eval 10 10 true ] in
  let front = Dse.pareto_frontier pts in
  Alcotest.(check int) "infeasible dropped" 1 (List.length front);
  Alcotest.(check int) "kept the feasible" 10
    ((List.hd front).Dse.estimate.Estimator.latency)

let arb_points =
  QCheck.make
    ~print:(fun l -> Fmt.str "%d points" (List.length l))
    QCheck.Gen.(
      list_size (int_range 1 30)
        (map2 (fun l d -> mk_eval (1 + l) (1 + d) true) (int_range 0 50) (int_range 0 50)))

let prop_pareto_no_dominated =
  qtest ~count:200 "no frontier point dominates another" arb_points (fun pts ->
      let front = Dse.pareto_frontier pts in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a == b
              || not
                   (b.Dse.estimate.Estimator.latency <= a.Dse.estimate.Estimator.latency
                   && Dse.area_of b.Dse.estimate <= Dse.area_of a.Dse.estimate))
            front)
        front)

(* The O(n log n) sort-and-sweep must agree with the textbook O(n^2)
   dominance filter (modulo the representative kept among duplicate
   (latency, area) pairs, which both collapse to one). *)
let naive_pareto (pts : Dse.evaluated list) : (int * int) list =
  let feas = List.filter (fun (p : Dse.evaluated) -> p.Dse.feasible) pts in
  let dominated (a : Dse.evaluated) (b : Dse.evaluated) =
    b.Dse.estimate.Estimator.latency <= a.Dse.estimate.Estimator.latency
    && Dse.area_of b.Dse.estimate <= Dse.area_of a.Dse.estimate
    && (b.Dse.estimate.Estimator.latency < a.Dse.estimate.Estimator.latency
       || Dse.area_of b.Dse.estimate < Dse.area_of a.Dse.estimate)
  in
  List.filter (fun a -> not (List.exists (dominated a) feas)) feas
  |> List.map (fun (p : Dse.evaluated) ->
         (p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
  |> List.sort_uniq compare

let prop_pareto_matches_naive =
  qtest ~count:200 "sweep frontier = naive O(n^2) frontier" arb_points (fun pts ->
      let fast =
        List.map
          (fun (p : Dse.evaluated) ->
            (p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
          (Dse.pareto_frontier pts)
      in
      fast = naive_pareto pts)

let prop_pareto_covers =
  qtest ~count:200 "every point is dominated by or on the frontier" arb_points (fun pts ->
      let front = Dse.pareto_frontier pts in
      List.for_all
        (fun p ->
          List.exists
            (fun f ->
              f.Dse.estimate.Estimator.latency <= p.Dse.estimate.Estimator.latency
              && Dse.area_of f.Dse.estimate <= Dse.area_of p.Dse.estimate)
            front)
        pts)

(* ---- Space ----------------------------------------------------------------------------- *)

let test_space_gemm () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let s = Dse.build_space ~max_unroll:64 ctx m ~top:"gemm" in
  Alcotest.(check bool) "several legal perms" true (List.length s.Dse.perms > 1);
  Alcotest.(check int) "three tile dims" 3 (List.length s.Dse.tile_options);
  Alcotest.(check bool) "lp applicable" true (List.length s.Dse.lp_options = 2);
  Alcotest.(check bool) "space is large" true (Dse.space_size s > 100)

let test_space_rvb_only_for_triangular () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let s = Dse.build_space ctx m ~top:"gemm" in
  Alcotest.(check (list bool)) "gemm: rvb not applicable" [ false ] s.Dse.rvb_options;
  let ctx2, m2 = compile_kernel ~n:8 Models.Polybench.Syrk in
  let s2 = Dse.build_space ctx2 m2 ~top:"syrk" in
  Alcotest.(check int) "syrk: rvb is a dimension" 2 (List.length s2.Dse.rvb_options)

let test_neighbors_are_close () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let s = Dse.build_space ctx m ~top:"gemm" in
  let rng = Random.State.make [| 1 |] in
  let pt = Dse.random_point rng s in
  let ns = Dse.neighbors s pt in
  Alcotest.(check bool) "has neighbors" true (ns <> []);
  (* each neighbor differs from pt in a bounded way *)
  List.iter
    (fun n ->
      let diffs =
        (if n.Dse.lp <> pt.Dse.lp then 1 else 0)
        + (if n.Dse.rvb <> pt.Dse.rvb then 1 else 0)
        + (if n.Dse.perm <> pt.Dse.perm then 1 else 0)
        + (if n.Dse.target_ii <> pt.Dse.target_ii then 1 else 0)
        + List.fold_left2 (fun acc a b -> if a <> b then acc + 1 else acc) 0 n.Dse.tiles pt.Dse.tiles
      in
      Alcotest.(check int) "one dimension moved" 1 diffs)
    ns

(* ---- Engine ----------------------------------------------------------------------------- *)

let test_dse_improves_baseline () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let r = Dse.run ~samples:12 ~iterations:20 ~seed:1 ctx m ~top:"gemm" ~platform:P.xc7z020 in
  match r.Dse.best with
  | Some best ->
      let base = Estimator.estimate m ~top:"gemm" in
      Alcotest.(check bool) "at least 5x better" true
        (base.Estimator.latency > 5 * best.Dse.estimate.Estimator.latency);
      Alcotest.(check bool) "feasible" true best.Dse.feasible
  | None -> Alcotest.fail "no feasible point"

let test_dse_deterministic () =
  let run () =
    let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
    let r = Dse.run ~samples:10 ~iterations:10 ~seed:5 ctx m ~top:"gemm" ~platform:P.xc7z020 in
    Option.map (fun b -> (b.Dse.point, b.Dse.estimate.Estimator.latency)) r.Dse.best
  in
  Alcotest.(check bool) "same seed, same result" true (run () = run ())

let test_dse_result_is_valid_ir () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Syrk in
  let r = Dse.run ~samples:10 ~iterations:15 ~seed:2 ctx m ~top:"syrk" ~platform:P.xc7z020 in
  check_verifies ~msg:"dse module" r.Dse.module_;
  check_semantics ~msg:"dse module semantics" Models.Polybench.Syrk ~n:8 m r.Dse.module_

let test_dse_respects_resources () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let r = Dse.run ~samples:16 ~iterations:24 ~seed:3 ctx m ~top:"gemm" ~platform:P.xc7z020 in
  List.iter
    (fun p ->
      Alcotest.(check bool) "pareto point fits the platform" true
        (P.fits P.xc7z020 p.Dse.estimate.Estimator.usage))
    r.Dse.pareto

(* Out-of-range search knobs are rejected up front, naming the field: a
   window below 1 could never admit (the reorder buffer underflows) and a
   negative sample count never finishes drawing. *)
let test_dse_rejects_bad_config () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let rejects what field run =
    match run () with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Fmt.str "%s: %S names %s" what msg field)
          true
          (contains ~needle:field msg)
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let run ?window ?samples () =
    Dse.run ?window ?samples ~iterations:4 ~seed:1 ctx m ~top:"gemm" ~platform:P.xc7z020
  in
  rejects "window 0" "window" (run ~window:0);
  rejects "window -1" "window" (run ~window:(-1));
  rejects "samples -1" "samples" (run ~samples:(-1))

(* ---- Parallel engine -------------------------------------------------------------------- *)

(* The engine's headline guarantee: the worker count is invisible in the
   result. Same seed => same explored count, same Pareto frontier, same best
   point, whether evaluation is sequential or runs on a domain pool. *)
let frontier_sig (r : Dse.result) =
  ( r.Dse.explored,
    Option.map (fun b -> b.Dse.point) r.Dse.best,
    List.map
      (fun p ->
        (p.Dse.point, p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
      r.Dse.pareto )

let check_jobs_invariant kernel ~n ~top =
  let run jobs =
    let ctx, m = compile_kernel ~n kernel in
    Dse.run ~samples:10 ~iterations:16 ~seed:11 ~jobs ctx m ~top ~platform:P.xc7z020
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool)
    (top ^ ": -j 1 and -j 4 agree")
    true
    (frontier_sig r1 = frontier_sig r4)

let test_parallel_deterministic_gemm () =
  check_jobs_invariant Models.Polybench.Gemm ~n:16 ~top:"gemm"

let test_parallel_deterministic_syrk () =
  check_jobs_invariant Models.Polybench.Syrk ~n:8 ~top:"syrk"

(* The -j invariant is a property of the engine, not of one strategy: a
   learning strategy observes every exact result in merge order, so its
   model state — and therefore its proposals — must not depend on the
   worker count either. *)
let test_surrogate_parallel_deterministic () =
  let run jobs =
    let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
    Dse.run ~samples:10 ~iterations:16 ~seed:11 ~jobs
      ~strategy:(Qor_ml.surrogate ()) ctx m ~top:"gemm" ~platform:P.xc7z020
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "surrogate: -j 1 and -j 4 agree" true
    (frontier_sig r1 = frontier_sig r4);
  Alcotest.(check string) "strategy recorded in stats" "surrogate"
    r1.Dse.stats.Dse.strategy

(* The acceptance-criterion test for the async executor: under adversarial
   per-point latency (randomized worker-side sleeps injected via
   [?batch_wrap], scrambling completion order), the -j 4 run's frontier,
   eval-cache contents, and strategy counters must be bit-identical to the
   -j 1 run — for both strategies and across window sizes. The pools are
   built explicitly so the engine's cores clamp can't silently turn the
   parallel arm into a sequential one on small CI machines. *)
let check_adversarial_latency ~name strategy_of =
  let run ~jobs ~window =
    let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
    let cache = Eval_cache.create () in
    let ctr = Atomic.make 0 in
    let jitter f =
      (* Thread-safe, result-independent jitter: 0-10.5 ms per point,
         pseudo-randomized by arrival order so neighboring points finish
         wildly out of submission order. *)
      let n = Atomic.fetch_and_add ctr 1 in
      Unix.sleepf (float_of_int (n * 2654435761 land 7) *. 0.0015);
      f ()
    in
    Parpool.with_pool ~jobs (fun pool ->
        let r =
          Dse.run ~samples:10 ~iterations:16 ~seed:11 ~window
            ~strategy:(strategy_of ()) ~cache ~pool ~batch_wrap:jitter ctx m
            ~top:"gemm" ~platform:P.xc7z020
        in
        ( frontier_sig r,
          List.sort compare (Eval_cache.bindings cache),
          r.Dse.stats.Dse.strategy_counters ))
  in
  List.iter
    (fun window ->
      let f1, b1, c1 = run ~jobs:1 ~window in
      let f4, b4, c4 = run ~jobs:4 ~window in
      let tag what = Printf.sprintf "%s (window %d): %s" name window what in
      Alcotest.(check bool) (tag "frontier bit-identical") true (f1 = f4);
      Alcotest.(check bool) (tag "eval-cache contents bit-identical") true (b1 = b4);
      Alcotest.(check (list (pair string int))) (tag "strategy counters") c1 c4)
    [ Dse.default_window; 6 ]

let test_adversarial_latency_exhaustive () =
  check_adversarial_latency ~name:"exhaustive" (fun () -> Dse.exhaustive)

let test_adversarial_latency_surrogate () =
  check_adversarial_latency ~name:"surrogate" (fun () -> Qor_ml.surrogate ())

let test_run_cache_stats () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let r = Dse.run ~samples:10 ~iterations:12 ~seed:4 ctx m ~top:"gemm" ~platform:P.xc7z020 in
  let s = r.Dse.stats in
  (* one preprocessing run per (lp, rvb) combo, everything else served from
     the cache *)
  Alcotest.(check bool) "pre cache: at most 4 misses" true (s.Dse.pre_misses <= 4);
  Alcotest.(check bool) "pre cache: hits dominate" true (s.Dse.pre_hits > s.Dse.pre_misses);
  (* every explored point is exactly one evaluation-cache miss *)
  Alcotest.(check int) "eval cache: misses = explored" r.Dse.explored s.Dse.cache_misses;
  Alcotest.(check bool) "wall time measured" true (s.Dse.wall_seconds > 0.)

(* ---- Eval_cache ------------------------------------------------------------------------- *)

let test_eval_cache_basics () =
  let c : (int, string) Eval_cache.t = Eval_cache.create () in
  let calls = ref 0 in
  let produce k () =
    incr calls;
    string_of_int (k * 10)
  in
  Alcotest.(check string) "computes on miss" "10" (Eval_cache.find_or_add c 1 (produce 1));
  Alcotest.(check string) "serves from cache" "10" (Eval_cache.find_or_add c 1 (produce 1));
  Alcotest.(check int) "producer ran once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Eval_cache.hits c);
  Alcotest.(check int) "one miss" 1 (Eval_cache.misses c);
  Alcotest.(check bool) "mem does not count" true
    (Eval_cache.mem c 1 && Eval_cache.hits c = 1);
  Eval_cache.add c 2 "twenty";
  Eval_cache.add c 2 "ignored (first writer wins)";
  Alcotest.(check (option string)) "add is insert-if-absent" (Some "twenty")
    (Eval_cache.find_opt c 2);
  Alcotest.(check int) "two entries" 2 (Eval_cache.length c);
  Eval_cache.clear c;
  Alcotest.(check int) "clear resets entries" 0 (Eval_cache.length c);
  Alcotest.(check int) "clear resets stats" 0 (Eval_cache.hits c + Eval_cache.misses c)

let test_eval_cache_concurrent () =
  (* hammer one cache from several domains: every key must memoize to the
     same value, and lookups after the storm must all hit *)
  let c : (int, int) Eval_cache.t = Eval_cache.create () in
  let pool = Parpool.create ~jobs:3 () in
  let keys = List.init 60 (fun i -> i mod 10) in
  let vals = pool_map pool (fun k -> Eval_cache.find_or_add c k (fun () -> k * k)) keys in
  Parpool.shutdown pool;
  Alcotest.(check bool) "all values correct" true
    (List.for_all2 (fun k v -> v = k * k) keys vals);
  Alcotest.(check int) "ten distinct entries" 10 (Eval_cache.length c)

(* ---- Parpool ---------------------------------------------------------------------------- *)

exception Boom of int

(* The streaming API under out-of-order completion: earlier submissions
   sleep longer, so workers finish them last — awaiting by id must still
   pair every result with its own task, and error results must carry the
   failing task's exception without poisoning later tasks or the pool. *)
let test_parpool_stream_out_of_order () =
  Parpool.with_pool ~jobs:3 (fun pool ->
      let st = Parpool.stream pool in
      let ids =
        List.init 6 (fun i ->
            ( i,
              Parpool.submit st (fun () ->
                  Unix.sleepf (float_of_int (5 - i) *. 0.01);
                  i * i) ))
      in
      List.iter
        (fun (i, id) ->
          Alcotest.(check int) (Printf.sprintf "task %d result" i) (i * i)
            (Parpool.await st id))
        ids;
      Alcotest.(check int) "results consumed" 0 (Parpool.completed st);
      Alcotest.(check int) "nothing in flight" 0 (Parpool.in_flight st);
      (* Exception propagation: the failing task's error is delivered for
         its id only; unrelated tasks and the pool survive. *)
      let bad = Parpool.submit st (fun () -> raise (Boom 42)) in
      let good = Parpool.submit st (fun () -> 5) in
      (match Parpool.await_result st bad with
      | Error (Boom 42, _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Error (Boom 42)");
      Alcotest.(check int) "later task unaffected" 5 (Parpool.await st good);
      (* [await] re-raises the original exception. *)
      let bad2 = Parpool.submit st (fun () -> raise (Boom 1)) in
      (match Parpool.await st bad2 with
      | exception Boom 1 -> ()
      | _ -> Alcotest.fail "await must re-raise");
      (* [take] consumes exactly once. *)
      let id = Parpool.submit st (fun () -> 9) in
      (match Parpool.await_result st id with
      | Ok 9 -> ()
      | _ -> Alcotest.fail "expected Ok 9");
      Alcotest.(check bool) "take after consume is None" true
        (Parpool.take st id = None);
      (* The pool is reusable after stream errors, from a fresh stream too. *)
      Alcotest.(check (list int)) "fresh stream still works" [ 0; 2; 4 ]
        (pool_map pool (fun x -> 2 * x) [ 0; 1; 2 ]))

(* jobs=1 streams run inline at submit time; a raising task must capture
   its exception into the result (never raise at [submit]). *)
let test_parpool_stream_inline () =
  let pool = Parpool.create ~jobs:1 () in
  let st = Parpool.stream pool in
  let id = Parpool.submit st (fun () -> 3) in
  Alcotest.(check int) "inline result ready" 1 (Parpool.completed st);
  Alcotest.(check int) "inline result" 3 (Parpool.await st id);
  let bad = Parpool.submit st (fun () -> raise (Boom 9)) in
  (match Parpool.await st bad with
  | exception Boom 9 -> ()
  | _ -> Alcotest.fail "inline submit must capture, await must re-raise");
  Parpool.shutdown pool

(* ---- Fingerprinting --------------------------------------------------------------------- *)

let fp = Mir.Fingerprint.op
let fp_eq a b = Int64.equal (fp a) (fp b)

let test_fingerprint_deterministic () =
  (* fresh Ir.Ctx each time: value ids differ, structure does not *)
  let _, m1 = compile_kernel ~n:8 Models.Polybench.Gemm in
  let _, m2 = compile_kernel ~n:8 Models.Polybench.Gemm in
  Alcotest.(check bool) "same module across fresh contexts" true (fp_eq m1 m2);
  let _, m3 = compile_kernel ~n:16 Models.Polybench.Gemm in
  Alcotest.(check bool) "different problem size differs" false (fp_eq m1 m3)

let test_fingerprint_sensitivity () =
  let _, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let mutate_one name f =
    let done_ = ref false in
    Mir.Walk.map_op
      (fun (o : Mir.Ir.op) ->
        if (not !done_) && o.Mir.Ir.name = name then begin
          done_ := true;
          f o
        end
        else o)
      m
  in
  Alcotest.(check bool) "op rename changes hash" false
    (fp_eq m (mutate_one "arith.mulf" (fun o -> { o with Mir.Ir.name = "arith.addf" })));
  Alcotest.(check bool) "attr change changes hash" false
    (fp_eq m
       (mutate_one "affine.for" (fun o -> Mir.Ir.set_attr o "fp_test" (Mir.Attr.Int 1))));
  (* attrs hash their constructor: Int 4 and Float 4. must not collide *)
  let mk a = Mir.Ir.mk "test.attr" ~attrs:[ ("v", a) ] ~operands:[] ~results:[] in
  Alcotest.(check bool) "Int 4 <> Float 4." false
    (fp_eq (mk (Mir.Attr.Int 4)) (mk (Mir.Attr.Float 4.)));
  Alcotest.(check bool) "Int 4 <> Int 5" false
    (fp_eq (mk (Mir.Attr.Int 4)) (mk (Mir.Attr.Int 5)));
  (* result types are part of the structure *)
  let ctx = Mir.Ir.Ctx.create () in
  let mk_typed ty =
    Mir.Ir.mk "test.typed" ~operands:[] ~results:[ Mir.Ir.Ctx.fresh ctx ty ]
  in
  Alcotest.(check bool) "f32 result <> f64 result" false
    (fp_eq (mk_typed Mir.Ty.F32) (mk_typed Mir.Ty.F64))

(* ---- Per-band fingerprints --------------------------------------------------------------- *)

(* The cross-point estimator memo keys each pipelined band by
   [Fingerprint.subtree] with the target II normalized out of the loop
   directive and free-value ranges folded in. These tests pin the key's
   contract: position-independent within a function, insensitive to the
   target II (the ladder-sharing invariant), sensitive to everything else a
   design point can change, and collision-free across structurally
   different bands. *)

let band_keys f =
  Estimator.build_func_info ~with_keys:true f
  |> fun fi ->
  List.map
    (fun br ->
      match br.Estimator.br_key with
      | Some k -> k
      | None -> Alcotest.fail "band unexpectedly not memoizable")
    fi.Estimator.fi_bands

let gemm_band_keys ?(n = 8) pt =
  let ctx = Mir.Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Gemm ~n) in
  match Dse.apply_point ctx m ~top:"gemm" pt with
  | exception Dse.Inapplicable -> Alcotest.fail "point inapplicable on gemm"
  | m' -> band_keys (Mir.Ir.find_func_exn m' "gemm")

let gemm_pt = { Dse.lp = true; rvb = false; perm = [ 0; 1; 2 ]; tiles = [ 2; 2; 2 ]; target_ii = 1 }

let test_band_fp_reorder_stable () =
  (* Two independent sibling bands over distinct memrefs: each band's key
     must depend only on its own subtree + range environment, so swapping
     the bands swaps the key list without changing either key. *)
  let open Dialects in
  let ctx = Mir.Ir.Ctx.create () in
  let mk_band mem ~ub =
    let loop =
      Affine_d.for_const ctx ~lb:0 ~ub (fun i ->
          let ol, vl = Affine_d.load_id ctx mem [ i ] in
          let oa, va = Arith.addf ctx vl vl in
          let os = Affine_d.store_id ctx va mem [ i ] in
          [ ol; oa; os ])
    in
    Hlscpp.set_loop_directive loop
      { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true }
  in
  let mk swapped =
    Func.func ctx ~name:"f"
      ~inputs:[ Mir.Ty.memref [ 8 ] Mir.Ty.F32; Mir.Ty.memref [ 16 ] Mir.Ty.F32 ]
      ~outputs:[]
      (fun args ->
        let a = List.nth args 0 and b = List.nth args 1 in
        let ba = mk_band a ~ub:8 and bb = mk_band b ~ub:16 in
        (if swapped then [ bb; ba ] else [ ba; bb ]) @ [ Func.return_ [] ])
  in
  match (band_keys (mk false), band_keys (mk true)) with
  | [ ka; kb ], [ kb'; ka' ] ->
      Alcotest.(check bool) "band A key position-independent" true (Int64.equal ka ka');
      Alcotest.(check bool) "band B key position-independent" true (Int64.equal kb kb');
      Alcotest.(check bool) "distinct bands get distinct keys" false (Int64.equal ka kb)
  | ks, ks' ->
      Alcotest.failf "expected 2 bands each, got %d and %d" (List.length ks) (List.length ks')

let test_band_fp_tuple_sensitivity () =
  let base = gemm_band_keys gemm_pt in
  Alcotest.(check bool) "gemm has several bands" true (List.length base > 1);
  (* target II is read back at estimation time, never baked into the
     summary: ladder siblings must share every band key *)
  Alcotest.(check bool) "target-II change preserves all keys" true
    (base = gemm_band_keys { gemm_pt with Dse.target_ii = 3 });
  (* any other tuple dimension restructures the nest: no key may survive *)
  let disjoint a b = not (List.exists (fun k -> List.mem k b) a) in
  Alcotest.(check bool) "tile change invalidates every key" true
    (disjoint base (gemm_band_keys { gemm_pt with Dse.tiles = [ 4; 4; 4 ] }));
  Alcotest.(check bool) "perm change invalidates every key" true
    (disjoint base (gemm_band_keys { gemm_pt with Dse.perm = [ 1; 0; 2 ] }))

let test_band_fp_cross_function () =
  (* Fresh contexts, same source, same point: the keys must agree exactly
     (this is what lets one DSE worker reuse another's summaries). A
     different problem size must collide with none of them. *)
  Alcotest.(check bool) "identical bands across fresh contexts" true
    (gemm_band_keys gemm_pt = gemm_band_keys gemm_pt);
  let k8 = gemm_band_keys ~n:8 gemm_pt and k16 = gemm_band_keys ~n:16 gemm_pt in
  Alcotest.(check bool) "different trip counts never collide" false
    (List.exists (fun k -> List.mem k k16) k8)

(* ---- Point canonicalization ------------------------------------------------------------- *)

let test_canonical_points_share_key () =
  let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
  let pre = Dse.preprocess ctx m ~lp:true ~rvb:false in
  (* tile size 3 does not divide the trip count 8: Loop_tile clamps it to 1,
     so these two proposals produce the same transformed module *)
  let raw = { Dse.lp = true; rvb = false; perm = [ 0; 1; 2 ]; tiles = [ 3; 4; 4 ]; target_ii = 1 } in
  let clamped = { raw with Dse.tiles = [ 1; 4; 4 ] } in
  let k1, c1 = Dse.cache_key pre ~top:"gemm" raw in
  let k2, _ = Dse.cache_key pre ~top:"gemm" clamped in
  Alcotest.(check bool) "clamped-equal points share the cache key" true (k1 = k2);
  Alcotest.(check (list int)) "canonical tiles" [ 1; 4; 4 ] c1.Dse.tiles;
  (* and the engine really schedules them once: the band-granular estimator
     memo re-schedules no band for the second, fingerprint-identical point *)
  let memos = Estimator.create_memos () in
  let ev pt = Dse.evaluate ~memos ~pre ctx m ~top:"gemm" ~platform:P.xc7z020 pt in
  (match ev raw with
  | Some _ -> ()
  | None -> Alcotest.fail "raw point did not evaluate");
  let misses_after_first = Estimator.memo_misses memos in
  Alcotest.(check bool) "bands scheduled on first eval" true (misses_after_first > 0);
  (match ev clamped with
  | Some _ -> ()
  | None -> Alcotest.fail "clamped point did not evaluate");
  Alcotest.(check int) "no band re-scheduled for the clamped twin"
    misses_after_first (Estimator.memo_misses memos);
  Alcotest.(check bool) "band memo hit for the clamped twin" true
    (Estimator.memo_hits memos > 0)

(* ---- Symbolic vs materialized evaluation ------------------------------------------------- *)

(* The tentpole invariant: the symbolic unroll path is observationally
   identical to materializing the unrolled body — same transformed modules
   (structural fingerprint), same estimates, same frontier. *)
let check_symbolic_equiv kernel ~n ~top =
  let _, m = compile_kernel ~n kernel in
  let fails = Fuzz.Oracle.dse_symbolic_equiv ~points:8 ~seed:13 m ~top in
  Alcotest.(check (list string))
    (top ^ ": symbolic = materialized") []
    (List.map (Fmt.str "%a" Fuzz.Oracle.pp_failure) fails)

let test_symbolic_equiv_gemm () = check_symbolic_equiv Models.Polybench.Gemm ~n:16 ~top:"gemm"
let test_symbolic_equiv_syrk () = check_symbolic_equiv Models.Polybench.Syrk ~n:8 ~top:"syrk"

let test_run_symbolic_matches_materialized () =
  let run symbolic =
    let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
    Dse.run ~symbolic ~samples:10 ~iterations:16 ~seed:11 ctx m ~top:"gemm"
      ~platform:P.xc7z020
  in
  let rs = run true and rm = run false in
  Alcotest.(check bool) "same frontier either path" true (frontier_sig rs = frontier_sig rm);
  (* gemm is fully within the supported shape: the symbolic path must never
     fall back (the CI bench gate relies on this) *)
  Alcotest.(check int) "no fallback on gemm" 0 rs.Dse.stats.Dse.fallback_points;
  Alcotest.(check bool) "symbolic path exercised" true (rs.Dse.stats.Dse.symbolic_points > 0);
  Alcotest.(check int) "materialized run reports no symbolic points" 0
    rm.Dse.stats.Dse.symbolic_points

let suite =
  ( "dse",
    [
      Alcotest.test_case "pareto: basics" `Quick test_pareto_basic;
      Alcotest.test_case "pareto: drops infeasible" `Quick test_pareto_drops_infeasible;
      prop_pareto_no_dominated;
      prop_pareto_covers;
      prop_pareto_matches_naive;
      Alcotest.test_case "eval cache: basics" `Quick test_eval_cache_basics;
      Alcotest.test_case "eval cache: concurrent" `Quick test_eval_cache_concurrent;
      Alcotest.test_case "parpool: stream out-of-order" `Quick
        test_parpool_stream_out_of_order;
      Alcotest.test_case "parpool: stream inline" `Quick test_parpool_stream_inline;
      Alcotest.test_case "space: gemm dimensions" `Quick test_space_gemm;
      Alcotest.test_case "space: rvb only when variable bounds" `Quick test_space_rvb_only_for_triangular;
      Alcotest.test_case "neighbors move one dimension" `Quick test_neighbors_are_close;
      Alcotest.test_case "dse improves baseline" `Slow test_dse_improves_baseline;
      Alcotest.test_case "dse is deterministic" `Slow test_dse_deterministic;
      Alcotest.test_case "dse output is valid + equivalent" `Slow test_dse_result_is_valid_ir;
      Alcotest.test_case "pareto points fit platform" `Slow test_dse_respects_resources;
      Alcotest.test_case "out-of-range config rejected" `Quick test_dse_rejects_bad_config;
      Alcotest.test_case "dse caches: stats" `Slow test_run_cache_stats;
      Alcotest.test_case "parallel dse: -j invariant (gemm)" `Slow test_parallel_deterministic_gemm;
      Alcotest.test_case "parallel dse: -j invariant (syrk)" `Slow test_parallel_deterministic_syrk;
      Alcotest.test_case "parallel dse: -j invariant (surrogate)" `Slow
        test_surrogate_parallel_deterministic;
      Alcotest.test_case "parallel dse: adversarial latency (exhaustive)" `Slow
        test_adversarial_latency_exhaustive;
      Alcotest.test_case "parallel dse: adversarial latency (surrogate)" `Slow
        test_adversarial_latency_surrogate;
      Alcotest.test_case "fingerprint: deterministic across contexts" `Quick
        test_fingerprint_deterministic;
      Alcotest.test_case "fingerprint: structural sensitivity" `Quick
        test_fingerprint_sensitivity;
      Alcotest.test_case "band fingerprint: reorder-stable" `Quick
        test_band_fp_reorder_stable;
      Alcotest.test_case "band fingerprint: tuple sensitivity" `Quick
        test_band_fp_tuple_sensitivity;
      Alcotest.test_case "band fingerprint: cross-function sanity" `Quick
        test_band_fp_cross_function;
      Alcotest.test_case "canonical points share cache key" `Quick
        test_canonical_points_share_key;
      Alcotest.test_case "symbolic = materialized (gemm)" `Slow test_symbolic_equiv_gemm;
      Alcotest.test_case "symbolic = materialized (syrk)" `Slow test_symbolic_equiv_syrk;
      Alcotest.test_case "symbolic run matches materialized run" `Slow
        test_run_symbolic_matches_materialized;
    ] )
