(* DSE engine tests: space construction, Pareto-frontier properties,
   determinism, and actual quality improvement. *)

open Scalehls
open Helpers

module P = Vhls.Platform

exception Boom of int

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
   eval-cache contents, strategy counters and transform-/band-memo hit and
   miss counts (no duplicated work) must be bit-identical to the -j 1 run —
   for both strategies and across window sizes. The pools are built
   explicitly so the engine's cores clamp can't silently turn the parallel
   arm into a sequential one on small CI machines. *)
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
        let s = r.Dse.stats in
        ( frontier_sig r,
          List.sort compare (Eval_cache.bindings cache),
          s.Dse.strategy_counters,
          [
            ("tf_hits", s.Dse.tf_hits);
            ("tf_misses", s.Dse.tf_misses);
            ("est_memo_hits", s.Dse.est_memo_hits);
            ("est_memo_misses", s.Dse.est_memo_misses);
          ] ))
  in
  List.iter
    (fun window ->
      let f1, b1, c1, w1 = run ~jobs:1 ~window in
      let f4, b4, c4, w4 = run ~jobs:4 ~window in
      let tag what = Printf.sprintf "%s (window %d): %s" name window what in
      Alcotest.(check bool) (tag "frontier bit-identical") true (f1 = f4);
      Alcotest.(check bool) (tag "eval-cache contents bit-identical") true (b1 = b4);
      Alcotest.(check (list (pair string int))) (tag "strategy counters") c1 c4;
      (* Single-flight memos: the pool does exactly the -j 1 work. *)
      Alcotest.(check (list (pair string int))) (tag "memo work counters") w1 w4)
    [ Dse.default_window; 6 ]

(* II-ladder siblings share one transformed module, its func-info and its
   bands; chained onto one domain, they never block on each other's fills.
   Only siblings share transform-memo entries, so a 2-job search waits on
   none; band waits between different transforms stay possible and are not
   pinned. *)
let test_siblings_never_wait () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let r =
    Parpool.with_pool ~jobs:2 (fun pool ->
        Dse.run ~samples:10 ~iterations:16 ~seed:11 ~pool ctx m ~top:"gemm"
          ~platform:P.xc7z020)
  in
  let s = r.Dse.stats in
  Alcotest.(check bool) "siblings shared transforms" true (s.Dse.tf_hits > 0);
  Alcotest.(check (list string)) "one entry per memo" [ "transform"; "band" ]
    (List.map (fun (memo, _, _) -> memo) s.Dse.waits);
  List.iter
    (fun (memo, n, _) ->
      if memo <> "band" then Alcotest.(check int) (memo ^ " waits") 0 n)
    s.Dse.waits

(* The executor's failure path. A [?batch_wrap] that raises on the third
   evaluation makes [Dse.run] re-raise it once every in-flight point has
   finished, and leaves the pool usable: a second search on the same pool
   ends with the frontier of a fresh -j 1 run. With this seed the third
   point evaluated at -j 1 is an II sibling of the second (same transform,
   another target II), so on the 2-job pool it joins the second's chain,
   and the third evaluation to start there is usually one of the two. *)
let test_failure_path () =
  let search ?pool ?batch_wrap () =
    let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
    Dse.run ~samples:10 ~iterations:16 ~seed:11 ?pool ?batch_wrap ctx m ~top:"gemm"
      ~platform:P.xc7z020
  in
  let outcomes = ref [] in
  let fresh =
    search
      ~batch_wrap:(fun f ->
        let ((r, _) as res) = f () in
        outcomes := r :: !outcomes;
        res)
      ()
  in
  (match List.rev !outcomes with
  | _ :: Some b :: Some c :: _ ->
      Alcotest.(check bool) "the third point has its II sibling just before it" true
        (b.Dse.point.target_ii <> c.Dse.point.target_ii
        && { b.Dse.point with target_ii = c.Dse.point.target_ii } = c.Dse.point)
  | _ -> Alcotest.fail "the second and third points must be applicable");
  let boom_on_third () =
    let calls = Atomic.make 0 in
    fun f -> if Atomic.fetch_and_add calls 1 = 2 then raise (Boom 3) else f ()
  in
  List.iter
    (fun jobs ->
      let pool = Parpool.create ~jobs () in
      Fun.protect ~finally:(fun () -> Parpool.shutdown pool) (fun () ->
          (match search ~pool ~batch_wrap:(boom_on_third ()) () with
          | _ -> Alcotest.failf "-j %d: Dse.run returned" jobs
          | exception Boom 3 -> ());
          Alcotest.(check bool)
            (Printf.sprintf "-j %d: the pool still searches, as a fresh -j 1 run" jobs)
            true
            (frontier_sig (search ~pool ()) = frontier_sig fresh)))
    [ 1; 2 ]

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

(* Per-job counts are the run's own work even when another search uses the
   same caches mid-run: a warm gemm search whose first frontier callback
   runs a whole cold syrk search on its eval cache and band memo must
   report exactly the counters of the same warm search run alone. *)
let test_run_counts_are_per_job () =
  let cache = Eval_cache.create () and memos = Estimator.create_memos () in
  let search ?on_frontier kernel ~top =
    let ctx, m = compile_kernel ~n:8 kernel in
    Dse.run ~samples:10 ~iterations:12 ~seed:4 ~cache ~memos ?on_frontier ctx m
      ~top ~platform:P.xc7z020
  in
  let gemm ?on_frontier () = search ?on_frontier Models.Polybench.Gemm ~top:"gemm" in
  ignore (gemm ());
  let solo = gemm () in
  let inner = ref None in
  let nested =
    gemm
      ~on_frontier:(fun _ _ ->
        if Option.is_none !inner then
          inner := Some (search Models.Polybench.Syrk ~top:"syrk"))
      ()
  in
  let counters (r : Dse.result) =
    let s = r.Dse.stats in
    [
      ("explored", r.Dse.explored);
      ("cache_hits", s.Dse.cache_hits);
      ("cache_misses", s.Dse.cache_misses);
      ("est_memo_hits", s.Dse.est_memo_hits);
      ("est_memo_misses", s.Dse.est_memo_misses);
      ("tf_hits", s.Dse.tf_hits);
      ("tf_misses", s.Dse.tf_misses);
      ("symbolic_points", s.Dse.symbolic_points);
      ("fallback_points", s.Dse.fallback_points);
    ]
  in
  Alcotest.(check (list (pair string int))) "nested warm run counts its own work"
    (counters solo) (counters nested);
  Alcotest.(check (pair int int)) "warm run: every point a hit"
    (nested.Dse.explored, 0)
    (nested.Dse.stats.Dse.cache_hits, nested.Dse.stats.Dse.cache_misses);
  match !inner with
  | None -> Alcotest.fail "the inner search never ran"
  | Some r ->
      Alcotest.(check (pair int int)) "inner cold run: every point a miss"
        (0, r.Dse.explored)
        (r.Dse.stats.Dse.cache_hits, r.Dse.stats.Dse.cache_misses)

(* ---- Eval_cache ------------------------------------------------------------------------- *)

(* A memo shared across searches (a daemon's store) keeps their band
   summaries and none of their func-info: that cache keys on one run's
   transformed modules, which no later run can look up, so keeping it would
   only keep those modules alive. *)
let test_shared_memo_keeps_no_func_info () =
  let memos = Estimator.create_memos () in
  let gemm () =
    let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
    Dse.run ~samples:10 ~iterations:12 ~seed:4 ~memos ctx m ~top:"gemm"
      ~platform:P.xc7z020
  in
  let cold = gemm () in
  let warm = gemm () in
  Alcotest.(check bool) "first search schedules bands" true
    (cold.Dse.stats.Dse.est_memo_misses > 0);
  Alcotest.(check int) "second search reuses every band" 0
    warm.Dse.stats.Dse.est_memo_misses;
  Alcotest.(check int) "no func-info kept" 0 (List.length memos.Estimator.fis);
  Alcotest.(check bool) "band table kept" true (Estimator.memo_length memos > 0)

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
  Alcotest.(check (option string)) "peek does not count" (Some "10")
    (Eval_cache.peek c 1);
  Alcotest.(check int) "still one hit" 1 (Eval_cache.hits c);
  Alcotest.(check (option string)) "peek misses absent keys" None
    (Eval_cache.peek c 3);
  Alcotest.(check int) "still one miss" 1 (Eval_cache.misses c);
  Eval_cache.add c 2 "twenty";
  Eval_cache.add c 2 "ignored (first writer wins)";
  Alcotest.(check (option string)) "add is insert-if-absent" (Some "twenty")
    (Eval_cache.find_opt c 2);
  Alcotest.(check int) "two entries" 2 (Eval_cache.length c)

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

(* Run [f] on [n] fresh domains released together by a spin barrier, so
   every call lands while the others are still in flight. *)
let race n f =
  let arrived = Atomic.make 0 in
  let ds =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < n do
              Domain.cpu_relax ()
            done;
            f ()))
  in
  List.map Domain.join ds

(* Single-flight fills: callers racing on one absent key run the producer
   once; the others wait for its value and count as hits, as they would
   sequentially. *)
let test_eval_cache_single_flight () =
  let c : (int, int) Eval_cache.t = Eval_cache.create () in
  let calls = Atomic.make 0 in
  let vals =
    race 4 (fun () ->
        Eval_cache.find_or_add c 7 (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.02;
            49))
  in
  Alcotest.(check int) "producer ran once" 1 (Atomic.get calls);
  Alcotest.(check int) "one miss" 1 (Eval_cache.misses c);
  Alcotest.(check int) "three hits" 3 (Eval_cache.hits c);
  Alcotest.(check (list int)) "every caller gets the value" [ 49; 49; 49; 49 ] vals

(* A raising producer must not strand its waiters or cache the failure:
   each waiter wakes and retries (a miss, as a sequential retry would be),
   so with an always-raising producer every caller produces once. *)
let test_eval_cache_single_flight_failure () =
  let c : (int, int) Eval_cache.t = Eval_cache.create () in
  let calls = Atomic.make 0 in
  let outcomes =
    race 4 (fun () ->
        match
          Eval_cache.find_or_add c 7 (fun () ->
              Atomic.incr calls;
              Unix.sleepf 0.02;
              failwith "producer failed")
        with
        | v -> Ok v
        | exception Failure msg -> Error msg)
  in
  Alcotest.(check (list (result int string))) "every caller gets the exception"
    (List.init 4 (fun _ -> Error "producer failed"))
    outcomes;
  Alcotest.(check int) "every caller produced in turn" 4 (Atomic.get calls);
  Alcotest.(check int) "every call a miss" 4 (Eval_cache.misses c);
  Alcotest.(check (option int)) "failed key not cached" None (Eval_cache.peek c 7);
  Alcotest.(check int) "key fills after the storm" 49
    (Eval_cache.find_or_add c 7 (fun () -> 49))

(* Two domains that miss one function's func-info both build it, and the
   first insert wins: both estimates equal the memo-less one, and the
   cache keeps one entry per function. Fresh memos each round, so every
   round starts with both domains missing. *)
let test_func_info_concurrent_misses () =
  let ctx, m = compile_kernel ~n:16 Models.Polybench.Gemm in
  let tm =
    Dse.apply_point ctx m ~top:"gemm"
      { Dse.lp = true; rvb = false; perm = [ 0; 1; 2 ]; tiles = [ 2; 2; 2 ]; target_ii = 1 }
  in
  let want = Estimator.estimate tm ~top:"gemm" in
  for round = 1 to 4 do
    let memos = Estimator.create_memos () in
    let tag what = Printf.sprintf "round %d: %s" round what in
    List.iter
      (fun e -> Alcotest.(check bool) (tag "estimate = memo-less") true (e = want))
      (race 2 (fun () -> Estimator.estimate ~memos tm ~top:"gemm"));
    Alcotest.(check int) (tag "one entry per function")
      (List.length (Mir.Ir.module_funcs tm))
      (List.length memos.Estimator.fis)
  done

(* ---- Parpool ---------------------------------------------------------------------------- *)

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
      Alcotest.(check bool) "results consumed" true
        (List.for_all (fun (_, id) -> Parpool.take st id = None) ids);
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

(* A one-domain pool queues its tasks like any other: nothing runs until
   the caller awaits, and then the caller runs them, capturing a task's
   exception into its result (never raising at [submit]) and timing the
   work into slot 0. *)
let test_parpool_one_domain () =
  let pool = Parpool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Parpool.shutdown pool) (fun () ->
      let st = Parpool.stream pool in
      let id =
        Parpool.submit st (fun () ->
            Unix.sleepf 0.002;
            3)
      in
      let bad = Parpool.submit st (fun () -> raise (Boom 9)) in
      Alcotest.(check bool) "nothing ran before an await" true
        (Parpool.take st id = None && Parpool.take st bad = None);
      Alcotest.(check int) "await runs the task" 3 (Parpool.await st id);
      (match Parpool.await st bad with
      | exception Boom 9 -> ()
      | _ -> Alcotest.fail "await must re-raise the task's exception");
      match Parpool.worker_stats pool with
      | [ (0, busy) ] ->
          Alcotest.(check bool) "slot 0 counts the caller's time" true (busy > 0.)
      | _ -> Alcotest.fail "a one-domain pool has one slot")

(* Spawned workers run with the enlarged minor heap; the caller keeps its
   own setting, also for the tasks it runs while it waits, and so does a
   one-domain pool's. Checked per domain, since the caller of a default
   pool is one of the domains that run tasks. *)
let test_parpool_worker_gc () =
  let minor () = (Gc.get ()).Gc.minor_heap_size in
  let caller = minor () and self = (Domain.self () :> int) in
  let check_domains pool =
    List.iter
      (fun (d, words) ->
        if d = self then Alcotest.(check int) "caller's minor heap" caller words
        else
          Alcotest.(check int) "worker minor heap" Parpool.worker_minor_heap_words words)
      (pool_map pool
         (fun _ ->
           Unix.sleepf 0.001;
           ((Domain.self () :> int), minor ()))
         [ 0; 1; 2; 3 ])
  in
  Parpool.with_pool ~jobs:2 check_domains;
  let dedicated = Parpool.create ~jobs:2 ~dedicated:true () in
  Fun.protect ~finally:(fun () -> Parpool.shutdown dedicated) (fun () ->
      check_domains dedicated);
  Alcotest.(check int) "caller untouched after shutdown" caller (minor ());
  Parpool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "one-domain pool changes nothing" [ caller ]
        (pool_map pool (fun _ -> minor ()) [ 0 ]));
  Alcotest.(check int) "caller untouched by a one-domain pool" caller (minor ())

(* A default [~jobs:2] pool is two domains of work: one spawned worker and
   the caller, which runs queued tasks while it waits for a result. Every
   task waits (up to 2 s) until some task has run on the caller, so a
   pool whose caller only blocks fails here instead of passing by luck. *)
let test_parpool_caller_is_a_worker () =
  let self = (Domain.self () :> int) in
  let on_caller = Atomic.make false in
  let task _ =
    let me = (Domain.self () :> int) in
    if me = self then Atomic.set on_caller true;
    let deadline = Unix.gettimeofday () +. 2. in
    while (not (Atomic.get on_caller)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    me
  in
  let domains, slots =
    Parpool.with_pool ~jobs:2 (fun pool ->
        let ds = pool_map pool task (List.init 8 Fun.id) in
        (List.sort_uniq compare ds, Parpool.worker_stats pool))
  in
  Alcotest.(check bool) "at most 2 domains ran tasks" true (List.length domains <= 2);
  Alcotest.(check bool) "the waiting caller ran tasks" true (List.mem self domains);
  Alcotest.(check int) "one busy slot per domain" 2 (List.length slots);
  Alcotest.(check bool) "the caller's time is in slot 0" true (List.assoc 0 slots > 0.)

(* A dedicated pool's caller only waits: its [jobs] spawned workers run
   every task. *)
let test_parpool_dedicated () =
  let self = (Domain.self () :> int) in
  let pool = Parpool.create ~jobs:2 ~dedicated:true () in
  let domains =
    Fun.protect ~finally:(fun () -> Parpool.shutdown pool) (fun () ->
        pool_map pool
          (fun _ ->
            Unix.sleepf 0.002;
            (Domain.self () :> int))
          (List.init 8 Fun.id))
  in
  let domains = List.sort_uniq compare domains in
  Alcotest.(check bool) "no task ran on the caller" false (List.mem self domains);
  Alcotest.(check bool) "at most 2 domains ran tasks" true (List.length domains <= 2)

(* A dedicated pool runs its tasks on its spawned workers, a one-worker
   pool's too, until shutdown; after that no worker is left, and its caller
   runs the tasks it awaits. *)
let test_parpool_dedicated_after_shutdown () =
  let self = (Domain.self () :> int) in
  let pool = Parpool.create ~jobs:1 ~dedicated:true () in
  let st = Parpool.stream pool in
  let on_domain () = (Domain.self () :> int) in
  let before = Parpool.submit st on_domain in
  Alcotest.(check bool) "a worker ran it" true (Parpool.await st before <> self);
  Parpool.shutdown pool;
  let after = Parpool.submit st on_domain in
  Alcotest.(check int) "the caller ran it after shutdown" self (Parpool.await st after)

(* Tasks submitted [~after] the newest task of a queued or running chain
   join it: they run in submission order on the domain that took the
   chain, and a task that raises stores its error without stopping the
   chain. The first task holds the chain open (up to 2 s) until all five
   are submitted. *)
let test_parpool_chain () =
  Parpool.with_pool ~jobs:2 (fun pool ->
      let st = Parpool.stream pool in
      let log = Atomic.make [] and submitted = Atomic.make false in
      let step i () =
        let deadline = Unix.gettimeofday () +. 2. in
        while i = 0 && (not (Atomic.get submitted)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        let rec push () =
          let l = Atomic.get log in
          if not (Atomic.compare_and_set log l (i :: l)) then push ()
        in
        push ();
        if i = 2 then raise (Boom i);
        (Domain.self () :> int)
      in
      let first = Parpool.submit st (step 0) in
      let ids =
        List.fold_left
          (fun acc i -> Parpool.submit ~after:(List.hd acc) st (step i) :: acc)
          [ first ] [ 1; 2; 3; 4 ]
        |> List.rev
      in
      Atomic.set submitted true;
      let results = List.map (Parpool.await_result st) ids in
      Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3; 4 ]
        (List.rev (Atomic.get log));
      let domains =
        List.sort_uniq compare
          (List.filter_map (function Ok d -> Some d | Error _ -> None) results)
      in
      Alcotest.(check int) "one domain ran the chain" 1 (List.length domains);
      match List.nth results 2 with
      | Error (Boom 2, _) -> ()
      | _ -> Alcotest.fail "the raising task keeps its own error")

(* ---- Fingerprinting --------------------------------------------------------------------- *)

let fp = Mir.Fingerprint.op
let fp_eq a b = Int64.equal (fp a) (fp b)

let test_fingerprint_deterministic () =
  (* fresh Ir.Ctx each time: value ids differ, structure does not *)
  let _, m1 = compile_kernel ~n:8 Models.Polybench.Gemm in
  let _, m2 = compile_kernel ~n:8 Models.Polybench.Gemm in
  Alcotest.(check bool) "same module across fresh contexts" true (fp_eq m1 m2);
  (* the serve store persists caches under these hashes: their values are
     part of its format *)
  Alcotest.(check string) "pinned value" "15a68fac6e5b8f8d" (Mir.Fingerprint.to_hex (fp m1));
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
   directive and free-value ranges folded in; the roots below a flatten
   chain's head take [Estimator.suffix_key] of the head's key. These tests
   pin the key's contract: position-independent within a function,
   insensitive to the target II (the ladder-sharing invariant), sensitive to
   everything else a design point can change, collision-free across
   structurally different bands, and one hash per chain. *)

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
          let ol, vl = load_id ctx mem [ i ] in
          let oa, va = Arith.addf ctx vl vl in
          let os = store_id ctx va mem [ i ] in
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
  Alcotest.(check (list string)) "pinned values"
    [ "6e569685f1e52e84"; "6228af6268cfa715"; "670656146194a846" ]
    (List.map Mir.Fingerprint.to_hex (gemm_band_keys gemm_pt));
  let k8 = gemm_band_keys ~n:8 gemm_pt and k16 = gemm_band_keys ~n:16 gemm_pt in
  Alcotest.(check bool) "different trip counts never collide" false
    (List.exists (fun k -> List.mem k k16) k8)

(* The band key rule on the pipelined bands of seeded DSE points of every
   PolyBench kernel: a head (a root below no other root's chain) keys by its
   contextual subtree fingerprint, the root at depth k of its chain by
   [suffix_key head k], and the keys agree across fresh contexts. Equal
   keys, here or across points, come with equal cold summaries. *)
let test_band_fp_suffix_keys () =
  let suffixes = ref 0 in
  let summaries = Hashtbl.create 64 in
  List.iter
    (fun k ->
      let top = Models.Polybench.name k in
      let point_funcs seed =
        let ctx, m = compile_kernel ~n:8 k in
        let space = Dse.build_space ~max_unroll:8 ~max_ii:4 ctx m ~top in
        let rng = Random.State.make [| seed |] in
        List.filter_map
          (fun _ ->
            match Dse.apply_point ctx m ~top (Dse.random_point rng space) with
            | m' -> Some (m', Mir.Ir.find_func_exn m' top)
            | exception Dse.Inapplicable -> None)
          (List.init 6 Fun.id)
      in
      let funcs = point_funcs 17 in
      List.iter2
        (fun (m, f) (_, f') ->
          let fi = Estimator.build_func_info ~with_keys:true f in
          let cold = Estimator.create ~band_waits:(Eval_cache.waits ()) m in
          List.iter
            (fun br ->
              let s =
                Estimator.band_summary_of cold ~scope:f br.Estimator.br_root br.Estimator.br_target
              in
              Option.iter
                (fun key ->
                  match Hashtbl.find_opt summaries key with
                  | Some s' ->
                      Alcotest.(check bool) (top ^ ": equal keys, equal summaries") true (s = s')
                  | None -> Hashtbl.replace summaries key s)
                br.Estimator.br_key)
            fi.Estimator.fi_bands;
          let keys fi = List.map (fun br -> br.Estimator.br_key) fi.Estimator.fi_bands in
          Alcotest.(check bool) (top ^ ": keys agree across fresh contexts") true
            (keys fi = keys (Estimator.build_func_info ~with_keys:true f'));
          let chain_of br = fst (Option.get (Vhls.Synth.pipelined_chain br.Estimator.br_root)) in
          let below = List.concat_map (fun br -> List.tl (chain_of br)) fi.Estimator.fi_bands in
          let key_at root =
            (List.find (fun br -> br.Estimator.br_root == root) fi.Estimator.fi_bands).Estimator.br_key
          in
          let free_hook = Estimator.env_free_hook (Analysis.Loop_utils.range_env f) in
          List.iter
            (fun br ->
              if not (List.memq br.Estimator.br_root below) then begin
                let head =
                  Mir.Fingerprint.subtree ~free_hook ~attr_hook:Estimator.normalize_target_ii
                    br.Estimator.br_root
                in
                Alcotest.(check bool) (top ^ ": a head keys by its subtree") true
                  (br.Estimator.br_key = Some head);
                List.iteri
                  (fun depth root ->
                    if depth > 0 then begin
                      incr suffixes;
                      Alcotest.(check bool) (top ^ ": a suffix keys by its head") true
                        (key_at root = Some (Estimator.suffix_key head depth))
                    end)
                  (chain_of br)
              end)
            fi.Estimator.fi_bands)
        funcs (point_funcs 17))
    Models.Polybench.all;
  Alcotest.(check bool) "suffix roots checked" true (!suffixes > 0)

(* A root below a chain head that is not memoizable (a call inside the
   head, outside the root) is a head itself: it keeps its own subtree key,
   and the root below it keys by it. *)
let test_band_fp_suffix_under_unmemoizable_head () =
  let open Dialects in
  let ctx = Mir.Ir.Ctx.create () in
  let loop_dir d l = Hlscpp.set_loop_directive l d in
  let flatten = { Hlscpp.default_loop_directive with Hlscpp.flatten = true } in
  let pipeline = { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true } in
  let f =
    Func.func ctx ~name:"f" ~inputs:[ Mir.Ty.memref [ 4; 4; 4 ] Mir.Ty.F32 ] ~outputs:[]
      (fun args ->
        let a = List.hd args in
        let l0 =
          Affine_d.for_const ctx ~lb:0 ~ub:4 (fun i ->
              let call, _ = Func.call ctx ~callee:"g" ~result_tys:[] [ a ] in
              let l1 =
                Affine_d.for_const ctx ~lb:0 ~ub:4 (fun j ->
                    let l2 =
                      Affine_d.for_const ctx ~lb:0 ~ub:4 (fun k ->
                          let ol, vl = load_id ctx a [ i; j; k ] in
                          let oa, va = Arith.addf ctx vl vl in
                          [ ol; oa; store_id ctx va a [ i; j; k ]; Affine_d.yield ])
                    in
                    [ loop_dir pipeline l2; Affine_d.yield ])
              in
              [ call; loop_dir flatten l1; Affine_d.yield ])
        in
        [ loop_dir flatten l0; Func.return_ [] ])
  in
  let fi = Estimator.build_func_info ~with_keys:true f in
  match fi.Estimator.fi_bands with
  | [ b0; b1; b2 ] ->
      let free_hook = Estimator.env_free_hook (Analysis.Loop_utils.range_env f) in
      let own br =
        Mir.Fingerprint.subtree ~free_hook ~attr_hook:Estimator.normalize_target_ii
          br.Estimator.br_root
      in
      Alcotest.(check bool) "the head with a call has no key" true (b0.Estimator.br_key = None);
      Alcotest.(check bool) "the root below it keeps its own subtree key" true
        (b1.Estimator.br_key = Some (own b1));
      Alcotest.(check bool) "the root below that keys by it" true
        (b2.Estimator.br_key = Some (Estimator.suffix_key (own b1) 1))
  | bands -> Alcotest.failf "expected a 3-deep chain, got %d bands" (List.length bands)

(* Estimating against a warm band memo equals the cold estimate, and an
   II-ladder sibling through the read-time override equals its re-applied
   module ([Fuzz.Oracle.dse_incremental]), on every PolyBench kernel at
   N=8 and several seeds: suffix summaries found under derived keys are the
   ones a cold estimate computes. *)
let test_band_memo_warm_equals_cold () =
  List.iter
    (fun k ->
      let top = Models.Polybench.name k in
      List.iter
        (fun seed ->
          let _, m = compile_kernel ~n:8 k in
          Alcotest.(check (list string))
            (Fmt.str "%s seed %d: warm = cold" top seed)
            []
            (List.map (Fmt.str "%a" Fuzz.Oracle.pp_failure)
               (Fuzz.Oracle.dse_incremental ~seed m ~top)))
        [ 3; 19; 42 ])
    Models.Polybench.all

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
  let memos = Estimator.create_memos () and tf_memo = Eval_cache.create () in
  let ev pt =
    Dse.evaluate ~symbolic:true ~tally:(Dse.tally_zero ()) ~memos ~tf_memo ~pre
      ~pre_fp:(fp pre) ctx ~top:"gemm" ~platform:P.xc7z020 pt
  in
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

(* The unroll model's replay certificate is sound: every expansion it
   certifies clean comes out of the post-expansion cleanup replay with the
   same fingerprint, on the six kernels at three sizes and on generator
   programs. It is also useful on the kernels: it certifies at least 90 %
   of the expansions whose replay changes nothing. *)
let test_certified_expansions_replay_unchanged () =
  let certified = ref 0 and idle = ref 0 in
  let check ~what ctx pre ~top pt =
    match Fuzz.Oracle.replay_certificate ctx pre ~top pt with
    | Some (cert, unchanged) ->
        if cert then begin
          incr certified;
          Alcotest.(check bool)
            (Fmt.str "%s %a: a certified expansion replays unchanged" what Dse.pp_point pt)
            true unchanged
        end;
        if unchanged then incr idle
    | None -> ()
  in
  List.iter
    (fun kernel ->
      List.iter
        (fun n ->
          let ctx, m = compile_kernel ~n kernel in
          let top = Models.Polybench.name kernel in
          let space = Dse.build_space ctx m ~top in
          let rng = Random.State.make [| n |] in
          let pres = Hashtbl.create 4 in
          for _ = 1 to 16 do
            let pt = Dse.random_point rng space in
            let flags = (pt.Dse.lp, pt.Dse.rvb) in
            let pre =
              match Hashtbl.find_opt pres flags with
              | Some pre -> pre
              | None ->
                  let pre = Dse.preprocess ctx m ~lp:pt.Dse.lp ~rvb:pt.Dse.rvb in
                  Hashtbl.replace pres flags pre;
                  pre
            in
            check ~what:(Printf.sprintf "%s-%d" top n) ctx pre ~top pt
          done)
        [ 8; 12; 16 ])
    Models.Polybench.all;
  Alcotest.(check bool)
    (Printf.sprintf "kernels: %d of %d idle replays certified" !certified !idle)
    true
    (!certified > 0 && 10 * !certified >= 9 * !idle);
  for seed = 1 to 200 do
    let p = Fuzz.Gen.program ~seed () in
    let m = p.Fuzz.Gen.module_ and top = p.Fuzz.Gen.top in
    let ctx = Mir.Ir.Ctx.of_op m in
    let space = Dse.build_space ctx m ~top in
    let rng = Random.State.make [| seed |] in
    for _ = 1 to 4 do
      let pt = Dse.random_point rng space in
      check ~what:(Printf.sprintf "program %d" seed) ctx
        (Dse.preprocess ctx m ~lp:pt.Dse.lp ~rvb:pt.Dse.rvb)
        ~top pt
    done
  done

(* [permute_tile] takes band dependences from a per-domain memo keyed by the
   physical preprocessed function, which a structurally equal copy misses:
   both give the same module, or both are inapplicable, on every point. The
   memo keeps -j 2 doing the -j 1 work, memo counters included. *)
let test_band_deps_memo () =
  let rec copy (o : Mir.Ir.op) =
    {
      o with
      Mir.Ir.regions =
        List.map
          (List.map (fun (b : Mir.Ir.block) -> { b with Mir.Ir.bops = List.map copy b.Mir.Ir.bops }))
          o.Mir.Ir.regions;
    }
  in
  (* The kernels' dependences forbid no permutation of their bands; in the
     sweep, the dependence of distance (1, -1) forbids the interchange. *)
  let sweep =
    compile_c_affine
      {|void sweep(float A[16][16]) {
  for (int i = 1; i < 16; i++)
    for (int j = 0; j < 15; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0f;
}|}
  in
  List.iter
    (fun (top, (ctx, m), n) ->
      let space = Dse.build_space ctx m ~top in
      let rng = Random.State.make [| n |] in
      let pres =
        List.map
          (fun (lp, rvb) -> ((lp, rvb), Dse.preprocess ctx m ~lp ~rvb))
          [ (false, false); (false, true); (true, false); (true, true) ]
      in
      (* every permutation, the illegal ones included, three times under
         each flag pair: repeats take the memo's entry *)
      let perms = Loop_order_opt.permutations (List.hd space.Dse.perms) in
      let points =
        List.concat_map
          (fun ((lp, rvb), _) ->
            List.concat_map
              (fun perm ->
                List.init 3 (fun _ -> { (Dse.random_point rng space) with Dse.lp; rvb; perm }))
              perms)
          pres
      in
      let fp pre (pt : Dse.point) =
        match Dse.permute_tile ctx pre ~top pt with
        | m' -> Some (Mir.Fingerprint.op m')
        | exception Dse.Inapplicable -> None
      in
      let pre_of (pt : Dse.point) = List.assoc (pt.Dse.lp, pt.Dse.rvb) pres in
      (* all memo lookups first, so that the copies cannot evict them *)
      let memo = List.map (fun pt -> fp (pre_of pt) pt) points in
      let fresh = List.map (fun pt -> fp (copy (pre_of pt)) pt) points in
      Alcotest.(check (list (option int64))) (top ^ ": memo = fresh dependences") fresh memo)
    (("sweep", sweep, 16)
    :: List.map
         (fun (kernel, n) -> (Models.Polybench.name kernel, compile_kernel ~n kernel, n))
         Models.Polybench.[ (Gemm, 12); (Syrk, 12); (Syr2k, 8); (Trmm, 12) ]);
  let run jobs =
    let ctx, m = compile_kernel ~n:10 Models.Polybench.Trmm in
    Parpool.with_pool ~jobs (fun pool ->
        let r =
          Dse.run ~samples:10 ~iterations:16 ~seed:11 ~pool ctx m ~top:"trmm"
            ~platform:P.xc7z020
        in
        let s = r.Dse.stats in
        ( frontier_sig r,
          [ s.Dse.tf_hits; s.Dse.tf_misses; s.Dse.est_memo_hits; s.Dse.est_memo_misses ] ))
  in
  let f1, c1 = run 1 and f2, c2 = run 2 in
  Alcotest.(check bool) "trmm: -j 2 frontier = -j 1" true (f1 = f2);
  Alcotest.(check (list int)) "trmm: -j 2 memo counters = -j 1" c1 c2

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
      Alcotest.test_case "eval cache: single-flight" `Quick test_eval_cache_single_flight;
      Alcotest.test_case "eval cache: single-flight failure" `Quick
        test_eval_cache_single_flight_failure;
      Alcotest.test_case "func-info: concurrent misses agree" `Quick
        test_func_info_concurrent_misses;
      Alcotest.test_case "parpool: stream out-of-order" `Quick
        test_parpool_stream_out_of_order;
      Alcotest.test_case "parpool: one domain runs on await" `Quick
        test_parpool_one_domain;
      Alcotest.test_case "parpool: worker gc settings" `Quick test_parpool_worker_gc;
      Alcotest.test_case "parpool: the caller is a worker" `Quick
        test_parpool_caller_is_a_worker;
      Alcotest.test_case "parpool: dedicated workers" `Quick test_parpool_dedicated;
      Alcotest.test_case "parpool: dedicated pool after shutdown" `Quick
        test_parpool_dedicated_after_shutdown;
      Alcotest.test_case "parpool: chains run on one domain" `Quick test_parpool_chain;
      Alcotest.test_case "space: gemm dimensions" `Quick test_space_gemm;
      Alcotest.test_case "space: rvb only when variable bounds" `Quick test_space_rvb_only_for_triangular;
      Alcotest.test_case "neighbors move one dimension" `Quick test_neighbors_are_close;
      Alcotest.test_case "dse improves baseline" `Slow test_dse_improves_baseline;
      Alcotest.test_case "dse is deterministic" `Slow test_dse_deterministic;
      Alcotest.test_case "dse output is valid + equivalent" `Slow test_dse_result_is_valid_ir;
      Alcotest.test_case "pareto points fit platform" `Slow test_dse_respects_resources;
      Alcotest.test_case "out-of-range config rejected" `Quick test_dse_rejects_bad_config;
      Alcotest.test_case "dse caches: stats" `Slow test_run_cache_stats;
      Alcotest.test_case "dse stats: per-job counts under a nested search" `Slow
        test_run_counts_are_per_job;
      Alcotest.test_case "parallel dse: -j invariant (gemm)" `Slow test_parallel_deterministic_gemm;
      Alcotest.test_case "parallel dse: -j invariant (syrk)" `Slow test_parallel_deterministic_syrk;
      Alcotest.test_case "parallel dse: -j invariant (surrogate)" `Slow
        test_surrogate_parallel_deterministic;
      Alcotest.test_case "parallel dse: adversarial latency (exhaustive)" `Slow
        test_adversarial_latency_exhaustive;
      Alcotest.test_case "parallel dse: adversarial latency (surrogate)" `Slow
        test_adversarial_latency_surrogate;
      Alcotest.test_case "parallel dse: siblings never wait (-j 2)" `Slow
        test_siblings_never_wait;
      Alcotest.test_case "parallel dse: a failing point re-raises" `Slow
        test_failure_path;
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
      Alcotest.test_case "band fingerprint: suffix keys derive from the head" `Quick
        test_band_fp_suffix_keys;
      Alcotest.test_case "band fingerprint: suffix under an unmemoizable head" `Quick
        test_band_fp_suffix_under_unmemoizable_head;
      Alcotest.test_case "band memo: a shared memo keeps no func-info" `Quick
        test_shared_memo_keeps_no_func_info;
      Alcotest.test_case "band memo: warm = cold on PolyBench" `Slow
        test_band_memo_warm_equals_cold;
      Alcotest.test_case "canonical points share cache key" `Quick
        test_canonical_points_share_key;
      Alcotest.test_case "symbolic = materialized (gemm)" `Slow test_symbolic_equiv_gemm;
      Alcotest.test_case "symbolic = materialized (syrk)" `Slow test_symbolic_equiv_syrk;
      Alcotest.test_case "symbolic run matches materialized run" `Slow
        test_run_symbolic_matches_materialized;
      Alcotest.test_case "certified expansions replay unchanged" `Slow
        test_certified_expansions_replay_unchanged;
      Alcotest.test_case "band dependences: memo = fresh" `Slow test_band_deps_memo;
    ] )
