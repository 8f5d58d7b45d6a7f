(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7), plus the ablation benches called out in
   DESIGN.md and Bechamel micro-benchmarks of the compiler itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table3  # one artifact
     dune exec bench/main.exe -- table3 --size 512 --budget 2

   Artifacts:
     table3      Table 3  — DSE results on six PolyBench kernels
     fig6        Figure 6 — scalability study (problem sizes 32..max)
     table4      Table 4  — DNN optimization results (ResNet/VGG/MobileNet)
     fig7        Figure 7 — DNN ablation (D, Ln+D, Gn+L7+D)
     estimator   QoR-estimator vs virtual-tool cross-validation
     dse_ablation  neighbor-traversing DSE vs random sampling
     dse_bench   parallel-scaling sweep (-j 1..cores) vs sequential DSE -> BENCH_dse.json
     micro       Bechamel micro-benchmarks of the compiler

   Flags: --budget N scales evaluation budgets, --size/--max-size the problem
   sizes, --jobs N the DSE worker-domain count (table3/fig6; dse_bench picks
   its own arms).

   Absolute cycle counts come from the virtual downstream synthesizer (see
   DESIGN.md substitutions); the paper's Vivado numbers differ in absolute
   terms but the shapes should match — EXPERIMENTS.md records both. *)

open Mir
open Dialects
open Scalehls

module P = Vhls.Platform

let line () = Fmt.pr "%s@." (String.make 100 '-')

let header title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* ---- Table 3 ------------------------------------------------------------------- *)

let partition_string kernel f =
  let names = Models.Polybench.arg_names kernel in
  let parts =
    List.map2
      (fun name (v : Ir.value) ->
        match v.Ir.vty with
        | Ty.Memref mr ->
            let fs =
              List.map
                (fun p -> string_of_int (Hlscpp.partition_factor p))
                (Hlscpp.partitions_of_memref mr)
            in
            Some (Printf.sprintf "%s:[%s]" name (String.concat "," fs))
        | _ -> None)
      names (Func.func_args f)
  in
  String.concat " " (List.filter_map Fun.id parts)

let run_kernel_dse ?(jobs = 1) ?(seed = 42) ?(symbolic = true) ~size ~samples
    ~iterations kernel =
  let ctx = Ir.Ctx.create () in
  let top = Models.Polybench.name kernel in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:size) in
  let t0 = Unix.gettimeofday () in
  let r =
    Dse.run ~samples ~iterations ~seed ~jobs ~symbolic ctx m ~top
      ~platform:P.xc7z020
  in
  let dse_time = Unix.gettimeofday () -. t0 in
  let base = Vhls.Synth.synthesize m ~top in
  (m, r, base, dse_time)

let table3 ?(jobs = 1) ~size ~budget () =
  header (Printf.sprintf "Table 3: DSE results of computation kernels (size %d, XC7Z020)" size);
  Fmt.pr "%-8s %-6s %-9s %-4s %-4s %-12s %-16s %-4s %s@." "Kernel" "Size" "Speedup"
    "LP" "RVB" "PermMap" "TileSizes" "II" "ArrayPartitionFactors";
  line ();
  List.iter
    (fun kernel ->
      let m, r, base, dse_time =
        run_kernel_dse ~jobs ~size ~samples:(24 * budget) ~iterations:(48 * budget) kernel
      in
      ignore m;
      match r.Dse.best with
      | Some best ->
          let opt = Vhls.Synth.synthesize r.Dse.module_ ~top:(Models.Polybench.name kernel) in
          let pt = best.Dse.point in
          let f = Ir.find_func_exn r.Dse.module_ (Models.Polybench.name kernel) in
          Fmt.pr "%-8s %-6d %-9s %-4s %-4s %-12s %-16s %-4d %s@."
            (String.uppercase_ascii (Models.Polybench.name kernel))
            size
            (Printf.sprintf "%.1fx"
               (float_of_int base.Vhls.Synth.latency /. float_of_int opt.Vhls.Synth.latency))
            (if pt.Dse.lp then "Yes" else "No")
            (if pt.Dse.rvb then "Yes" else "No")
            (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int pt.Dse.perm)))
            (Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int pt.Dse.tiles)))
            pt.Dse.target_ii
            (partition_string kernel f);
          Fmt.pr "%-8s explored %d points in %.1fs; opt: %a@." "" r.Dse.explored dse_time
            Vhls.Synth.pp_report opt
      | None ->
          Fmt.pr "%-8s %-6d (no feasible point found)@."
            (String.uppercase_ascii (Models.Polybench.name kernel))
            size)
    Models.Polybench.all

(* ---- Figure 6 ------------------------------------------------------------------ *)

let fig6 ?(jobs = 1) ~max_size ~budget () =
  header (Printf.sprintf "Figure 6: scalability study (problem sizes 32..%d)" max_size);
  let sizes =
    let rec go s = if s > max_size then [] else s :: go (s * 2) in
    go 32
  in
  Fmt.pr "%-8s %s@." "Kernel"
    (String.concat " " (List.map (Printf.sprintf "%9d") sizes));
  line ();
  List.iter
    (fun kernel ->
      let speedups =
        List.map
          (fun size ->
            let _, r, base, _ =
              run_kernel_dse ~jobs ~size ~samples:(12 * budget) ~iterations:(16 * budget) kernel
            in
            match r.Dse.best with
            | Some _ ->
                let opt =
                  Vhls.Synth.synthesize r.Dse.module_ ~top:(Models.Polybench.name kernel)
                in
                float_of_int base.Vhls.Synth.latency /. float_of_int opt.Vhls.Synth.latency
            | None -> 1.0)
          sizes
      in
      Fmt.pr "%-8s %s@."
        (String.uppercase_ascii (Models.Polybench.name kernel))
        (String.concat " " (List.map (Printf.sprintf "%8.1fx") speedups)))
    Models.Polybench.all;
  Fmt.pr "@.(series: speedup of the DSE-chosen design vs the unoptimized kernel, per problem size)@."

(* ---- Table 4 ------------------------------------------------------------------- *)

let models () =
  [
    ("ResNet-18", (fun ctx -> Models.Resnet.build ctx), 0.344);
    ("VGG-16", (fun ctx -> Models.Vgg.build ctx), 0.296);
    ("MobileNet", (fun ctx -> Models.Mobilenet.build ctx), 0.468);
  ]

let table4 () =
  header "Table 4: optimization results of representative DNN models (VU9P single SLR)";
  let platform = P.vu9p_slr in
  Fmt.pr "%-10s %-10s %-9s %-17s %-13s %-14s %-13s %-10s %s@." "Model" "Speedup"
    "Runtime" "Memory(SLR%)" "DSP(SLR%)" "LUT(SLR%)" "FF(SLR%)" "DSPEffi" "TVM-VTA";
  line ();
  List.iter
    (fun (name, build, vta_effi) ->
      let ctx = Ir.Ctx.create () in
      let m = build ctx in
      let ops = Models.Nn.num_ops m in
      let base, _ = Pipeline.dnn_synth ctx m ~config:Pipeline.baseline_config ~platform in
      let t0 = Unix.gettimeofday () in
      let opt, _ = Pipeline.dnn_synth ctx m ~config:Pipeline.best_config ~platform in
      let runtime = Unix.gettimeofday () -. t0 in
      let u = opt.Vhls.Synth.usage in
      let pct part total = 100.0 *. float_of_int part /. float_of_int total in
      let effi =
        float_of_int ops
        /. float_of_int opt.Vhls.Synth.interval
        /. float_of_int (max 1 u.P.u_dsp)
      in
      Fmt.pr "%-10s %-10s %-9s %-17s %-13s %-14s %-13s %-10.3f %.3f@." name
        (Printf.sprintf "%.1fx"
           (float_of_int base.Vhls.Synth.interval /. float_of_int opt.Vhls.Synth.interval))
        (Printf.sprintf "%.1fs" runtime)
        (Printf.sprintf "%.1fMb (%.1f%%)"
           (float_of_int u.P.u_bits /. 1024. /. 1024.)
           (pct u.P.u_bits platform.P.memory_bits))
        (Printf.sprintf "%d (%.1f%%)" u.P.u_dsp (pct u.P.u_dsp platform.P.dsp))
        (Printf.sprintf "%d (%.1f%%)" u.P.u_lut (pct u.P.u_lut platform.P.lut))
        (Printf.sprintf "%d (%.1f%%)" u.P.u_ff (pct u.P.u_ff platform.P.ff))
        effi vta_effi)
    (models ());
  Fmt.pr "@.(Speedup: throughput vs the unoptimized compilation; Runtime: wall-clock of the@.";
  Fmt.pr " optimization flow; DSP efficiency: OP/cycle/DSP, Eq. 5; TVM-VTA column from the paper)@."

(* ---- Figure 7 ------------------------------------------------------------------- *)

let fig7 () =
  header "Figure 7: ablation study of DNN models (D / Ln+D / Gn+L7+D)";
  let platform = P.vu9p_slr in
  let configs =
    [ ("D", { Pipeline.graph_level = 0; loop_level = 0; directive = true }) ]
    @ List.init 7 (fun i ->
          ( Printf.sprintf "L%d+D" (i + 1),
            { Pipeline.graph_level = 0; loop_level = i + 1; directive = true } ))
    @ List.init 7 (fun i ->
          ( Printf.sprintf "G%d+L7+D" (i + 1),
            { Pipeline.graph_level = i + 1; loop_level = 7; directive = true } ))
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun (name, build, _) ->
      let ctx = Ir.Ctx.create () in
      let m = build ctx in
      let base, _ = Pipeline.dnn_synth ctx m ~config:Pipeline.baseline_config ~platform in
      Fmt.pr "@.%s (baseline interval: %d cycles)@." name base.Vhls.Synth.interval;
      Fmt.pr "  %-10s %-14s %-10s %-8s@." "config" "interval" "speedup" "DSP";
      List.iter
        (fun (label, config) ->
          let r, _ = Pipeline.dnn_synth ctx m ~config ~platform in
          let speedup =
            float_of_int base.Vhls.Synth.interval /. float_of_int r.Vhls.Synth.interval
          in
          Hashtbl.replace results (name, label) speedup;
          Fmt.pr "  %-10s %-14d %-10s %-8d@." label r.Vhls.Synth.interval
            (Printf.sprintf "%.1fx" speedup)
            r.Vhls.Synth.usage.P.u_dsp)
        configs)
    (models ());
  (* the paper's aggregate margins *)
  let geomean labels =
    let vals =
      List.concat_map
        (fun (name, _, _) ->
          List.filter_map (fun l -> Hashtbl.find_opt results (name, l)) labels)
        (models ())
    in
    match vals with
    | [] -> 1.0
    | _ ->
        exp (List.fold_left (fun a v -> a +. log v) 0.0 vals /. float_of_int (List.length vals))
  in
  Fmt.pr "@.aggregates (geomean over the three models):@.";
  Fmt.pr "  D alone:              %.1fx   (paper avg: 1.8x)@." (geomean [ "D" ]);
  Fmt.pr "  L7+D:                 %.1fx   (paper avg: 130.9x)@." (geomean [ "L7+D" ]);
  Fmt.pr "  G7+L7+D:              %.1fx   (paper: 1505x-3825x)@." (geomean [ "G7+L7+D" ]);
  Fmt.pr "  margin L7/L1:         %.1fx   (paper avg: 64.0x)@."
    (geomean [ "L7+D" ] /. geomean [ "L1+D" ]);
  Fmt.pr "  margin G7/G1:         %.1fx   (paper avg: 2.1x)@."
    (geomean [ "G7+L7+D" ] /. geomean [ "G1+L7+D" ])

(* ---- Estimator cross-validation ---------------------------------------------------- *)

let estimator_validation () =
  header "Ablation: QoR estimator vs virtual downstream tool";
  Fmt.pr "%-8s %-22s %-14s %-14s %s@." "Kernel" "design point" "estimator" "tool" "ratio";
  line ();
  List.iter
    (fun kernel ->
      let ctx = Ir.Ctx.create () in
      let top = Models.Polybench.name kernel in
      let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:64) in
      let space = Dse.build_space ~max_unroll:64 ctx m ~top in
      let rng = Random.State.make [| 13 |] in
      let shown = ref 0 in
      let attempts = ref 0 in
      while !shown < 3 && !attempts < 12 do
        incr attempts;
        let pt = Dse.random_point rng space in
        match Dse.apply_point ctx m ~top pt with
        | m' ->
            incr shown;
            let e = Estimator.estimate m' ~top in
            let s = Vhls.Synth.synthesize m' ~top in
            Fmt.pr "%-8s %-22s %-14d %-14d %.2f@." top
              (Fmt.str "ii=%d unroll=%d" pt.Dse.target_ii
                 (List.fold_left ( * ) 1 pt.Dse.tiles))
              e.Estimator.latency s.Vhls.Synth.latency
              (float_of_int e.Estimator.latency /. float_of_int (max 1 s.Vhls.Synth.latency))
        | exception Dse.Inapplicable -> ()
      done)
    Models.Polybench.all

(* ---- DSE ablation ---------------------------------------------------------------------- *)

let dse_ablation ~budget () =
  header "Ablation: neighbor-traversing DSE vs random sampling (equal evaluation budget)";
  Fmt.pr "%-8s %-22s %-22s@." "Kernel" "random only" "sampling+neighbors";
  line ();
  List.iter
    (fun kernel ->
      let run ~samples ~iterations =
        let ctx = Ir.Ctx.create () in
        let top = Models.Polybench.name kernel in
        let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:256) in
        (* heuristic seeds excluded from both arms: this compares the pure
           search algorithms *)
        let r =
          Dse.run ~samples ~iterations ~seed:7 ~heuristic_seeds:false ctx m ~top
            ~platform:P.xc7z020
        in
        match r.Dse.best with
        | Some b -> b.Dse.estimate.Estimator.latency
        | None -> max_int
      in
      let b = 24 * budget in
      let random_only = run ~samples:(2 * b) ~iterations:0 in
      let with_neighbors = run ~samples:b ~iterations:b in
      Fmt.pr "%-8s %-22d %-22d%s@."
        (String.uppercase_ascii (Models.Polybench.name kernel))
        random_only with_neighbors
        (if with_neighbors <= random_only then "  (neighbors win or tie)" else ""))
    Models.Polybench.all

(* ---- Parallel DSE bench (BENCH_dse.json) ----------------------------------------------- *)

(* Measures the parallel, memoizing DSE engine against the sequential
   baseline on one kernel — sweeping every worker count from 2 up to the
   machine's cores (or the pinned --jobs arm) and verifying that every arm
   returns the identical Pareto frontier (the async executor's in-order
   commit guarantee) — then runs a symbolic-vs-materialized evaluation arm
   over the same seed and space, and records the perf trajectory in
   machine-readable BENCH_dse.json. *)
let dse_bench ?(jobs = 0) ~size ~budget () =
  header (Printf.sprintf "Parallel DSE bench (gemm, size %d)" size);
  let kernel = Models.Polybench.Gemm in
  let samples = 24 * budget and iterations = 48 * budget in
  let arm ?symbolic ~jobs () =
    let _, r, _, wall =
      run_kernel_dse ?symbolic ~jobs ~size ~samples ~iterations kernel
    in
    (r, wall)
  in
  let frontier_sig r =
    List.map
      (fun p -> (p.Dse.point, p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
      r.Dse.pareto
  in
  let cores = Domain.recommended_domain_count () in
  let r1, t1 = arm ~jobs:1 () in
  (* On a single-core host the "parallel" arm is the sequential engine plus
     domain overhead: its speedup is meaningless noise (<1x), so skip it and
     mark the record instead of publishing a misleading slowdown. *)
  let parallel_skipped = (if jobs = 0 then cores else jobs) <= 1 in
  (* Scaling sweep: with no --jobs pin, measure every worker count from 2 up
     to the machine's core count; a pinned --jobs N measures that single arm.
     Each arm must reproduce the sequential frontier bit-for-bit — the async
     executor's in-order commit makes -j N a pure throughput knob. *)
  let sweep_jobs =
    if parallel_skipped then []
    else if jobs > 0 then [ jobs ]
    else List.init (cores - 1) (fun i -> i + 2)
  in
  let scaling = List.map (fun j -> let r, t = arm ~jobs:j () in (j, r, t)) sweep_jobs in
  let rn, tn = match List.rev scaling with (_, r, t) :: _ -> (r, t) | [] -> (r1, t1) in
  let jobs_eff = rn.Dse.stats.Dse.jobs in
  let arm_match r = frontier_sig r1 = frontier_sig r && r1.Dse.explored = r.Dse.explored in
  let frontier_match = List.for_all (fun (_, r, _) -> arm_match r) scaling in
  let pps r t = float_of_int r.Dse.explored /. Float.max 1e-9 t in
  Fmt.pr "sequential: %d points in %5.2fs (%.1f points/s)@." r1.Dse.explored t1 (pps r1 t1);
  if parallel_skipped then
    Fmt.pr "parallel  : skipped (single core available — speedup would only measure domain overhead)@."
  else begin
    List.iter
      (fun (j, r, t) ->
        Fmt.pr "parallel  : -j %d: %d points in %5.2fs (%.1f points/s, %.2fx, frontier match: %b)@."
          j r.Dse.explored t (pps r t)
          (t1 /. Float.max 1e-9 t)
          (arm_match r))
      scaling;
    Fmt.pr "speedup   : %.2fx at -j %d   frontier match: %b@."
      (t1 /. Float.max 1e-9 tn)
      jobs_eff frontier_match
  end;
  Fmt.pr "pre-cache : %d hits / %d misses; eval cache: %d hits / %d misses (%.0f%% hit rate)@."
    rn.Dse.stats.Dse.pre_hits rn.Dse.stats.Dse.pre_misses rn.Dse.stats.Dse.cache_hits
    rn.Dse.stats.Dse.cache_misses
    (100. *. Dse.hit_rate rn.Dse.stats.Dse.cache_hits rn.Dse.stats.Dse.cache_misses);
  Fmt.pr "est memo  : %d hits / %d misses (%.0f%% hit rate)@."
    rn.Dse.stats.Dse.est_memo_hits rn.Dse.stats.Dse.est_memo_misses
    (100. *. Dse.hit_rate rn.Dse.stats.Dse.est_memo_hits rn.Dse.stats.Dse.est_memo_misses);
  if not frontier_match then
    Fmt.epr "WARNING: parallel DSE diverged from the sequential baseline@.";
  (* Symbolic vs materialized: same seed, same space, sequential both ways.
     The symbolic arm is r1; re-run with the materialized evaluator. *)
  let rm, tm = arm ~symbolic:false ~jobs:1 () in
  let symbolic_frontier_match =
    frontier_sig r1 = frontier_sig rm && r1.Dse.explored = rm.Dse.explored
  in
  Fmt.pr "materialized: %d points in %5.2fs (%.1f points/s)@." rm.Dse.explored tm
    (pps rm tm);
  Fmt.pr "symbolic  : %.2fx vs materialized   frontier match: %b   fallbacks: %d/%d@."
    (tm /. Float.max 1e-9 t1)
    symbolic_frontier_match r1.Dse.stats.Dse.fallback_points
    r1.Dse.stats.Dse.symbolic_points;
  if not symbolic_frontier_match then
    Fmt.epr "WARNING: symbolic evaluation diverged from the materialized baseline@.";
  (* Service arm: the scalehls-serve warm restart measured in-process. Cold
     run against an empty disk-backed store, checkpoint, reload into a fresh
     store, re-run: the warm run must replay the cold frontier bit-for-bit
     while serving every evaluation from the restored cache. *)
  let store_path = Filename.temp_file "scalehls-bench-store" ".jsonl" in
  Sys.remove store_path;
  let service_run () =
    let store = Serve.Store.open_ ~path:store_path () in
    let ctx = Ir.Ctx.create () in
    let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:size) in
    let t0 = Unix.gettimeofday () in
    let r =
      Dse.run ~samples ~iterations ~seed:42
        ~cache:(Serve.Store.cache_for store "xc7z020")
        ~memos:(Serve.Store.memos store)
        ctx m ~top:(Models.Polybench.name kernel) ~platform:P.xc7z020
    in
    let wall = Unix.gettimeofday () -. t0 in
    ignore (Serve.Store.save store);
    (r, wall)
  in
  let rc, tc = service_run () in
  let rw, tw = service_run () in
  if Sys.file_exists store_path then Sys.remove store_path;
  let warm_frontier_match =
    frontier_sig rc = frontier_sig rw && rc.Dse.explored = rw.Dse.explored
  in
  let warm_hit_rate =
    Dse.hit_rate rw.Dse.stats.Dse.cache_hits rw.Dse.stats.Dse.cache_misses
  in
  Fmt.pr "service   : cold %5.2fs (%.1f points/s) -> warm %5.2fs (%.1f points/s), %.2fx, %.0f%% warm hit rate, frontier match: %b@."
    tc (pps rc tc) tw (pps rw tw)
    (tc /. Float.max 1e-9 tw)
    (100. *. warm_hit_rate) warm_frontier_match;
  if not warm_frontier_match then
    Fmt.epr "WARNING: warm-store DSE diverged from the cold baseline@.";
  (* Sample-efficiency arm: exhaustive vs surrogate over the identical seed
     and budget, measuring the frontier-hypervolume trajectory against the
     exact-evaluation count. The headline metric: how many exact evaluations
     the surrogate needs to reach 95% of the exhaustive run's final
     hypervolume (CI gates it at <= 60% of the exhaustive eval count, see
     BASELINE_dse.json). *)
  let top = Models.Polybench.name kernel in
  let base_latency =
    let ctx = Ir.Ctx.create () in
    let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:size) in
    (Vhls.Synth.synthesize m ~top).Vhls.Synth.latency
  in
  let ref_latency = 2 * base_latency and ref_area = P.xc7z020.P.dsp in
  let traj_run strategy =
    let ctx = Ir.Ctx.create () in
    let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:size) in
    let traj = ref [] in
    let r =
      Dse.run ~samples ~iterations ~seed:42 ~strategy
        ~on_frontier:(fun front explored ->
          let hv =
            Obs.Hv.log_hv2 ~ref_latency ~ref_area
              (List.map
                 (fun (p : Dse.evaluated) ->
                   (p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
                 front)
          in
          traj := (explored, hv) :: !traj)
        ctx m ~top ~platform:P.xc7z020
    in
    (r, List.rev !traj)
  in
  let re, traj_e = traj_run Dse.exhaustive in
  let rs, traj_s = traj_run (Qor_ml.surrogate ()) in
  let final_hv traj = match List.rev traj with (_, hv) :: _ -> hv | [] -> 0. in
  let hv_e = final_hv traj_e and hv_s = final_hv traj_s in
  let evals_to threshold traj =
    let rec go = function
      | [] -> None
      | (explored, hv) :: rest -> if hv >= threshold then Some explored else go rest
    in
    go traj
  in
  let target_hv = 0.95 *. hv_e in
  let e95_e = evals_to target_hv traj_e and e95_s = evals_to target_hv traj_s in
  let hv_ratio = hv_s /. Float.max 1e-9 hv_e in
  let evals_ratio =
    match e95_s with
    | Some n -> float_of_int n /. float_of_int (max 1 re.Dse.explored)
    | None -> infinity
  in
  let pp_opt = function Some n -> string_of_int n | None -> "null" in
  Fmt.pr "strategy  : exhaustive %d evals (hv %.1f, 95%% at %s evals) | surrogate %d evals (hv %.1f, 95%% at %s evals)@."
    re.Dse.explored hv_e (pp_opt e95_e) rs.Dse.explored hv_s (pp_opt e95_s);
  Fmt.pr "efficiency: surrogate reaches 95%% of exhaustive hypervolume with %.0f%% of its exact evaluations (hv ratio %.3f)@."
    (100. *. evals_ratio) hv_ratio;
  let traj_json traj =
    "["
    ^ String.concat ", "
        (List.map (fun (e, hv) -> Printf.sprintf "[%d, %.3f]" e hv) traj)
    ^ "]"
  in
  let counters_json cs =
    "{ "
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) cs)
    ^ " }"
  in
  let strategy_efficiency_json =
    Printf.sprintf
      {|{
    "hv_ref_latency": %d,
    "hv_ref_area": %d,
    "exhaustive": { "evals": %d, "final_hv": %.3f, "evals_to_95pct_hv": %s,
                    "trajectory": %s },
    "surrogate": { "evals": %d, "final_hv": %.3f, "evals_to_95pct_hv": %s,
                   "trajectory": %s,
                   "counters": %s },
    "hv_ratio": %.4f,
    "evals_ratio": %s
  }|}
      ref_latency ref_area re.Dse.explored hv_e (pp_opt e95_e)
      (traj_json traj_e) rs.Dse.explored hv_s (pp_opt e95_s) (traj_json traj_s)
      (counters_json rs.Dse.stats.Dse.strategy_counters)
      hv_ratio
      (if Float.is_finite evals_ratio then Printf.sprintf "%.4f" evals_ratio
       else "null")
  in
  (* The parallel block is [null] when the arm was skipped (single core):
     publishing a copy of the sequential numbers would let downstream gates
     silently compare the kernel against itself. *)
  let parallel_json =
    if parallel_skipped then ("null", "null")
    else
      ( Printf.sprintf
          {|{ "jobs": %d, "wall_s": %.3f, "points": %d, "points_per_sec": %.2f }|}
          jobs_eff tn rn.Dse.explored (pps rn tn),
        Printf.sprintf "%.3f" (t1 /. Float.max 1e-9 tn) )
  in
  (* The full measured curve, -j 1 included, so downstream tooling can plot
     scaling without re-deriving it from the headline fields. *)
  let scaling_json =
    if parallel_skipped then "null"
    else
      "[ "
      ^ String.concat ",\n               "
          (List.map
             (fun (j, r, t) ->
               Printf.sprintf
                 {|{ "jobs": %d, "wall_s": %.3f, "points": %d, "points_per_sec": %.2f, "speedup": %.3f, "frontier_match": %b }|}
                 j t r.Dse.explored (pps r t)
                 (t1 /. Float.max 1e-9 t)
                 (arm_match r))
             ((1, r1, t1) :: scaling))
      ^ " ]"
  in
  let profile_json =
    String.concat ", "
      (List.map
         (fun (stage, secs) -> Printf.sprintf "\"%s\": %.3f" stage secs)
         r1.Dse.stats.Dse.stage_seconds)
  in
  (* Per-point latency quantiles from the "dse" registry histogram — the
     same series the Prometheus exposition serves, accumulated over every
     arm above. Informational (not CI-gated): quantiles shift with machine
     load; the throughput gate already covers regressions. *)
  let observability_json =
    let h = Obs.Metrics.histogram (Obs.Metrics.registry "dse") "evaluate_seconds" in
    Printf.sprintf
      {|{ "evaluate_count": %d, "evaluate_p50_s": %.6f, "evaluate_p99_s": %.6f }|}
      (Obs.Metrics.histogram_count h)
      (Obs.Metrics.quantile h 0.5)
      (Obs.Metrics.quantile h 0.99)
  in
  let oc = open_out "BENCH_dse.json" in
  Printf.fprintf oc
    {|{
  "kernel": "%s",
  "size": %d,
  "samples": %d,
  "iterations": %d,
  "seed": 42,
  "cores": %d,
  "sequential": { "jobs": 1, "wall_s": %.3f, "points": %d, "points_per_sec": %.2f },
  "parallel": %s,
  "parallel_skipped": %b,
  "speedup": %s,
  "scaling": %s,
  "frontier_match": %b,
  "cache": { "pre_hits": %d, "pre_misses": %d, "eval_hits": %d, "eval_misses": %d,
             "eval_hit_rate": %.4f, "est_memo_hits": %d, "est_memo_misses": %d,
             "est_memo_hit_rate": %.4f },
  "symbolic_vs_materialized": {
    "symbolic_wall_s": %.3f,
    "materialized_wall_s": %.3f,
    "speedup": %.3f,
    "symbolic_frontier_match": %b,
    "symbolic_points": %d,
    "fallback_points": %d,
    "est_memo_hits": %d
  },
  "service_warm_vs_cold": {
    "cold_wall_s": %.3f,
    "warm_wall_s": %.3f,
    "speedup": %.3f,
    "cold_points_per_sec": %.2f,
    "warm_points_per_sec": %.2f,
    "warm_eval_hits": %d,
    "warm_eval_misses": %d,
    "warm_hit_rate": %.4f,
    "warm_frontier_match": %b
  },
  "strategy_efficiency": %s,
  "observability": %s,
  "profile_s": { %s }
}
|}
    (Models.Polybench.name kernel)
    size samples iterations cores t1 r1.Dse.explored (pps r1 t1)
    (fst parallel_json) parallel_skipped (snd parallel_json) scaling_json
    frontier_match
    rn.Dse.stats.Dse.pre_hits rn.Dse.stats.Dse.pre_misses
    rn.Dse.stats.Dse.cache_hits rn.Dse.stats.Dse.cache_misses
    (Dse.hit_rate rn.Dse.stats.Dse.cache_hits rn.Dse.stats.Dse.cache_misses)
    rn.Dse.stats.Dse.est_memo_hits rn.Dse.stats.Dse.est_memo_misses
    (Dse.hit_rate rn.Dse.stats.Dse.est_memo_hits rn.Dse.stats.Dse.est_memo_misses)
    t1 tm
    (tm /. Float.max 1e-9 t1)
    symbolic_frontier_match r1.Dse.stats.Dse.symbolic_points
    r1.Dse.stats.Dse.fallback_points r1.Dse.stats.Dse.est_memo_hits tc tw
    (tc /. Float.max 1e-9 tw)
    (pps rc tc) (pps rw tw) rw.Dse.stats.Dse.cache_hits
    rw.Dse.stats.Dse.cache_misses warm_hit_rate warm_frontier_match
    strategy_efficiency_json observability_json profile_json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_dse.json@."

(* ---- Bechamel micro-benchmarks ---------------------------------------------------------- *)

let micro () =
  header "Bechamel micro-benchmarks (compiler throughput)";
  let open Bechamel in
  let ctx = Ir.Ctx.create () in
  let gemm = Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Gemm ~n:64) in
  let pt = { Dse.lp = true; rvb = false; perm = [ 1; 2; 0 ]; tiles = [ 4; 1; 8 ]; target_ii = 2 } in
  let optimized = Dse.apply_point ctx gemm ~top:"gemm" pt in
  let resnet = Models.Resnet.build ctx in
  let tests =
    [
      Test.make ~name:"frontend: parse+raise gemm-64"
        (Staged.stage (fun () ->
             let ctx = Ir.Ctx.create () in
             ignore (Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Gemm ~n:64))));
      Test.make ~name:"transform: apply a DSE point"
        (Staged.stage (fun () -> ignore (Dse.apply_point ctx gemm ~top:"gemm" pt)));
      Test.make ~name:"estimator: optimized gemm-64"
        (Staged.stage (fun () -> ignore (Estimator.estimate optimized ~top:"gemm")));
      Test.make ~name:"vhls: synthesize optimized gemm-64"
        (Staged.stage (fun () -> ignore (Vhls.Synth.synthesize optimized ~top:"gemm")));
      Test.make ~name:"graph: legalize+split resnet18"
        (Staged.stage (fun () ->
             let f = Ir.find_func_exn resnet "forward" in
             let m = Ir.replace_func resnet (Legalize_dataflow.legalize ~insert_copy:true ctx f) in
             ignore (Split_function.split ~min_gran:1 ctx m ~func_name:"forward")));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ]) in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Fmt.pr "  %-44s %10.1f us/run@." name (est /. 1000.)
        | _ -> Fmt.pr "  %-44s (no estimate)@." name)
      ols
  in
  List.iter benchmark tests

(* ---- Driver -------------------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let opt_val flag default =
    let rec go = function
      | a :: b :: _ when a = flag -> int_of_string b
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let budget = opt_val "--budget" 1 in
  let size = opt_val "--size" 4096 in
  let max_size = opt_val "--max-size" 1024 in
  let jobs = opt_val "--jobs" 1 in
  let all = not (has "table3" || has "fig6" || has "table4" || has "fig7"
                 || has "estimator" || has "dse_ablation" || has "dse_bench"
                 || has "micro") in
  let t0 = Unix.gettimeofday () in
  if all || has "table3" then table3 ~jobs ~size ~budget ();
  if all || has "fig6" then fig6 ~jobs ~max_size ~budget ();
  if all || has "table4" then table4 ();
  if all || has "fig7" then fig7 ();
  if all || has "estimator" then estimator_validation ();
  if all || has "dse_ablation" then dse_ablation ~budget ();
  (* dse_bench: an explicit --jobs N pins the sweep to that single parallel
     arm; without the flag it sweeps -j 2..cores (and skips the parallel
     sweep entirely on single-core hosts, recording explicit nulls). *)
  if all || has "dse_bench" then
    dse_bench
      ~jobs:(if has "--jobs" then jobs else 0)
      ~size:(min size 64) ~budget ();
  if all || has "micro" then micro ();
  Fmt.pr "@.total bench wall time: %.1fs@." (Unix.gettimeofday () -. t0)
