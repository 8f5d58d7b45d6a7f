(* The paper-artifact harness: regenerates every table and figure of the
   paper's evaluation (§7), plus the ablation benches called out in
   DESIGN.md. DSE throughput and per-layer timings are measured by the
   repository benchmark (perfbench/), not here.

     dune exec bench/main.exe            # every artifact
     dune exec bench/main.exe -- table3  # one artifact
     dune exec bench/main.exe -- table3 --size 512 --budget 2

   Artifacts:
     table3      Table 3  — DSE results on six PolyBench kernels
     fig6        Figure 6 — scalability study (problem sizes 32..max)
     table4      Table 4  — DNN optimization results (ResNet/VGG/MobileNet)
     fig7        Figure 7 — DNN ablation (D, Ln+D, Gn+L7+D)
     estimator   QoR-estimator vs virtual-tool cross-validation
     dse_ablation  neighbor-traversing DSE vs random sampling

   Flags: --budget N scales evaluation budgets, --size/--max-size the problem
   sizes, --jobs N the DSE worker-domain count (table3/fig6).

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

let run_kernel_dse ~jobs ~size ~samples ~iterations kernel =
  let ctx = Ir.Ctx.create () in
  let top = Models.Polybench.name kernel in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:size) in
  let r, dse_time =
    Obs.Clock.time_s (fun () ->
        Dse.run ~samples ~iterations ~seed:42 ~jobs ctx m ~top ~platform:P.xc7z020)
  in
  let base = Vhls.Synth.synthesize m ~top in
  (r, base, dse_time)

let table3 ?(jobs = 1) ~size ~budget () =
  header (Printf.sprintf "Table 3: DSE results of computation kernels (size %d, XC7Z020)" size);
  Fmt.pr "%-8s %-6s %-9s %-4s %-4s %-12s %-16s %-4s %s@." "Kernel" "Size" "Speedup"
    "LP" "RVB" "PermMap" "TileSizes" "II" "ArrayPartitionFactors";
  line ();
  List.iter
    (fun kernel ->
      let r, base, dse_time =
        run_kernel_dse ~jobs ~size ~samples:(24 * budget) ~iterations:(48 * budget) kernel
      in
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
            let r, base, _ =
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
      let (opt, _), runtime =
        Obs.Clock.time_s (fun () ->
            Pipeline.dnn_synth ctx m ~config:Pipeline.best_config ~platform)
      in
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
  (* Every word that is not a flag or a flag's value must name an artifact:
     a mistyped or retired name exits 2 instead of running everything. *)
  let artifacts = [ "table3"; "fig6"; "table4"; "fig7"; "estimator"; "dse_ablation" ] in
  let rec words = function
    | flag :: _ :: rest when String.starts_with ~prefix:"--" flag -> words rest
    | w :: rest -> w :: words rest
    | [] -> []
  in
  (match List.filter (fun w -> not (List.mem w artifacts)) (words (List.tl args)) with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown artifact: %s (artifacts: %s)@." (String.concat " " unknown)
        (String.concat " " artifacts);
      exit 2);
  let all = not (List.exists has artifacts) in
  let t0 = Obs.Clock.now_ns () in
  if all || has "table3" then table3 ~jobs ~size ~budget ();
  if all || has "fig6" then fig6 ~jobs ~max_size ~budget ();
  if all || has "table4" then table4 ();
  if all || has "fig7" then fig7 ();
  if all || has "estimator" then estimator_validation ();
  if all || has "dse_ablation" then dse_ablation ~budget ();
  Fmt.pr "@.total bench wall time: %.1fs@." (Obs.Clock.since_s t0)
