(* Automated DSE on a PolyBench kernel: reproduces one row of the paper's
   Table 3 and prints the latency-area Pareto frontier the 4-step
   neighbor-traversing algorithm discovered.

     dune exec examples/dse_kernel.exe -- [kernel] [size]

   e.g.  dune exec examples/dse_kernel.exe -- gemm 64 *)

open Mir
open Scalehls

let () =
  let kernel =
    if Array.length Sys.argv > 1 then Models.Polybench.of_name Sys.argv.(1)
    else Models.Polybench.Gemm
  in
  let n = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 64 in
  let top = Models.Polybench.name kernel in
  let platform = Vhls.Platform.xc7z020 in

  Fmt.pr "kernel: %s, problem size: %d, platform: %s (%d DSP, %d LUT)@.@." top n
    platform.Vhls.Platform.name platform.Vhls.Platform.dsp platform.Vhls.Platform.lut;

  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n) in

  let r, dt =
    Obs.Clock.time_s (fun () -> Dse.run ~samples:32 ~iterations:96 ctx m ~top ~platform)
  in

  let base = Vhls.Synth.synthesize m ~top in
  Fmt.pr "baseline synthesis: %a@.@." Vhls.Synth.pp_report base;
  Fmt.pr "DSE explored %d points in %.2fs; Pareto frontier:@." r.Dse.explored dt;
  Fmt.pr "  %-12s %-6s %-8s %s@." "latency" "DSP" "speedup" "design point";
  List.iter
    (fun p ->
      Fmt.pr "  %-12d %-6d %-8.1f %a@." p.Dse.estimate.Estimator.latency
        p.Dse.estimate.Estimator.usage.Vhls.Platform.u_dsp
        (float_of_int base.Vhls.Synth.latency
        /. float_of_int p.Dse.estimate.Estimator.latency)
        Dse.pp_point p.Dse.point)
    r.Dse.pareto;

  match r.Dse.best with
  | Some best ->
      let opt = Vhls.Synth.synthesize r.Dse.module_ ~top in
      Fmt.pr "@.chosen (min-latency feasible) point: %a@." Dse.pp_point best.Dse.point;
      Fmt.pr "virtual synthesis of the chosen design: %a@." Vhls.Synth.pp_report opt;
      Fmt.pr "speedup vs baseline: %.1fx@."
        (float_of_int base.Vhls.Synth.latency /. float_of_int opt.Vhls.Synth.latency)
  | None -> Fmt.pr "no feasible design point found@."
