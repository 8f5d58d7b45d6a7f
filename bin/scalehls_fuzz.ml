(* scalehls-fuzz: differential fuzzing of the pass library and QoR models.

   Generates seeded random affine kernels plus valid pass pipelines, checks
   every pipeline stage against the reference interpreter on shared random
   inputs, checks the metamorphic QoR oracles, and (with --reduce) shrinks
   each finding to a minimal reproducer written to --out as a corpus-format
   .repro file.

   The exit code is the number of failing programs (0 = clean campaign), so
   CI can run a fixed-seed smoke campaign directly. *)

open Cmdliner

let run seed iters reduce out dse_every quiet trace metrics =
  Obs_flags.with_obs ~trace ~metrics @@ fun () ->
  let log s = if not quiet then Fmt.pr "%s@." s in
  Fmt.pr "fuzzing: seed %d, %d programs%s@." seed iters
    (if dse_every > 0 then Fmt.str ", DSE oracle every %d" dse_every else "");
  let stats, findings =
    Fuzz.Engine.run ~seed ~iters ~reduce ~dse_every ~log ()
  in
  Fmt.pr "ran %d programs (%d oracle runs) in %.1fs (%.1f programs/s): %d finding%s@."
    stats.Fuzz.Engine.programs stats.Fuzz.Engine.oracle_runs stats.Fuzz.Engine.elapsed
    (float_of_int stats.Fuzz.Engine.programs /. Float.max 1e-9 stats.Fuzz.Engine.elapsed)
    stats.Fuzz.Engine.failures
    (if stats.Fuzz.Engine.failures = 1 then "" else "s");
  if findings <> [] then begin
    (try if not (Sys.file_exists out) then Sys.mkdir out 0o755 with Sys_error _ -> ());
    List.iteri
      (fun i (f : Fuzz.Engine.finding) ->
        Fmt.pr "finding %d (prog seed %d): %a@." i f.Fuzz.Engine.prog_seed
          Fuzz.Oracle.pp_failure f.Fuzz.Engine.failure;
        match f.Fuzz.Engine.reduced with
        | Some c ->
            let name =
              Fmt.str "finding-%s-seed%d"
                (Fuzz.Corpus.oracle_kind_to_string f.Fuzz.Engine.oracle)
                f.Fuzz.Engine.prog_seed
            in
            let entry =
              {
                Fuzz.Corpus.name;
                oracle = f.Fuzz.Engine.oracle;
                seed = f.Fuzz.Engine.prog_seed;
                pipeline = c.Fuzz.Reduce.pipeline;
                note =
                  Fmt.str "%a"
                    Fmt.(option Fuzz.Oracle.pp_failure)
                    f.Fuzz.Engine.reduced_failure;
                gen = Fuzz.Corpus.gen_current;
              }
            in
            let path = Filename.concat out (name ^ ".repro") in
            Fuzz.Corpus.save ~ir:(Mir.Printer.op_to_string c.Fuzz.Reduce.module_) path
              entry;
            Fmt.pr "  reduced reproducer: %s@." path;
            Fmt.pr "  reduced module:@.%s@."
              (Mir.Printer.op_to_string c.Fuzz.Reduce.module_)
        | None -> ())
      findings
  end;
  min stats.Fuzz.Engine.failures 125

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed (program seeds derive from it)")
let iters = Arg.(value & opt int 500 & info [ "iters" ] ~docv:"N" ~doc:"Number of programs to generate and check")
let reduce = Arg.(value & flag & info [ "reduce" ] ~doc:"Delta-debug each finding to a minimal reproducer")
let out = Arg.(value & opt string "fuzz-out" & info [ "out" ] ~docv:"DIR" ~doc:"Directory for reduced .repro files")
let dse_every =
  Arg.(
    value & opt int 0
    & info [ "dse-every" ] ~docv:"K"
        ~doc:"Run the DSE -j determinism oracle every K programs (0 = never; a DSE run is expensive)")
let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-finding progress logs")

let cmd =
  let doc = "Differential fuzzing of ScaleHLS passes and QoR models" in
  Cmd.v (Cmd.info "scalehls-fuzz" ~doc)
    Term.(
      const run $ seed $ iters $ reduce $ out $ dse_every $ quiet
      $ Obs_flags.trace $ Obs_flags.metrics)

let () = exit (Cmd.eval' cmd)
