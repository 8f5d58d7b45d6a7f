(* scalehls-opt: the pass driver (the paper's scalehls-opt command-line
   tool). Reads HLS-C, compiles it through the front-end into the scf level,
   then applies the requested passes and prints the resulting IR. *)

open Cmdliner
open Mir
open Scalehls

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run input passes no_raise timing op_stats trace metrics =
  Obs_flags.with_obs ~trace ~metrics @@ fun () ->
  let ctx = Ir.Ctx.create () in
  let src = read_file input in
  let m = Frontend.Codegen.compile_source ctx src in
  let pipeline =
    (if no_raise then [] else [ Frontend.Raise_affine.pass ])
    @ List.map
        (fun name ->
          match Transform_lib.find_pass name with
          | Some p -> p
          | None ->
              Fmt.epr "unknown pass: %s@.known passes:@.%a@." name
                Fmt.(list ~sep:(any "@.") string)
                (List.map
                   (fun (r : Transform_lib.row) -> r.pass.Pass.pass_name)
                   Transform_lib.all_passes);
              exit 2)
        passes
  in
  let m, timings = Pass.run_timed pipeline ctx m in
  Printer.print m;
  if timing then Fmt.pr "@.%a@." Pass.pp_timings timings;
  if op_stats then Fmt.pr "@.%a@." Op_stats.pp (Op_stats.collect m);
  0

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.c" ~doc:"HLS-C input file")

let passes =
  Arg.(
    value & opt_all string []
    & info [ "p"; "pass" ] ~docv:"PASS"
        ~doc:"Pass to run (repeatable), e.g. -p affine-loop-perfectization")

let no_raise =
  Arg.(value & flag & info [ "no-raise" ] ~doc:"Stay at the scf level (skip -raise-scf-to-affine)")

let timing =
  Arg.(value & flag & info [ "pass-timing" ] ~doc:"Print the pass timing report")

let op_stats =
  Arg.(
    value & flag
    & info [ "print-op-stats" ]
        ~doc:"Print op/block/region statistics of the final IR, by op name")

let cmd =
  let doc = "ScaleHLS pass driver: HLS-C in, transformed IR out" in
  Cmd.v (Cmd.info "scalehls-opt" ~doc)
    Term.(
      const run $ input $ passes $ no_raise $ timing $ op_stats
      $ Obs_flags.trace $ Obs_flags.metrics)

let () = exit (Cmd.eval' cmd)
