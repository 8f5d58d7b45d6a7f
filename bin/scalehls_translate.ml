(* scalehls-translate: the MLIR -> HLS C++ emission back-end driver. Reads
   HLS-C, optionally applies the optimization pipeline, and emits
   synthesizable C++ with HLS pragmas. *)

open Cmdliner
open Mir
open Scalehls

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run input optimize top output trace metrics =
  Obs_flags.with_obs ~trace ~metrics @@ fun () ->
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (read_file input) in
  let m =
    if optimize then begin
      let top =
        match top with
        | Some t -> t
        | None -> (
            match Ir.module_funcs m with
            | f :: _ -> Ir.func_name f
            | [] -> Fmt.epr "no functions in input@."; exit 2)
      in
      let r = Dse.run ctx m ~top ~platform:Vhls.Platform.xc7z020 in
      r.Dse.module_
    end
    else m
  in
  let cpp = Emit.Emit_cpp.emit_module m in
  (match output with
  | Some path ->
      let oc = open_out path in
      output_string oc cpp;
      close_out oc
  | None -> print_string cpp);
  0

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.c" ~doc:"HLS-C input file")

let optimize =
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the DSE engine before emission")

let top =
  Arg.(value & opt (some string) None & info [ "top" ] ~docv:"FUNC" ~doc:"Top function for DSE")

let output =
  Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT.cpp" ~doc:"Output file (default stdout)")

let cmd =
  let doc = "ScaleHLS C++ emitter: HLS-C in, synthesizable HLS C++ out" in
  Cmd.v (Cmd.info "scalehls-translate" ~doc)
    Term.(
      const run $ input $ optimize $ top $ output $ Obs_flags.trace
      $ Obs_flags.metrics)

let () = exit (Cmd.eval' cmd)
