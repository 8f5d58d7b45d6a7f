(** The shared observability CLI surface of every ScaleHLS binary:
    [--trace FILE] (Chrome trace_event JSON for chrome://tracing / Perfetto),
    [--metrics FILE] (metrics as JSON Lines) and [--events FILE] (search
    events as JSON Lines). *)

open Cmdliner

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans (per-pass, per-DSE-point, ...) and write a Chrome \
           trace_event JSON to $(docv) on exit — loadable in chrome://tracing \
           or ui.perfetto.dev.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write all collected metrics (cache hits and misses, stage times, \
           campaign counters, ...) as JSON Lines to $(docv) on exit.")

let events =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Append search-quality timeline events (hypervolume per round, \
           frontier snapshots, surrogate calibration) as JSON Lines to \
           $(docv) while the search runs — the input of \
           $(b,scalehls-report).")

(* The SIGINT/SIGTERM handlers raise {!Obs.Report.Terminated} so termination
   unwinds through every [Fun.protect] finalizer on the stack — in
   particular the exporter in {!Obs.Report.run}, which flushes the
   [--trace] / [--metrics] files. A [Signal_default] handler would kill the
   process between two writes and lose them. *)
let install_termination_handlers () =
  let raising signal =
    Sys.Signal_handle (fun _ -> raise (Obs.Report.Terminated signal))
  in
  List.iter
    (fun signal ->
      (* Non-Unix platforms reject handler installation; termination then
         simply stays abrupt. *)
      try Sys.set_signal signal (raising signal) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(** Wrap a binary's work: enables tracing when requested and flushes the
    trace/metrics files plus a stderr summary on the way out — on normal
    exit, on a crash, and on SIGINT/SIGTERM (conventional 128+N exit code).
    Long-running binaries that want a graceful shutdown instead (the serve
    daemon) override the handlers inside [f]. *)
let with_obs ?(events = None) ~trace ~metrics f =
  install_termination_handlers ();
  try Obs.Report.run ~events ~trace ~metrics f
  with Obs.Report.Terminated signal ->
    let name = if signal = Sys.sigterm then "SIGTERM" else "SIGINT" in
    Fmt.epr "terminated by %s@." name;
    if signal = Sys.sigterm then 143 else 130
