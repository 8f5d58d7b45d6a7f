(** The shared exporter entry point for the command-line tools. Every binary
    wraps its work in {!run}: when a trace or metrics destination is
    requested ([--trace] / [--metrics]), tracing is switched on for the
    duration and the Chrome trace JSON, the metrics JSONL, and a
    human-readable summary on stderr are written on the way out — including
    when the wrapped work raises, so a crashing run still leaves its trace
    behind. *)

(** Raised (by the binaries' SIGINT/SIGTERM handlers) to unwind through
    {!run}'s finalizer so the trace/metrics files flush on termination.
    Catch-all recovery sites — fuzz oracles recording crashes as findings,
    batch drivers tolerating per-item failures — must re-raise it: a
    swallowed [Terminated] turns Ctrl-C into an ignored finding and the
    process keeps running. *)
exception Terminated of int

(** [run ~trace ~metrics f] — [trace]/[metrics]/[events] are the
    [--trace FILE] / [--metrics FILE] / [--events FILE] values ([None]: not
    requested). Tracing is enabled only when a trace destination exists;
    the event log opens (append) up front so events stream as the run
    progresses; metrics instruments are always live and are simply exported
    (or not) at the end. *)
let run ?(events = None) ~trace ~metrics f =
  if Option.is_some trace then begin
    Trace.reset ();
    Trace.enable ()
  end;
  Option.iter Events.configure events;
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Option.iter (fun _ -> Events.close ()) events;
      Option.iter
        (fun path ->
          Trace.write_chrome path;
          Fmt.epr "trace: wrote %s (load in chrome://tracing or ui.perfetto.dev)@."
            path)
        trace;
      Option.iter
        (fun path ->
          Metrics.write_jsonl path;
          Fmt.epr "metrics: wrote %s@." path)
        metrics;
      Option.iter (fun path -> Fmt.epr "events: wrote %s@." path) events;
      if trace <> None || metrics <> None then
        Fmt.epr "===- Metrics summary -===@\n%a@." Metrics.pp_summary ())
    f
