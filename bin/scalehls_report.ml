(* scalehls-report: offline analyzer for the observability artifacts the
   other binaries produce. Reads any combination of an --events JSONL
   timeline, a --trace Chrome JSON, and a --metrics JSONL, and renders
   per-job search-quality timelines (hypervolume over evaluations, frontier
   size, surrogate calibration), a pass-timing rollup, and the final
   metrics — as text, a self-contained HTML page, or a JSON summary for CI
   assertions. Any parse error is fatal (exit 1): a report that silently
   skips a corrupt artifact would hide exactly the failures it exists to
   surface. *)

open Cmdliner
module Json = Obs.Json
module Analyze = Obs.Analyze

let fail fmt = Fmt.kstr (fun msg -> Fmt.epr "scalehls-report: %s@." msg; exit 1) fmt

let load_events path ref_latency ref_area =
  match Analyze.parse_jsonl path with
  | Error msg -> fail "events: %s" msg
  | Ok rows -> Analyze.jobs_of_events ?ref_latency ?ref_area rows

let load_trace path =
  match Analyze.parse_trace path with
  | Error msg -> fail "trace: %s" msg
  | Ok t -> t

let load_metrics path =
  match Analyze.parse_jsonl path with Error msg -> fail "metrics: %s" msg | Ok rows -> rows

let run events trace metrics html summary_json ref_latency ref_area =
  if events = None && trace = None && metrics = None then
    fail "nothing to report on: pass --events, --trace and/or --metrics";
  let jobs =
    match events with
    | Some p -> load_events p ref_latency ref_area
    | None -> []
  in
  let rollup =
    match trace with Some p -> Analyze.span_rollup (load_trace p) | None -> []
  in
  let metrics_rows = match metrics with Some p -> load_metrics p | None -> [] in
  (match summary_json with
  | Some path ->
      Obs.Metrics.write_atomic path (fun oc ->
          output_string oc (Json.to_string (Analyze.summary_json ~jobs ~rollup));
          output_char oc '\n')
  | None -> ());
  (match html with
  | Some path ->
      Obs.Metrics.write_atomic path (fun oc ->
          output_string oc (Analyze.render_html ~jobs ~rollup ~metrics_rows));
      Fmt.epr "report: wrote %s@." path
  | None -> ());
  (* The text report, on stdout. *)
  if jobs <> [] then begin
    Fmt.pr "=== Search-quality timelines ===@.";
    List.iter (fun jt -> Fmt.pr "%a" Analyze.pp_job jt) jobs
  end;
  if rollup <> [] then begin
    Fmt.pr "@.=== Pass-timing rollup (top spans by total time) ===@.";
    Fmt.pr "%a" Analyze.pp_rollup rollup
  end;
  if metrics_rows <> [] then
    Fmt.pr "@.=== Metrics: %d series ===@." (List.length metrics_rows);
  0

let events =
  Arg.(
    value
    & opt (some file) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:"Search-quality event log (JSONL) written by --events.")

let trace =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Chrome trace_event JSON written by --trace.")

let metrics =
  Arg.(
    value
    & opt (some file) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Metrics JSONL written by --metrics.")

let html =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"OUT"
        ~doc:
          "Write a self-contained HTML report (inline-SVG hypervolume \
           curves, calibration and pass-timing tables) to $(docv).")

let summary_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary-json" ] ~docv:"OUT"
        ~doc:
          "Write the machine-readable summary (per-job final hypervolume, \
           curves, span rollup) to $(docv) — for CI assertions via jq.")

let ref_latency =
  Arg.(
    value
    & opt (some int) None
    & info [ "ref-latency" ] ~docv:"CYCLES"
        ~doc:
          "Hypervolume reference latency. Pass a fixed corner (for \
           example 2x the unoptimized design's latency) to make final HV \
           comparable across jobs and runs, and equal to the engine's \
           frontier hypervolume at that corner; the default is 2x the \
           worst frontier latency seen per job.")

let ref_area =
  Arg.(
    value
    & opt (some int) None
    & info [ "ref-area" ] ~docv:"DSP"
        ~doc:
          "Hypervolume reference area (DSPs). Defaults to the platform DSP \
           budget recorded in each job's start event.")

let cmd =
  let doc = "analyze ScaleHLS observability artifacts into a search-health report" in
  Cmd.v (Cmd.info "scalehls-report" ~doc)
    Term.(
      const run $ events $ trace $ metrics $ html $ summary_json $ ref_latency
      $ ref_area)

let () = exit (Cmd.eval' cmd)
