(** Offline analysis of observability artifacts — the library behind
    [scalehls-report]. Reads the three file kinds the toolchain produces
    ([--events] JSONL, [--trace] Chrome JSON, [--metrics] JSONL), reconstructs
    per-job search-quality timelines (hypervolume over evaluations, frontier
    size, surrogate calibration), rolls up pass timings, and renders text, a
    self-contained HTML page, or a machine-readable summary.

    Hypervolume is recomputed from the frontier snapshots recorded in
    [dse.round] events with {!Hv.log_hv2}, the repository's one
    hypervolume — 2-D dominated area in (log1p latency) × (linear area)
    space w.r.t. a reference corner — so given the same reference point the
    final HV here equals that of the engine's final frontier. *)

(* ---- Event-log parsing ------------------------------------------------------ *)

type calibration = {
  cal_ts : float;
  cal_n : int;  (** exact observations behind the quantiles *)
  cal_objectives : (string * (float * float * float)) list;
      (** objective -> (p50, p90, max) absolute log-error *)
}

type round = {
  rd_ts : float;
  rd_explored : int;
  rd_frontier : (int * int) list;  (** (latency, area), latency-increasing *)
  rd_hv : float;  (** filled in by {!jobs_of_events} once refs are known *)
}

type job_timeline = {
  jt_job : string;
  jt_top : string;
  jt_strategy : string;
  jt_start_ts : float;
  jt_end_ts : float option;
  jt_wall_s : float option;
  jt_explored : int;
  jt_dsp_budget : int option;
  jt_rounds : round list;  (** chronological *)
  jt_calibrations : calibration list;  (** chronological *)
  jt_counters : (string * int) list;  (** final strategy counters *)
  jt_best_latency : int option;
  jt_ref_latency : int;
  jt_ref_area : int;
}

let str ?(default = "") k j =
  match Json.member k j with Some (Json.String s) -> s | _ -> default

let int_f k j =
  match Option.bind (Json.member k j) Json.to_float_opt with
  | Some f -> int_of_float f
  | None -> 0

let float_f ?(default = 0.) k j =
  match Option.bind (Json.member k j) Json.to_float_opt with
  | Some f -> f
  | None -> default

(** Parse a JSONL file of events. [Error] reports the first malformed line
    (1-based) — callers treat any parse error as fatal. *)
let parse_jsonl path : (Json.t list, string) result =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
            match Json.of_string line with
            | Ok j -> go (lineno + 1) (j :: acc)
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go 1 [])

let frontier_of j =
  match Json.member "frontier" j with
  | Some (Json.List pts) ->
      List.map (fun p -> (int_f "l" p, int_f "a" p)) pts
  | _ -> []

let calibration_of j =
  {
    cal_ts = float_f "ts_s" j;
    cal_n = int_f "n" j;
    cal_objectives =
      (match Json.member "objectives" j with
      | Some (Json.Obj kvs) ->
          List.map
            (fun (k, v) -> (k, (float_f "p50" v, float_f "p90" v, float_f "max" v)))
            kvs
      | _ -> []);
  }

let counters_of j =
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
      List.map (fun (k, v) -> (k, match Json.to_float_opt v with Some f -> int_of_float f | None -> 0)) kvs
  | _ -> []

(** Group the event stream into per-job timelines, in order of first
    appearance, and price every round's frontier with the reference point:
    [ref_latency]/[ref_area] when given (a fixed corner makes jobs and runs
    comparable), otherwise per job 2× the worst frontier latency and the
    platform DSP budget from the [dse.job.start] event. *)
let jobs_of_events ?ref_latency ?ref_area events : job_timeline list =
  let order = ref [] in
  let tbl : (string, Json.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match Json.member "ev" j with
      | Some (Json.String ev) when String.length ev >= 4 && String.sub ev 0 4 = "dse." ->
          let job = str "job" j ~default:"?" in
          if not (Hashtbl.mem tbl job) then order := job :: !order;
          Hashtbl.replace tbl job (j :: Option.value ~default:[] (Hashtbl.find_opt tbl job))
      | _ -> ())
    events;
  List.rev_map
    (fun job ->
      let evs = List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl job)) in
      let ev_name j = str "ev" j in
      let start = List.find_opt (fun j -> ev_name j = "dse.job.start") evs in
      let end_ = List.find_opt (fun j -> ev_name j = "dse.job.end") evs in
      let rounds0 =
        List.filter_map
          (fun j ->
            if ev_name j = "dse.round" then
              Some
                {
                  rd_ts = float_f "ts_s" j;
                  rd_explored = int_f "explored" j;
                  rd_frontier = frontier_of j;
                  rd_hv = 0.;
                }
            else None)
          evs
      in
      let dsp_budget =
        Option.map (fun s -> int_f "dsp_budget" s) start
      in
      let ref_area =
        match ref_area with
        | Some a -> a
        | None -> ( match dsp_budget with Some a when a > 0 -> a | _ -> 1)
      in
      let ref_latency =
        match ref_latency with
        | Some l -> l
        | None ->
            let worst =
              List.fold_left
                (fun acc r ->
                  List.fold_left (fun acc (l, _) -> max acc l) acc r.rd_frontier)
                1 rounds0
            in
            2 * worst
      in
      let rounds =
        List.map
          (fun r -> { r with rd_hv = Hv.log_hv2 ~ref_latency ~ref_area r.rd_frontier })
          rounds0
      in
      {
        jt_job = job;
        jt_top = (match start with Some s -> str "top" s | None -> "");
        jt_strategy =
          (match start with
          | Some s -> str "strategy" s
          | None -> ( match end_ with Some e -> str "strategy" e | None -> ""));
        jt_start_ts = (match start with Some s -> float_f "ts_s" s | None -> 0.);
        jt_end_ts = Option.map (fun e -> float_f "ts_s" e) end_;
        jt_wall_s = Option.map (fun e -> float_f "wall_s" e) end_;
        jt_explored =
          (match end_ with
          | Some e -> int_f "explored" e
          | None -> ( match rounds with [] -> 0 | _ -> (List.hd (List.rev rounds)).rd_explored));
        jt_dsp_budget = dsp_budget;
        jt_rounds = rounds;
        jt_calibrations =
          List.filter_map
            (fun j -> if ev_name j = "dse.calibration" then Some (calibration_of j) else None)
            evs;
        jt_counters = (match end_ with Some e -> counters_of e | None -> []);
        jt_best_latency =
          Option.bind end_ (fun e ->
              match Json.member "best_latency" e with
              | Some (Json.Int l) -> Some l
              | _ -> None);
        jt_ref_latency = ref_latency;
        jt_ref_area = ref_area;
      })
    !order

let final_hv jt = match List.rev jt.jt_rounds with [] -> 0. | r :: _ -> r.rd_hv

(* ---- Trace rollup ------------------------------------------------------------ *)

type span_stat = { sp_name : string; sp_count : int; sp_total_s : float }

(** Parse a Chrome trace file and aggregate its complete ("X") spans by
    name: (count, total seconds), sorted by total descending. *)
let parse_trace path : (Json.t, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in_noerr ic;
      Json.of_string s

let span_rollup trace : span_stat list =
  let events =
    match Json.member "traceEvents" trace with Some (Json.List l) -> l | _ -> []
  in
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let is_x = match Json.member "ph" e with Some (Json.String "X") -> true | _ -> false in
      if is_x then begin
        let name = str "name" e in
        let dur_s = float_f "dur" e /. 1e6 in
        let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl name) in
        Hashtbl.replace tbl name (c + 1, t +. dur_s)
      end)
    events;
  Hashtbl.fold (fun name (c, t) acc -> { sp_name = name; sp_count = c; sp_total_s = t } :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.sp_total_s a.sp_total_s with
         | 0 -> compare a.sp_name b.sp_name
         | c -> c)

(* ---- Rendering ---------------------------------------------------------------- *)

let pp_job fmt jt =
  Fmt.pf fmt "job %s (%s, %s): %d evals, %d rounds, frontier %d, final HV %.3f (ref latency=%d area=%d)@\n"
    jt.jt_job
    (if jt.jt_top = "" then "?" else jt.jt_top)
    (if jt.jt_strategy = "" then "?" else jt.jt_strategy)
    jt.jt_explored (List.length jt.jt_rounds)
    (match List.rev jt.jt_rounds with [] -> 0 | r :: _ -> List.length r.rd_frontier)
    (final_hv jt) jt.jt_ref_latency jt.jt_ref_area;
  (match jt.jt_wall_s with
  | Some w -> Fmt.pf fmt "  wall %.2fs" w
  | None -> Fmt.pf fmt "  (no job.end event — still running or truncated log)");
  (match jt.jt_best_latency with
  | Some l -> Fmt.pf fmt ", best latency %d@\n" l
  | None -> Fmt.pf fmt "@\n");
  if jt.jt_counters <> [] then
    Fmt.pf fmt "  strategy counters: %s@\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) jt.jt_counters));
  Fmt.pf fmt "  HV over evals:";
  List.iter (fun r -> Fmt.pf fmt " %d:%.3f" r.rd_explored r.rd_hv) jt.jt_rounds;
  Fmt.pf fmt "@\n";
  match List.rev jt.jt_calibrations with
  | [] -> ()
  | last :: _ ->
      Fmt.pf fmt "  calibration (n=%d, abs log-error):" last.cal_n;
      List.iter
        (fun (obj, (p50, p90, mx)) ->
          Fmt.pf fmt " %s p50=%.3f p90=%.3f max=%.3f |" obj p50 p90 mx)
        last.cal_objectives;
      Fmt.pf fmt "@\n"

let pp_rollup fmt stats =
  let top = List.filteri (fun i _ -> i < 20) stats in
  Fmt.pf fmt "%-40s %8s %10s@\n" "span" "count" "total s";
  List.iter
    (fun s -> Fmt.pf fmt "%-40s %8d %10.3f@\n" s.sp_name s.sp_count s.sp_total_s)
    top

(* ---- Machine-readable summary -------------------------------------------------- *)

let job_to_json jt =
  Json.Obj
    [
      ("job", Json.String jt.jt_job);
      ("top", Json.String jt.jt_top);
      ("strategy", Json.String jt.jt_strategy);
      ("explored", Json.Int jt.jt_explored);
      ("rounds", Json.Int (List.length jt.jt_rounds));
      ( "frontier_size",
        Json.Int
          (match List.rev jt.jt_rounds with
          | [] -> 0
          | r :: _ -> List.length r.rd_frontier) );
      ("final_hv", Json.Float (final_hv jt));
      ("ref_latency", Json.Int jt.jt_ref_latency);
      ("ref_area", Json.Int jt.jt_ref_area);
      ("wall_s", match jt.jt_wall_s with Some w -> Json.Float w | None -> Json.Null);
      ( "best_latency",
        match jt.jt_best_latency with Some l -> Json.Int l | None -> Json.Null );
      ( "hv_curve",
        Json.List
          (List.map
             (fun r -> Json.List [ Json.Int r.rd_explored; Json.Float r.rd_hv ])
             jt.jt_rounds) );
      ( "calibration",
        match List.rev jt.jt_calibrations with
        | [] -> Json.Null
        | last :: _ ->
            Json.Obj
              (("n", Json.Int last.cal_n)
              :: List.map
                   (fun (obj, (p50, p90, mx)) ->
                     ( obj,
                       Json.Obj
                         [
                           ("p50", Json.Float p50);
                           ("p90", Json.Float p90);
                           ("max", Json.Float mx);
                         ] ))
                   last.cal_objectives) );
    ]

let summary_json ~jobs ~rollup =
  Json.Obj
    [
      ("jobs", Json.List (List.map job_to_json jobs));
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.sp_name);
                   ("count", Json.Int s.sp_count);
                   ("total_s", Json.Float s.sp_total_s);
                 ])
             rollup) );
    ]

(* ---- Self-contained HTML ------------------------------------------------------- *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One inline-SVG line chart of HV vs explored for all jobs (shared axes). *)
let hv_chart_svg jobs =
  let w = 640. and h = 280. and pad = 45. in
  let all_pts =
    List.concat_map (fun jt -> List.map (fun r -> (r.rd_explored, r.rd_hv)) jt.jt_rounds) jobs
  in
  if all_pts = [] then "<p>no rounds recorded</p>"
  else begin
    let max_x = List.fold_left (fun a (x, _) -> max a x) 1 all_pts in
    let max_y = List.fold_left (fun a (_, y) -> Float.max a y) 1e-9 all_pts in
    let sx x = pad +. (float_of_int x /. float_of_int max_x *. (w -. (2. *. pad))) in
    let sy y = h -. pad -. (y /. max_y *. (h -. (2. *. pad))) in
    let colors = [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b" |] in
    let b = Buffer.create 2048 in
    Buffer.add_string b
      (Printf.sprintf
         "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" role=\"img\">\n" w h w h);
    Buffer.add_string b
      (Printf.sprintf
         "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#999\"/>\n"
         pad (h -. pad) (w -. pad) (h -. pad));
    Buffer.add_string b
      (Printf.sprintf
         "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#999\"/>\n"
         pad pad pad (h -. pad));
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" text-anchor=\"middle\">exact evaluations</text>\n"
         (w /. 2.) (h -. 8.));
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"12\" y=\"%.1f\" font-size=\"11\" transform=\"rotate(-90 12 %.1f)\" text-anchor=\"middle\">hypervolume</text>\n"
         (h /. 2.) (h /. 2.));
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"middle\">%d</text>\n"
         (w -. pad) (h -. pad +. 14.) max_x);
    Buffer.add_string b
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"end\">%.2f</text>\n"
         (pad -. 4.) (pad +. 4.) max_y);
    List.iteri
      (fun i jt ->
        let color = colors.(i mod Array.length colors) in
        let pts =
          String.concat " "
            (List.map
               (fun r -> Printf.sprintf "%.1f,%.1f" (sx r.rd_explored) (sy r.rd_hv))
               jt.jt_rounds)
        in
        Buffer.add_string b
          (Printf.sprintf
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.8\"/>\n"
             pts color);
        Buffer.add_string b
          (Printf.sprintf
             "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" fill=\"%s\">job %s (%s)</text>\n"
             (w -. pad +. 4.)
             (pad +. (14. *. float_of_int i))
             color (html_escape jt.jt_job) (html_escape jt.jt_strategy)))
      jobs;
    Buffer.add_string b "</svg>";
    Buffer.contents b
  end

let render_html ~jobs ~rollup ~metrics_rows =
  let b = Buffer.create 8192 in
  let add = Buffer.add_string b in
  add
    "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>scalehls-report</title>\n\
     <style>\n\
     body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:64em;color:#222}\n\
     h1{font-size:1.4em} h2{font-size:1.1em;margin-top:2em;border-bottom:1px solid #ddd}\n\
     table{border-collapse:collapse;margin:0.8em 0} td,th{border:1px solid #ccc;padding:3px 9px;text-align:right}\n\
     th{background:#f4f4f4} td:first-child,th:first-child{text-align:left}\n\
     </style></head><body>\n<h1>scalehls-report</h1>\n";
  if jobs <> [] then begin
    add "<h2>Search-quality timelines</h2>\n";
    add (hv_chart_svg jobs);
    add
      "<table><tr><th>job</th><th>top</th><th>strategy</th><th>evals</th><th>rounds</th>\
       <th>frontier</th><th>final HV</th><th>wall s</th><th>best latency</th></tr>\n";
    List.iter
      (fun jt ->
        add
          (Printf.sprintf
             "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td>\
              <td>%.3f</td><td>%s</td><td>%s</td></tr>\n"
             (html_escape jt.jt_job) (html_escape jt.jt_top)
             (html_escape jt.jt_strategy) jt.jt_explored
             (List.length jt.jt_rounds)
             (match List.rev jt.jt_rounds with
             | [] -> 0
             | r :: _ -> List.length r.rd_frontier)
             (final_hv jt)
             (match jt.jt_wall_s with Some w -> Printf.sprintf "%.2f" w | None -> "—")
             (match jt.jt_best_latency with Some l -> string_of_int l | None -> "—")))
      jobs;
    add "</table>\n";
    let with_cal = List.filter (fun jt -> jt.jt_calibrations <> []) jobs in
    if with_cal <> [] then begin
      add "<h2>Surrogate calibration (absolute log-error of predictions)</h2>\n";
      add "<table><tr><th>job</th><th>n</th><th>objective</th><th>p50</th><th>p90</th><th>max</th></tr>\n";
      List.iter
        (fun jt ->
          match List.rev jt.jt_calibrations with
          | [] -> ()
          | last :: _ ->
              List.iter
                (fun (obj, (p50, p90, mx)) ->
                  add
                    (Printf.sprintf
                       "<tr><td>%s</td><td>%d</td><td>%s</td><td>%.3f</td><td>%.3f</td><td>%.3f</td></tr>\n"
                       (html_escape jt.jt_job) last.cal_n (html_escape obj) p50 p90 mx))
                last.cal_objectives)
        with_cal;
      add "</table>\n"
    end
  end;
  if rollup <> [] then begin
    add "<h2>Pass-timing rollup (from trace)</h2>\n";
    add "<table><tr><th>span</th><th>count</th><th>total s</th><th>mean ms</th></tr>\n";
    List.iter
      (fun s ->
        add
          (Printf.sprintf
             "<tr><td>%s</td><td>%d</td><td>%.3f</td><td>%.3f</td></tr>\n"
             (html_escape s.sp_name) s.sp_count s.sp_total_s
             (s.sp_total_s /. float_of_int (max 1 s.sp_count) *. 1e3)))
      (List.filteri (fun i _ -> i < 30) rollup);
    add "</table>\n"
  end;
  (match metrics_rows with
  | [] -> ()
  | rows ->
      add "<h2>Metrics</h2>\n";
      add "<table><tr><th>registry</th><th>metric</th><th>type</th><th>value</th></tr>\n";
      List.iter
        (fun r ->
          let v =
            match Json.member "type" r with
            | Some (Json.String "histogram") ->
                Printf.sprintf "count=%d mean=%.4g p99=%.4g" (int_f "count" r)
                  (float_f "mean" r) (float_f "p99" r)
            | _ -> Printf.sprintf "%.6g" (float_f "value" r)
          in
          add
            (Printf.sprintf
               "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
               (html_escape (str "registry" r))
               (html_escape (str "metric" r))
               (html_escape (str "type" r))
               (html_escape v)))
        rows;
      add "</table>\n");
  add "</body></html>\n";
  Buffer.contents b
