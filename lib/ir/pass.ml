(** Passes and a pass manager with per-pass timing and instrumentation (the
    paper collects compile runtimes via MLIR's [-pass-timing]; {!run_timed}
    provides the same statistic, and {!register_instrumentation} mirrors
    MLIR's [PassInstrumentation] hooks). A pass rewrites a whole module op.

    Observability: when {!Obs.Trace} is enabled, every pass run records a
    span carrying its wall time, verifier time, and the IR-delta statistics
    ({!Op_stats}) of the rewrite; {!run_pipeline} records an enclosing
    [pipeline] span. All timing uses the monotonic clock ({!Obs.Clock}) —
    never the wall clock — so reported durations cannot go negative or jump
    under clock steps. *)

type t = { pass_name : string; run : Ir.Ctx.t -> Ir.op -> Ir.op }

let make pass_name run = { pass_name; run }

(** Lift a per-function rewrite into a module pass. *)
let on_funcs pass_name f =
  make pass_name (fun ctx m -> Ir.module_map_funcs (f ctx) m)

type timing = { label : string; seconds : float }

(* ---- Instrumentation hooks ------------------------------------------------ *)

(** Callbacks around every pass run, in the spirit of MLIR's
    [PassInstrumentation]; both receive the pass name, and [after_pass]
    receives the *rewritten* module. Callbacks may run on worker domains
    (the DSE engine runs cleanup pipelines concurrently): implementations
    must be re-entrant. *)
type instrumentation = {
  before_pass : string -> Ir.op -> unit;
  after_pass : string -> Ir.op -> unit;
}

let nop2 _ _ = ()

(** Build an instrumentation from the hooks you care about. *)
let instrumentation ?(before_pass = nop2) ?(after_pass = nop2) () =
  { before_pass; after_pass }

(* Registration order is invocation order. Atomic so registration from one
   domain is immediately coherent for runs on another. *)
let registered : instrumentation list Atomic.t = Atomic.make []

let register_instrumentation i =
  let rec go () =
    let cur = Atomic.get registered in
    if not (Atomic.compare_and_set registered cur (cur @ [ i ])) then go ()
  in
  go ()

let clear_instrumentations () = Atomic.set registered []

(* ---- Running passes ------------------------------------------------------- *)

let verify_timed ~verify m' =
  if not verify then 0.
  else begin
    let t0 = Obs.Clock.now_ns () in
    Verify.verify_exn m';
    Obs.Clock.since_s t0
  end

(* Run [pass] on [m], verifying the result when [verify]: the rewritten
   module, the seconds the pass took and the seconds its verification
   took. *)
let run_measured ~verify pass ctx m =
  let instrs = Atomic.get registered in
  List.iter (fun i -> i.before_pass pass.pass_name m) instrs;
  let run () =
    let t0 = Obs.Clock.now_ns () in
    let m' = pass.run ctx m in
    let pass_s = Obs.Clock.since_s t0 in
    (m', pass_s, verify_timed ~verify m')
  in
  let ((m', _, _) as r) =
    if not (Obs.Trace.enabled ()) then run ()
    else
      Obs.Trace.with_span_args ~cat:"pass" ("pass:" ^ pass.pass_name) (fun () ->
          let before = Op_stats.collect m in
          let ((m', pass_s, verify_s) as r) = run () in
          let after = Op_stats.collect m' in
          let delta = Op_stats.diff ~before ~after in
          ( r,
            [
              ("pass_ms", Obs.Json.Float (pass_s *. 1e3));
              ("verify_ms", Obs.Json.Float (verify_s *. 1e3));
            ]
            @ Op_stats.to_args "" after
            @ Op_stats.to_args "delta_" delta ))
  in
  List.iter (fun i -> i.after_pass pass.pass_name m') instrs;
  r

let run_one ?(verify = false) pass ctx m =
  let m', _, _ = run_measured ~verify pass ctx m in
  m'

(** Run a pipeline of passes in order, without verification, inside one
    [pipeline] trace span. *)
let run_pipeline passes ctx m =
  let body () = List.fold_left (fun m p -> run_one p ctx m) m passes in
  if Obs.Trace.enabled () then Obs.Trace.with_span ~cat:"pipeline" "pipeline" body
  else body ()

(** The label {!run_timed} charges verification to, as MLIR's pass timing
    reports its verifier on a line of its own. *)
let verifier_label = "verifier"

(** Run a pipeline, verifying after every pass and collecting monotonic
    wall-clock timing per pass (the [-pass-timing] statistic). A pass's
    seconds are its own rewrite; each verification is a {!verifier_label}
    entry after it. *)
let run_timed passes ctx m =
  let timings = ref [] in
  let m' =
    List.fold_left
      (fun m p ->
        let m', pass_s, verify_s = run_measured ~verify:true p ctx m in
        timings :=
          { label = verifier_label; seconds = verify_s }
          :: { label = p.pass_name; seconds = pass_s }
          :: !timings;
        m')
      m passes
  in
  (m', List.rev !timings)

(* ---- The timing report ----------------------------------------------------- *)

(** The [-pass-timing] report: repeated pass labels aggregate into one line
    (with a run count), each line shows its share of the total, and a total
    line closes the report. *)
let pp_timings fmt ts =
  let total = List.fold_left (fun acc t -> acc +. t.seconds) 0. ts in
  (* aggregate by label, preserving first-appearance order *)
  let tbl : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun t ->
      match Hashtbl.find_opt tbl t.label with
      | Some (secs, runs) ->
          secs := !secs +. t.seconds;
          incr runs
      | None ->
          Hashtbl.add tbl t.label (ref t.seconds, ref 1);
          order := t.label :: !order)
    ts;
  let pct s = if total > 0. then 100. *. s /. total else 0. in
  Fmt.pf fmt "===- Pass execution timing report -===@\n";
  Fmt.pf fmt "  Total Execution Time: %.4f seconds@\n@\n" total;
  Fmt.pf fmt "  ----Wall Time----  ----Name----@\n";
  List.iter
    (fun label ->
      let secs, runs = Hashtbl.find tbl label in
      Fmt.pf fmt "  %8.4fs (%5.1f%%)  %s%s@\n" !secs (pct !secs) label
        (if !runs > 1 then Printf.sprintf " (%d runs)" !runs else ""))
    (List.rev !order);
  Fmt.pf fmt "  %8.4fs (100.0%%)  Total" total
