(* scalehls-dse: the automated DSE driver (the -multiple-level-dse flow).
   Reads HLS-C (or a named PolyBench kernel), explores the design space under
   the platform constraints, and reports the Pareto frontier plus the chosen
   design point — the per-kernel machinery behind Table 3. *)

open Cmdliner
open Mir
open Scalehls

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let platform_of_name = function
  | "xc7z020" -> Vhls.Platform.xc7z020
  | "vu9p" | "vu9p-slr" -> Vhls.Platform.vu9p_slr
  | p ->
      Fmt.epr "unknown platform %s (xc7z020 | vu9p-slr)@." p;
      exit 2

(* The --remote client: ship the search to a running scalehls-serve daemon
   and render its streamed responses. Config fields mirror the local flags,
   so the daemon's answer (warm cache or not) is bit-identical to the
   in-process run — including the Pareto-frontier block below, printed by
   the same code path on the decoded points. *)
let print_remote_result j =
  let module Json = Obs.Json in
  let int k = match Json.member k j with Some (Json.Int i) -> i | _ -> 0 in
  let wall_s =
    match Json.member "wall_s" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  Fmt.pr "explored %d design points in %.2fs (server wall time)@."
    (int "explored") wall_s;
  (match Json.member "stats" j with
  | Some s ->
      let stat k = match Json.member k s with Some (Json.Int i) -> i | _ -> 0 in
      Fmt.pr "remote caches: eval %d/%d hits, estimator memo %d/%d hits@."
        (stat "cache_hits")
        (stat "cache_hits" + stat "cache_misses")
        (stat "est_memo_hits")
        (stat "est_memo_hits" + stat "est_memo_misses")
  | None -> ());
  (match Json.member "best" j with
  | Some Json.Null | None -> Fmt.pr "no feasible design point found@."
  | Some b ->
      let b = Serve.Codec.evaluated_of_json b in
      Fmt.pr "best point: %a@." Dse.pp_point b.Dse.point;
      Fmt.pr "estimate  : %a@." Estimator.pp_estimate b.Dse.estimate);
  let pareto =
    match Json.member "pareto" j with
    | Some (Json.List l) -> List.map Serve.Codec.evaluated_of_json l
    | _ -> []
  in
  Fmt.pr "@.Pareto frontier (latency-increasing):@.";
  List.iter
    (fun p ->
      Fmt.pr "  latency=%-10d dsp=%-5d %a@." p.Dse.estimate.Estimator.latency
        p.Dse.estimate.Estimator.usage.Vhls.Platform.u_dsp Dse.pp_point
        p.Dse.point)
    pareto;
  0

let run_remote socket input kernel size top platform samples iterations seed
    symbolic strategy window =
  let module Json = Obs.Json in
  (* After the result, if this client is tracing, pull the daemon's spans for
     our job and merge them into the local trace file (under their own pid),
     so one Chrome trace shows both halves of the remote search. *)
  let job_id = ref None in
  let design =
    match (input, kernel) with
    | Some path, _ ->
        let top =
          match top with
          | Some t -> t
          | None -> Filename.remove_extension (Filename.basename path)
        in
        Serve.Protocol.C_source { src = read_file path; top }
    | None, Some k -> Serve.Protocol.Kernel { kernel = k; size }
    | None, None ->
        Fmt.epr "provide an input file or --kernel NAME@.";
        exit 2
  in
  let config =
    {
      Serve.Protocol.samples;
      iterations;
      seed;
      symbolic;
      platform;
      strategy;
      window;
    }
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     Fmt.epr "cannot connect to %s: %s@." socket (Unix.error_message e);
     exit 1);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc
    (Json.to_string (Serve.Protocol.search_request ~design ~config));
  output_char oc '\n';
  flush oc;
  let fetch_remote_trace () =
    match !job_id with
    | Some jid when Obs.Trace.enabled () -> (
        output_string oc
          (Json.to_string (Serve.Protocol.trace_request ~job:jid));
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | exception (End_of_file | Sys_error _) ->
            Fmt.epr "remote: connection closed before the trace arrived@."
        | line -> (
            match Json.of_string line with
            | Error msg -> Fmt.epr "remote: undecodable trace: %s@." msg
            | Ok j -> (
                match (Json.member "enabled" j, Json.member "events" j) with
                | Some (Json.Bool false), _ ->
                    Fmt.epr
                      "remote: daemon runs without --trace, no spans to merge@."
                | _, Some (Json.List events) ->
                    Obs.Trace.add_external events;
                    Fmt.epr "remote: merged %d daemon spans for job %d@."
                      (List.length events) jid
                | _ -> ())))
    | _ -> ()
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) ->
        Fmt.epr "connection closed before a result@.";
        1
    | line -> (
        match Json.of_string line with
        | Error msg ->
            Fmt.epr "undecodable response: %s@." msg;
            1
        | Ok j -> (
            match Json.member "resp" j with
            | Some (Json.String "ack") ->
                (match Json.member "job" j with
                | Some (Json.Int id) -> job_id := Some id
                | _ -> ());
                loop ()
            | Some (Json.String "frontier") ->
                (match (Json.member "explored" j, Json.member "points" j) with
                | Some (Json.Int explored), Some (Json.List points) ->
                    Fmt.epr "remote: %d points explored, frontier size %d@."
                      explored (List.length points)
                | _ -> ());
                loop ()
            | Some (Json.String "error") ->
                let msg =
                  match Json.member "message" j with
                  | Some (Json.String m) -> m
                  | _ -> "unknown error"
                in
                Fmt.epr "remote error: %s@." msg;
                1
            | Some (Json.String "result") ->
                let rc = print_remote_result j in
                fetch_remote_trace ();
                rc
            | _ -> loop ()))
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) loop

let run input kernel size top platform samples iterations seed jobs symbolic
    strategy window profile emit remote trace metrics events =
  Obs_flags.with_obs ~events ~trace ~metrics @@ fun () ->
  match remote with
  | Some socket ->
      run_remote socket input kernel size top platform samples iterations seed
        symbolic strategy window
  | None ->
  let ctx = Ir.Ctx.create () in
  let src, top =
    match (input, kernel) with
    | Some path, _ ->
        let top =
          match top with
          | Some t -> t
          | None -> Filename.remove_extension (Filename.basename path)
        in
        (read_file path, top)
    | None, Some k ->
        let k = Models.Polybench.of_name k in
        (Models.Polybench.source k ~n:size, Models.Polybench.name k)
    | None, None ->
        Fmt.epr "provide an input file or --kernel NAME@.";
        exit 2
  in
  let platform = platform_of_name platform in
  let strategy_impl =
    match Qor_ml.strategy_of_name strategy with
    | Some s -> s
    | None ->
        Fmt.epr "unknown strategy %s (%s)@." strategy
          (String.concat " | " Qor_ml.strategy_names);
        exit 2
  in
  let m = Pipeline.compile_c ctx src in
  let r, dt =
    try
      Obs.Clock.time_s (fun () ->
          Dse.run ~samples ~iterations ~seed ~jobs ~symbolic ~window
            ~strategy:strategy_impl ctx m ~top ~platform)
    with Invalid_argument msg ->
      (* [Dse.run] rejects out-of-range knobs before doing any work. *)
      Fmt.epr "scalehls-dse: %s@." msg;
      exit 2
  in
  Fmt.pr "explored %d design points in %.2fs (%.1f points/s, %d worker%s)@."
    r.Dse.explored dt
    (float_of_int r.Dse.explored /. Float.max 1e-9 dt)
    r.Dse.stats.Dse.jobs
    (if r.Dse.stats.Dse.jobs = 1 then "" else "s");
  if profile then begin
    let s = r.Dse.stats in
    (* The cache/evaluation/stage numbers come from the "dse" metrics
       registry — the same series `--metrics` exports and the serve daemon
       scrapes — so the profile can never drift from the exported telemetry.
       For this single-run process the registry totals equal the run's
       stats; strategy counters and fallback reasons keep the per-run stats
       (their registry names are strategy-qualified). *)
    let reg = Obs.Metrics.registry "dse" in
    let c name = int_of_float (Obs.Metrics.value (Obs.Metrics.counter reg name)) in
    Fmt.pr "strategy   : %s (%s)@." s.Dse.strategy
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s %d" k v)
            s.Dse.strategy_counters));
    let est_hits = c "est_memo.hits" and est_misses = c "est_memo.misses" in
    Fmt.pr "evaluation : %d symbolic, %d fallback, %d estimator-memo hit%s@."
      (c "points.symbolic") (c "points.fallback") est_hits
      (if est_hits = 1 then "" else "s");
    List.iter
      (fun (reason, n) -> Fmt.pr "  fallback because %s: %d@." reason n)
      s.Dse.fallback_reasons;
    Fmt.pr "caches     : eval %d/%d hits (%.0f%%), pre %d/%d@."
      (c "eval_cache.hits")
      (c "eval_cache.hits" + c "eval_cache.misses")
      (100. *. Dse.hit_rate (c "eval_cache.hits") (c "eval_cache.misses"))
      (c "pre_cache.hits")
      (c "pre_cache.hits" + c "pre_cache.misses");
    (* Memo granularity: the transform memo works per (perm, tiles) module
       (target-II ladder siblings share one), the estimator memo per
       pipelined band. *)
    Fmt.pr "transforms : %d shared / %d built (%.0f%% of points reused a sibling's module)@."
      (c "tf_memo.hits") (c "tf_memo.misses")
      (100. *. Dse.hit_rate (c "tf_memo.hits") (c "tf_memo.misses"));
    let evaluated = max 1 (c "eval_cache.misses") in
    Fmt.pr
      "bands      : %d reused / %d re-scheduled (%.0f%% band hit rate, %.1f bands re-scheduled per point)@."
      est_hits est_misses
      (100. *. Dse.hit_rate est_hits est_misses)
      (float_of_int est_misses /. float_of_int evaluated);
    Fmt.pr "workers    : %a@."
      Fmt.(
        list ~sep:comma (fun fmt (i, f) -> pf fmt "#%d %.0f%% busy" i (100. *. f)))
      s.Dse.worker_busy;
    let eval_h = Obs.Metrics.histogram reg "evaluate_seconds" in
    if Obs.Metrics.histogram_count eval_h > 0 then
      Fmt.pr "evaluate   : p50 %.4fs, p99 %.4fs per point@."
        (Obs.Metrics.quantile eval_h 0.5)
        (Obs.Metrics.quantile eval_h 0.99);
    Fmt.pr "per stage  :@.";
    List.iter
      (fun (stage, _) ->
        Fmt.pr "  %-10s %6.2fs@." stage
          (Obs.Metrics.value (Obs.Metrics.counter reg ("stage_seconds." ^ stage))))
      s.Dse.stage_seconds
  end;
  (match r.Dse.best with
  | Some b ->
      let base = Vhls.Synth.synthesize m ~top in
      let opt = Vhls.Synth.synthesize r.Dse.module_ ~top in
      Fmt.pr "best point: %a@." Dse.pp_point b.Dse.point;
      Fmt.pr "estimate  : %a@." Estimator.pp_estimate b.Dse.estimate;
      Fmt.pr "synthesis : %a@." Vhls.Synth.pp_report opt;
      Fmt.pr "baseline  : %a@." Vhls.Synth.pp_report base;
      Fmt.pr "speedup   : %.1fx@."
        (float_of_int base.Vhls.Synth.latency /. float_of_int (max 1 opt.Vhls.Synth.latency))
  | None -> Fmt.pr "no feasible design point found@.");
  Fmt.pr "@.Pareto frontier (latency-increasing):@.";
  List.iter
    (fun p ->
      Fmt.pr "  latency=%-10d dsp=%-5d %a@." p.Dse.estimate.Estimator.latency
        p.Dse.estimate.Estimator.usage.Vhls.Platform.u_dsp Dse.pp_point p.Dse.point)
    r.Dse.pareto;
  (match emit with
  | Some path ->
      let oc = open_out path in
      output_string oc (Emit.Emit_cpp.emit_module r.Dse.module_);
      close_out oc;
      Fmt.pr "@.emitted optimized HLS C++ to %s@." path
  | None -> ());
  0

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.c" ~doc:"HLS-C input file")
let kernel = Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"NAME" ~doc:"PolyBench kernel (bicg|gemm|gesummv|syr2k|syrk|trmm)")
let size = Arg.(value & opt int 64 & info [ "size" ] ~docv:"N" ~doc:"Problem size for --kernel")
let top = Arg.(value & opt (some string) None & info [ "top" ] ~docv:"FUNC" ~doc:"Top function")

(* Search defaults come from the serve protocol's default config, so a local
   run and a --remote run with no flags search identically. *)
let defaults = Serve.Protocol.default_config
let platform = Arg.(value & opt string defaults.platform & info [ "platform" ] ~doc:"Target platform")
let samples = Arg.(value & opt int defaults.samples & info [ "samples" ] ~doc:"Initial random samples")
let iterations = Arg.(value & opt int defaults.iterations & info [ "iterations" ] ~doc:"Neighbor-traversal steps")
let seed = Arg.(value & opt int defaults.seed & info [ "seed" ] ~doc:"RNG seed")
let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel point evaluation (1 = sequential, 0 = \
           one per core). The result is identical for any value: same seed, \
           same frontier.")
let window =
  Arg.(
    value & opt int defaults.window
    & info [ "window" ] ~docv:"N"
        ~doc:
          "In-flight evaluation window of the asynchronous executor (at \
           least 1): the strategy proposes up to $(docv) points ahead while \
           results commit strictly in order, so the frontier is a pure \
           function of (--seed, --window) — independent of $(b,--jobs) and \
           worker timing. Larger windows keep more workers busy. Changing \
           the window (like changing the seed) changes the search \
           trajectory.")

let symbolic =
  Term.app (Term.const not)
    Arg.(
      value & flag
      & info [ "no-symbolic-eval" ]
          ~doc:
            "Evaluate every design point by materializing the fully-unrolled \
             body instead of the (default) symbolic unroll model. The two \
             paths produce identical results; this flag exists as an escape \
             hatch and for benchmarking the speedup.")

let strategy =
  Arg.(
    value & opt string defaults.strategy
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          "Search strategy: $(b,exhaustive) (the paper's sample + \
           Pareto-neighbor traversal) or $(b,surrogate) (an online \
           recursive-least-squares model ranks each round's candidate pool \
           and only the predicted-frontier shortlist is evaluated exactly — \
           same frontier quality for a fraction of the exact evaluations). \
           Both are deterministic for a given seed, local or $(b,--remote).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a per-stage wall-time breakdown of the exploration \
           (transform, unroll, cleanup, partition, estimate, pareto) plus \
           symbolic/fallback evaluation counters.")

let emit = Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"OUT.cpp" ~doc:"Emit optimized HLS C++")

let remote =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCKET"
        ~doc:
          "Run the search on a scalehls-serve daemon listening on the \
           Unix-domain socket $(docv) instead of in-process. The search \
           config is taken from the same flags; frontier updates stream to \
           stderr and the final Pareto frontier matches the in-process \
           output bit-for-bit ($(b,--jobs), $(b,--profile) and $(b,--emit) \
           are daemon-side concerns and are ignored).")

let cmd =
  let doc = "ScaleHLS automated design space exploration" in
  Cmd.v (Cmd.info "scalehls-dse" ~doc)
    Term.(
      const run $ input $ kernel $ size $ top $ platform $ samples $ iterations
      $ seed $ jobs $ symbolic $ strategy $ window $ profile $ emit $ remote
      $ Obs_flags.trace $ Obs_flags.metrics $ Obs_flags.events)

let () = exit (Cmd.eval' cmd)
