(* scalehls-dse: the automated DSE driver (the -multiple-level-dse flow).
   Reads HLS-C (or a named PolyBench kernel), explores the design space under
   the platform constraints, and reports the Pareto frontier plus the chosen
   design point — the per-kernel machinery behind Table 3. *)

open Cmdliner
open Scalehls

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The design the command line names: an HLS-C file (its top function
   defaults to the file's base name) or a PolyBench kernel. *)
let design_of_args input kernel size top =
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

(* The best point and the Pareto frontier, for a local and a remote run
   alike; [details] prints the local run's synthesis lines after the
   estimate. *)
let print_points ?(details = fun () -> ()) best pareto =
  (match best with
  | Some b ->
      Fmt.pr "best point: %a@." Dse.pp_point b.Dse.point;
      Fmt.pr "estimate  : %a@." Estimator.pp_estimate b.Dse.estimate;
      details ()
  | None -> Fmt.pr "no feasible design point found@.");
  Fmt.pr "@.Pareto frontier (latency-increasing):@.";
  List.iter
    (fun p ->
      Fmt.pr "  latency=%-10d dsp=%-5d %a@." p.Dse.estimate.Estimator.latency
        p.Dse.estimate.Estimator.usage.Vhls.Platform.u_dsp Dse.pp_point
        p.Dse.point)
    pareto

(* The --remote client: ship the search to a running scalehls-serve daemon
   and render its streamed responses. The config is the local flags', and
   the daemon runs it through the same [Serve.Protocol.search], so its
   answer (warm cache or not) is bit-identical to the in-process run. *)
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
  let best =
    match Json.member "best" j with
    | Some Json.Null | None -> None
    | Some b -> Some (Serve.Codec.evaluated_of_json b)
  in
  let pareto =
    match Json.member "pareto" j with
    | Some (Json.List l) -> List.map Serve.Codec.evaluated_of_json l
    | _ -> []
  in
  print_points best pareto;
  0

let run_remote socket design config =
  let module Json = Obs.Json in
  (* After the result, if this client is tracing, pull the daemon's spans for
     our job and merge them into the local trace file (under their own pid),
     so one Chrome trace shows both halves of the remote search. *)
  let job_id = ref None in
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

(* The --profile report: the run's own [Dse.stats] (the "dse" metrics
   registry's counters are copied from them), the process's collections
   over the search, and per-point quantiles from the registry's
   [evaluate_seconds] histogram. *)
let print_profile (s : Dse.stats) ~gc0 ~gc1 =
  Fmt.pr "strategy   : %s (%s)@." s.Dse.strategy
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s %d" k v)
          s.Dse.strategy_counters));
  let est_hits = s.Dse.est_memo_hits and est_misses = s.Dse.est_memo_misses in
  Fmt.pr "evaluation : %d symbolic, %d fallback, %d estimator-memo hit%s@."
    s.Dse.symbolic_points s.Dse.fallback_points est_hits
    (if est_hits = 1 then "" else "s");
  List.iter
    (fun (reason, n) -> Fmt.pr "  fallback because %s: %d@." reason n)
    s.Dse.fallback_reasons;
  Fmt.pr "caches     : eval %d/%d hits (%.0f%%), pre %d/%d@." s.Dse.cache_hits
    (s.Dse.cache_hits + s.Dse.cache_misses)
    (100. *. Dse.hit_rate s.Dse.cache_hits s.Dse.cache_misses)
    s.Dse.pre_hits
    (s.Dse.pre_hits + s.Dse.pre_misses);
  (* Memo granularity: the transform memo works per (perm, tiles) module
     (target-II ladder siblings share one), the estimator memo per
     pipelined band. *)
  Fmt.pr "transforms : %d shared / %d built (%.0f%% of points reused a sibling's module)@."
    s.Dse.tf_hits s.Dse.tf_misses
    (100. *. Dse.hit_rate s.Dse.tf_hits s.Dse.tf_misses);
  let evaluated = max 1 s.Dse.cache_misses in
  Fmt.pr
    "bands      : %d reused / %d re-scheduled (%.0f%% band hit rate, %.1f bands re-scheduled per point)@."
    est_hits est_misses
    (100. *. Dse.hit_rate est_hits est_misses)
    (float_of_int est_misses /. float_of_int evaluated);
  (* Single-flight waits: lookups that blocked on another domain's fill of
     the same memo entry, kept out of the stage times below. *)
  Fmt.pr "waits      : %s (%.2f s)@."
    (String.concat ", "
       (List.map (fun (memo, n, _) -> Printf.sprintf "%d %s" n memo) s.Dse.waits))
    (List.fold_left (fun acc (_, _, secs) -> acc +. secs) 0. s.Dse.waits);
  (* Collections are process-wide: every domain's, over the search. *)
  Fmt.pr "gc         : %d minor / %d major collections, %.1f MB promoted@."
    (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
    (gc1.Gc.major_collections - gc0.Gc.major_collections)
    ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.);
  Fmt.pr "workers    : %a@."
    Fmt.(
      list ~sep:comma (fun fmt (i, f) -> pf fmt "#%d %.0f%% busy" i (100. *. f)))
    s.Dse.worker_busy;
  let eval_h =
    Obs.Metrics.histogram (Obs.Metrics.registry "dse") "evaluate_seconds"
  in
  if Obs.Metrics.histogram_count eval_h > 0 then
    Fmt.pr "evaluate   : p50 %.4fs, p99 %.4fs per point@."
      (Obs.Metrics.quantile eval_h 0.5)
      (Obs.Metrics.quantile eval_h 0.99);
  Fmt.pr "per stage  :@.";
  List.iter
    (fun (stage, secs) -> Fmt.pr "  %-10s %6.2fs@." stage secs)
    s.Dse.stage_seconds

let run_local ~jobs ~profile ~emit design config =
  let gc0 = Gc.quick_stat () in
  let { Serve.Protocol.top; input; result = r } =
    try Serve.Protocol.search ~jobs design config
    with Invalid_argument msg ->
      (* An unknown name or an out-of-range knob, rejected before any work. *)
      Fmt.epr "scalehls-dse: %s@." msg;
      exit 2
  in
  let gc1 = Gc.quick_stat () in
  let s = r.Dse.stats in
  Fmt.pr "explored %d design points in %.2fs (%.1f points/s, %d worker%s)@."
    r.Dse.explored s.Dse.wall_seconds
    (float_of_int r.Dse.explored /. Float.max 1e-9 s.Dse.wall_seconds)
    s.Dse.jobs
    (if s.Dse.jobs = 1 then "" else "s");
  if profile then print_profile s ~gc0 ~gc1;
  print_points r.Dse.best r.Dse.pareto ~details:(fun () ->
      let base = Vhls.Synth.synthesize input ~top in
      let opt = Vhls.Synth.synthesize r.Dse.module_ ~top in
      Fmt.pr "synthesis : %a@." Vhls.Synth.pp_report opt;
      Fmt.pr "baseline  : %a@." Vhls.Synth.pp_report base;
      Fmt.pr "speedup   : %.1fx@."
        (float_of_int base.Vhls.Synth.latency
        /. float_of_int (max 1 opt.Vhls.Synth.latency)));
  (match emit with
  | Some path ->
      let oc = open_out path in
      output_string oc (Emit.Emit_cpp.emit_module r.Dse.module_);
      close_out oc;
      Fmt.pr "@.emitted optimized HLS C++ to %s@." path
  | None -> ());
  0

let run input kernel size top platform samples iterations seed jobs symbolic
    strategy window profile emit remote trace metrics events =
  Obs_flags.with_obs ~events ~trace ~metrics @@ fun () ->
  let design = design_of_args input kernel size top in
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
  match remote with
  | Some socket -> run_remote socket design config
  | None -> run_local ~jobs ~profile ~emit design config

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
          "Domains that evaluate points, the search's own coordinator \
           included (1 = sequential, 0 = one per core). The result is \
           identical for any value: same seed, same frontier.")
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
           symbolic/fallback evaluation counters, memo work, and the \
           search's minor/major collections and promoted MB.")

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
