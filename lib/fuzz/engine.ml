(** The fuzzing campaign driver: generate → oracle → (reduce) loop.

    Each iteration derives an independent program seed from the campaign seed
    ({!Rng.derive}), generates a program and a valid pipeline, and runs the
    differential oracle. The QoR metamorphic oracles run on every program
    (they are cheap); the DSE determinism oracle runs every [dse_every]
    programs (a DSE run is ~10^3 oracle-interpretations worth of work).

    Failures are optionally reduced on the spot with the oracle that caught
    them re-checked at every shrink step, so a campaign's output is a list of
    minimal reproducers ready to land in [test/corpus/]. *)

type finding = {
  prog_seed : int;
  oracle : Corpus.oracle_kind;
  failure : Oracle.failure;  (** the original (pre-reduction) failure *)
  reduced : Reduce.candidate option;  (** present when reduction ran *)
  reduced_failure : Oracle.failure option;  (** the failure of the reduced case *)
}

type stats = {
  programs : int;
  oracle_runs : int;
  failures : int;
  elapsed : float;
}

let classify (f : Oracle.failure) : Corpus.oracle_kind =
  Option.value (Corpus.oracle_kind_of_string f.Oracle.oracle) ~default:Corpus.Interp_diff

(* The oracles every program gets, and the DSE oracles every [dse_every]-th
   program gets after them. *)
let cheap_oracles = Corpus.[ Interp_diff; Qor_pipeline; Qor_estimator ]
let dse_oracles = Corpus.[ Dse_symbolic; Dse_incremental; Dse_jobs; Dse_strategy ]

(** Run a campaign of [iters] programs from [seed]. [log] receives one-line
    progress messages. Returns the campaign stats and all findings (one per
    failing program: the first failure, reduced when [reduce] is set). *)
let run ?(dse_every = 0) ?(reduce = false)
    ?(log = fun _ -> ()) ~seed ~iters () : stats * finding list =
  let t0 = Obs.Clock.now_ns () in
  (* Campaign telemetry: counters accumulate per program / oracle run /
     verdict / reducer step, and each program runs inside a span so a traced
     campaign shows where the time goes (generation vs oracles vs reduction). *)
  let reg = Obs.Metrics.registry "fuzz" in
  let c_programs = Obs.Metrics.counter reg "programs" in
  let c_oracle_runs = Obs.Metrics.counter reg "oracle_runs" in
  let c_failures = Obs.Metrics.counter reg "failures" in
  let c_reduce_steps = Obs.Metrics.counter reg "reduce.steps" in
  let findings = ref [] in
  let oracle_runs = ref 0 in
  let count_oracles n =
    oracle_runs := !oracle_runs + n;
    Obs.Metrics.add c_oracle_runs (float_of_int n)
  in
  for i = 0 to iters - 1 do
    let prog_seed = Rng.derive seed i in
    Obs.Trace.with_span ~cat:"fuzz" "fuzz.program"
      ~args:[ ("prog_seed", Obs.Json.Int prog_seed) ]
    @@ fun () ->
    let p =
      Obs.Trace.with_span ~cat:"fuzz" "fuzz.generate" (fun () ->
          Gen.program ~seed:prog_seed ())
    in
    Obs.Metrics.incr c_programs;
    let cfg = Gen.config p in
    let top = p.Gen.top in
    let failures =
      Obs.Trace.with_span ~cat:"fuzz" "fuzz.oracles" @@ fun () ->
      let kinds =
        if dse_every > 0 && i mod dse_every = 0 then cheap_oracles @ dse_oracles
        else cheap_oracles
      in
      count_oracles (List.length kinds);
      List.concat_map
        (fun kind ->
          Corpus.check kind ~seed:prog_seed p.Gen.module_ ~top
            ~pipeline:cfg.Gen.pipeline)
        kinds
    in
    (match failures with
    | [] -> ()
    | failure :: _ ->
        log
          (Fmt.str "iter %d (prog seed %d): %a" i prog_seed Oracle.pp_failure failure);
        let kind = classify failure in
        Obs.Metrics.incr c_failures;
        Obs.Metrics.incr
          (Obs.Metrics.counter reg
             ("verdict." ^ Corpus.oracle_kind_to_string kind));
        let reduced, reduced_failure =
          if not reduce then (None, None)
          else begin
            let c0 =
              {
                Reduce.module_ = p.Gen.module_;
                pipeline =
                  (match kind with Corpus.Interp_diff -> cfg.Gen.pipeline | _ -> []);
              }
            in
            let check (c : Reduce.candidate) =
              Corpus.check kind ~seed:prog_seed c.Reduce.module_ ~top
                ~pipeline:c.Reduce.pipeline
            in
            match
              Obs.Trace.with_span ~cat:"fuzz" "fuzz.reduce" (fun () ->
                  Reduce.run ~still_fails:(fun c -> check c <> []) c0)
            with
            | o ->
                let c = o.Reduce.reduced in
                Obs.Metrics.add c_reduce_steps (float_of_int o.Reduce.steps);
                log
                  (Fmt.str "  reduced: size %d -> %d in %d steps"
                     o.Reduce.initial_size o.Reduce.final_size o.Reduce.steps);
                (Some c, List.nth_opt (check c) 0)
            | exception e ->
                Oracle.reraise_terminated e;
                log (Fmt.str "  reduction failed: %s" (Printexc.to_string e));
                (None, None)
          end
        in
        findings := { prog_seed; oracle = kind; failure; reduced; reduced_failure } :: !findings);
    if (i + 1) mod 50 = 0 then
      log (Fmt.str "progress: %d/%d programs, %d findings" (i + 1) iters
             (List.length !findings))
  done;
  let stats =
    {
      programs = iters;
      oracle_runs = !oracle_runs;
      failures = List.length !findings;
      elapsed = Obs.Clock.since_s t0;
    }
  in
  (stats, List.rev !findings)
