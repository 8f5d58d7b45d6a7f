(** Differential and metamorphic oracles.

    The differential oracle is the heart of the fuzzer: interpret a module
    before and after each transform stage on identical seeded inputs and
    demand bitwise-structural agreement of every output buffer up to a
    relative epsilon ({!Mir.Float_compare}). The metamorphic QoR oracles
    check model-level invariants that need no ground truth: pipelining never
    worsens the virtual-synthesizer latency, the fast estimator and the
    virtual synthesizer agree within a stated factor, and DSE results are
    independent of the worker count.

    All oracles return a (possibly empty) list of {!failure}s and never
    raise: crashes inside passes, the verifier, or the interpreter are
    themselves failures. *)

open Mir
open Scalehls

type failure = {
  oracle : string;  (** e.g. ["interp-diff"], ["qor-pipeline"] *)
  stage : string option;  (** pass name the failure surfaced at, if any *)
  detail : string;
}

let pp_failure fmt f =
  Fmt.pf fmt "[%s%a] %s" f.oracle
    Fmt.(option (fun fmt s -> Fmt.pf fmt " @@ %s" s))
    f.stage f.detail

let fail ?stage oracle fmt = Fmt.kstr (fun detail -> { oracle; stage; detail }) fmt

(* Oracles record crashes as findings, but termination must never become
   one: call this first in every catch-all so SIGINT/SIGTERM keeps unwinding
   to the exporter in {!Obs.Report.run}. *)
let reraise_terminated e =
  match e with Obs.Report.Terminated _ -> raise e | _ -> ()

(* ---- Seeded interpreter inputs -------------------------------------------- *)

(* Deterministic argument vector for [top] of [m], derived from the function
   signature: memrefs get pseudo-random float fills, scalars small values.
   Buffers are freshly allocated per call (the interpreter mutates argument
   buffers in place). *)
let interp_args ~seed m ~top =
  let f = Ir.find_func_exn m top in
  let rng = Rng.create (Rng.derive seed 0x1a7) in
  List.map
    (fun (v : Ir.value) ->
      match v.Ir.vty with
      | Ty.Memref { shape; elt; _ } ->
          Interp.VBuf
            (Interp.buffer_init shape elt (fun _ ->
                 float_of_int (Rng.int rng 65 - 32) /. 4.))
      | ty when Ty.is_float ty ->
          Interp.VFloat (float_of_int (Rng.int rng 33 - 16) /. 4.)
      | _ -> Interp.VInt (Rng.int rng 9 - 4))
    (Dialects.Func.func_args f)

(* Observable outputs: every memref argument's data, concatenated in
   argument order (the generated kernels return nothing and communicate
   through argument buffers). *)
let outputs_of_args args =
  Array.concat
    (List.filter_map
       (function Interp.VBuf b -> Some b.Interp.data | _ -> None)
       args)

(** Interpret [top] of [m] on the seeded inputs and return the concatenated
    output buffers. Raises whatever the interpreter raises. *)
let run_outputs ~seed m ~top =
  let args = interp_args ~seed m ~top in
  let (_ : Interp.rvalue list) = Interp.run_func m top args in
  outputs_of_args args

(* ---- Differential oracle --------------------------------------------------- *)

let verify_errors m =
  match Verify.verify m with
  | Ok () -> None
  | Error es -> Some (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Verify.pp_error) es)

(** Run [m] through [pipeline] stage by stage; after every stage, verify the
    module and compare its interpretation against the original's on the same
    seeded inputs. Failures report the stage where the divergence first
    appeared. *)
let differential ?eps ~seed m ~top ~pipeline : failure list =
  match verify_errors m with
  | Some e -> [ fail "gen-verify" "generated module does not verify: %s" e ]
  | None -> (
      match run_outputs ~seed m ~top with
      | exception e ->
          reraise_terminated e;
          [ fail "gen-interp" "generated module does not interpret: %s" (Printexc.to_string e) ]
      | want ->
          let _, failures =
            List.fold_left
              (fun (m, fs) name ->
                if fs <> [] then (m, fs)
                else
                  match Transform_lib.find_pass name with
                  | None -> (m, [ fail ~stage:name "pass-crash" "unknown pass" ])
                  | Some p -> (
                      match Pass.run_one p (Ir.Ctx.of_op m) m with
                      | exception e ->
                          reraise_terminated e;
                          (m, [ fail ~stage:name "pass-crash" "%s" (Printexc.to_string e) ])
                      | m' -> (
                          match verify_errors m' with
                          | Some e ->
                              (m', [ fail ~stage:name "pass-verify" "output does not verify: %s" e ])
                          | None -> (
                              match run_outputs ~seed m' ~top with
                              | exception e ->
                                  reraise_terminated e;
                                  ( m',
                                    [
                                      fail ~stage:name "interp-error" "output does not interpret: %s"
                                        (Printexc.to_string e);
                                    ] )
                              | got -> (
                                  match Float_compare.compare_arrays ?eps want got with
                                  | None -> (m', [])
                                  | Some mm ->
                                      ( m',
                                        [
                                          fail ~stage:name "interp-diff" "%a"
                                            Float_compare.pp_mismatch mm;
                                        ] ))))))
              (m, []) pipeline
          in
          failures)

(* ---- Metamorphic QoR oracles ----------------------------------------------- *)

let synth_latency m ~top = Vhls.Synth.latency (Vhls.Synth.synthesize m ~top)

(** Loop pipelining attaches directives that can only tighten the schedule:
    the virtual synthesizer's latency after [loop-pipelining] must not exceed
    the latency before it (plus [slack] cycles of modeling tolerance). *)
let qor_pipelining_monotone ?(slack = 0) m ~top : failure list =
  match Transform_lib.find_pass "loop-pipelining" with
  | None -> []
  | Some p -> (
      try
        let before = synth_latency m ~top in
        let m' = Pass.run_one p (Ir.Ctx.of_op m) m in
        let after = synth_latency m' ~top in
        if after > before + slack then
          [
            fail ~stage:"loop-pipelining" "qor-pipeline"
              "latency increased: %d -> %d (slack %d)" before after slack;
          ]
        else []
      with e ->
        reraise_terminated e;
        [ fail ~stage:"loop-pipelining" "qor-pipeline" "crash: %s" (Printexc.to_string e) ])

(** The fast estimator and the virtual synthesizer model the same QoR; they
    must agree within a multiplicative [factor] (plus [abs_slack] cycles to
    absorb fixed overheads on tiny kernels), in both directions. *)
let qor_estimator_agrees ?(factor = 8.) ?(abs_slack = 64) m ~top : failure list =
  try
    let est = (Estimator.estimate m ~top).Estimator.latency in
    let syn = synth_latency m ~top in
    let bound x = int_of_float (factor *. float_of_int x) + abs_slack in
    if est > bound syn || syn > bound est then
      [
        fail "qor-estimator" "estimator %d vs synth %d outside x%.1f+%d" est syn factor
          abs_slack;
      ]
    else []
  with e ->
    reraise_terminated e;
    [ fail "qor-estimator" "crash: %s" (Printexc.to_string e) ]

(* ---- DSE determinism oracle ------------------------------------------------- *)

let point_eq (a : Dse.point) (b : Dse.point) =
  a.Dse.lp = b.Dse.lp && a.Dse.rvb = b.Dse.rvb && a.Dse.perm = b.Dse.perm
  && a.Dse.tiles = b.Dse.tiles && a.Dse.target_ii = b.Dse.target_ii

let points_of (r : Dse.result) =
  List.map (fun (e : Dse.evaluated) -> e.Dse.point) r.Dse.pareto

(** The symbolic evaluation path must be indistinguishable from the
    materialized one: for sampled design points of the module's own space,
    [Dse.apply_point ~symbolic:true] and [~symbolic:false] must agree on
    applicability and produce structurally identical modules (same
    {!Mir.Fingerprint}), hence identical estimates. Fallback points compare
    trivially (the symbolic path re-runs the materialized transform), so the
    oracle is sound on any module and discriminating exactly where the
    symbolic expansion engages. *)
let dse_symbolic_equiv ?(points = 6) ~seed m ~top : failure list =
  try
    let ctx = Ir.Ctx.of_op m in
    let space = Dse.build_space ctx m ~top in
    let rng = Random.State.make [| seed |] in
    let fails = ref [] in
    for _ = 1 to points do
      let pt = Dse.random_point rng space in
      let app symbolic =
        match Dse.apply_point ~symbolic ctx m ~top pt with
        | m' -> Some m'
        | exception Dse.Inapplicable -> None
      in
      match (app true, app false) with
      | None, None -> ()
      | Some ms, Some mm ->
          let fs = Fingerprint.op ms and fm = Fingerprint.op mm in
          if not (Int64.equal fs fm) then
            fails :=
              fail "dse-symbolic" "structural divergence at %a: %s vs %s"
                Dse.pp_point pt (Fingerprint.to_hex fs) (Fingerprint.to_hex fm)
              :: !fails
          else begin
            let es = Estimator.estimate ms ~top
            and em = Estimator.estimate mm ~top in
            if es <> em then
              fails :=
                fail "dse-symbolic" "estimate divergence at %a: %a vs %a"
                  Dse.pp_point pt Estimator.pp_estimate es Estimator.pp_estimate
                  em
                :: !fails
          end
      | Some _, None | None, Some _ ->
          fails :=
            fail "dse-symbolic" "applicability divergence at %a" Dse.pp_point pt
            :: !fails
    done;
    List.rev !fails
  with e ->
    reraise_terminated e;
    [ fail "dse-symbolic" "crash: %s" (Printexc.to_string e) ]

(** The window draw for the async-executor DSE oracles: derived from the
    program seed (not a campaign RNG) so a corpus replay of the same seed
    re-runs the identical window without recording it. Spans the smallest
    window (1: one point in flight, commit before every admit), small
    sliding windows, and the engine default. *)
let fuzz_window seed = [| 1; 2; 5; Dse.default_window |].(abs seed land 3)

(** The incremental band-delta estimator must be invisible: estimating a
    transformed module against a warm cross-point memo
    ({!Estimator.create_memos}) must equal the cold full re-estimation of
    the same module, and estimating a target-II *sibling* through the
    read-time [loop_ii] override on the shared module (what the engine does
    on a transform-memo hit) must equal cold estimation of the sibling's own
    fully re-transformed module. The cold reference applies
    {!Dse.retarget_ii} first so both sides use the engine's
    uniform-override II semantics.

    The second phase lifts the same property to the whole engine under the
    async executor: two identical [Dse.run]s sharing one band memo — the
    first cold, the second fully warm — must produce bit-identical
    frontiers for a seed-derived window size ({!fuzz_window}). *)
let dse_incremental ?(points = 4) ?window ~seed m ~top : failure list =
  try
    let ctx = Ir.Ctx.of_op m in
    let space = Dse.build_space ctx m ~top in
    let rng = Random.State.make [| seed |] in
    let memos = Estimator.create_memos () in
    let cold ~target_ii m' =
      Estimator.estimate (Dse.retarget_ii ~target_ii m') ~top
    in
    let fails = ref [] in
    for _ = 1 to points do
      let pt = Dse.random_point rng space in
      match Dse.apply_point ctx m ~top pt with
      | exception Dse.Inapplicable -> ()
      | m' ->
          let ii = pt.Dse.target_ii in
          let c = cold ~target_ii:ii m' in
          let w = Estimator.estimate ~memos ~loop_ii:ii m' ~top in
          if c <> w then
            fails :=
              fail "dse-incremental" "warm/cold divergence at %a: %a vs %a"
                Dse.pp_point pt Estimator.pp_estimate w Estimator.pp_estimate c
              :: !fails;
          (* Target-II sibling: shared module + override vs full re-apply. *)
          let sii = ii + 1 in
          let spt = { pt with Dse.target_ii = sii } in
          (match Dse.apply_point ctx m ~top spt with
          | exception Dse.Inapplicable ->
              fails :=
                fail "dse-incremental" "sibling applicability divergence at %a"
                  Dse.pp_point spt
                :: !fails
          | ms ->
              let sc = cold ~target_ii:sii ms in
              let sw = Estimator.estimate ~memos ~loop_ii:sii m' ~top in
              if sc <> sw then
                fails :=
                  fail "dse-incremental"
                    "sibling divergence at %a: shared-module %a vs re-applied %a"
                    Dse.pp_point spt Estimator.pp_estimate sw
                    Estimator.pp_estimate sc
                  :: !fails)
    done;
    (* Engine-level phase: warm band memo invisible through a full run. *)
    let window =
      match window with Some w -> w | None -> fuzz_window seed
    in
    let engine_memos = Estimator.create_memos () in
    let engine_run () =
      Dse.run ~samples:3 ~iterations:4 ~seed ~window ~memos:engine_memos
        (Ir.Ctx.of_op m) m ~top ~platform:Vhls.Platform.xc7z020
    in
    let r_cold = engine_run () in
    let r_warm = engine_run () in
    let sig_of (r : Dse.result) =
      List.map
        (fun (e : Dse.evaluated) ->
          (e.Dse.point, e.Dse.estimate.Estimator.latency, e.Dse.estimate))
        r.Dse.pareto
    in
    if r_cold.Dse.explored <> r_warm.Dse.explored then
      fails :=
        fail "dse-incremental"
          "engine (window %d): explored differs cold %d vs warm %d" window
          r_cold.Dse.explored r_warm.Dse.explored
        :: !fails;
    if sig_of r_cold <> sig_of r_warm then
      fails :=
        fail "dse-incremental"
          "engine (window %d): warm-memo frontier differs from cold (%d vs %d \
           points)"
          window
          (List.length r_cold.Dse.pareto)
          (List.length r_warm.Dse.pareto)
        :: !fails;
    List.rev !fails
  with e ->
    reraise_terminated e;
    [ fail "dse-incremental" "crash: %s" (Printexc.to_string e) ]

(** The surrogate strategy trades exact evaluations for model guidance, so
    its frontier need not be bit-identical to the exhaustive one — but it
    must not abandon tradeoff regions the exhaustive traversal reaches on
    the same budget. The check is the multiplicative epsilon-indicator over
    (latency, DSP): every exhaustive-frontier point must be eps-covered by
    some surrogate-frontier point, i.e. one whose latency and DSP usage are
    each at most (1+eps)x the exhaustive point's. An exhaustive frontier
    with no surrogate counterpart at all (surrogate found nothing feasible)
    fails outright. Both runs are seeded and sequential, with a seed-derived
    executor window ({!fuzz_window}), so a failure replays exactly from the
    program seed. *)
let dse_strategy_frontier_consistent ?(samples = 4) ?(iterations = 6)
    ?(eps = 0.25) ?window ~seed m ~top : failure list =
  try
    let platform = Vhls.Platform.xc7z020 in
    let window =
      match window with Some w -> w | None -> fuzz_window seed
    in
    let run strategy =
      Dse.run ~samples ~iterations ~seed ~window ~strategy (Ir.Ctx.of_op m) m
        ~top ~platform
    in
    let re = run Dse.exhaustive in
    let rs = run (Qor_ml.surrogate ()) in
    let coords (r : Dse.result) =
      List.map
        (fun (e : Dse.evaluated) ->
          ( e.Dse.point,
            float_of_int e.Dse.estimate.Estimator.latency,
            float_of_int e.Dse.estimate.Estimator.usage.Vhls.Platform.u_dsp ))
        r.Dse.pareto
    in
    let exh = coords re and sur = coords rs in
    match (exh, sur) with
    | [], _ -> []
    | _ :: _, [] ->
        [
          fail "dse-strategy"
            "exhaustive found a %d-point frontier, surrogate found nothing \
             feasible"
            (List.length exh);
        ]
    | _ ->
        let covered (_, ql, qa) =
          List.exists
            (fun (_, pl, pa) ->
              pl <= (1. +. eps) *. ql && pa <= (1. +. eps) *. qa)
            sur
        in
        List.filter_map
          (fun ((qp, ql, qa) as q) ->
            if covered q then None
            else
              Some
                (fail "dse-strategy"
                   "frontier point %a (latency %.0f, dsp %.0f) has no \
                    surrogate point within %.0f%%"
                   Dse.pp_point qp ql qa (100. *. eps)))
          exh
  with e ->
    reraise_terminated e;
    [ fail "dse-strategy" "crash: %s" (Printexc.to_string e) ]

(** A parallel DSE run must be bit-identical to the sequential one: same
    explored count, same best point, same Pareto frontier — and the same
    work: the single-flight transform and band memos count the same hits
    and misses at any [-j]. The default
    [window] (16) deliberately exceeds this oracle's batch sizes at the
    default budget, so every invocation exercises the async executor's
    commit path with the whole batch in flight at once. The pools are built
    explicitly so the engine's cores clamp can't reduce the -j2 arm to -j1
    on a 1-core machine. *)
let dse_jobs_deterministic ?(samples = 4) ?(iterations = 6) ?(window = 16)
    ~seed m ~top : failure list =
  try
    let platform = Vhls.Platform.xc7z020 in
    let run jobs =
      Parpool.with_pool ~jobs (fun pool ->
          Dse.run ~samples ~iterations ~seed ~window ~pool (Ir.Ctx.of_op m) m
            ~top ~platform)
    in
    let r1 = run 1 in
    let r2 = run 2 in
    let best r =
      Option.map (fun (e : Dse.evaluated) -> e.Dse.point) r.Dse.best
    in
    let fails = ref [] in
    if r1.Dse.explored <> r2.Dse.explored then
      fails :=
        fail "dse-jobs" "explored differs: -j1 %d vs -j2 %d" r1.Dse.explored r2.Dse.explored
        :: !fails;
    (match (best r1, best r2) with
    | None, None -> ()
    | Some p1, Some p2 when point_eq p1 p2 -> ()
    | b1, b2 ->
        let pp fmt = function
          | None -> Fmt.pf fmt "none"
          | Some p -> Dse.pp_point fmt p
        in
        fails := fail "dse-jobs" "best differs: -j1 %a vs -j2 %a" pp b1 pp b2 :: !fails);
    let p1 = points_of r1 and p2 = points_of r2 in
    if List.length p1 <> List.length p2 || not (List.for_all2 point_eq p1 p2) then
      fails :=
        fail "dse-jobs" "pareto differs: -j1 %d points vs -j2 %d points" (List.length p1)
          (List.length p2)
        :: !fails;
    List.iter
      (fun (what, count) ->
        let c1 = count r1.Dse.stats and c2 = count r2.Dse.stats in
        if c1 <> c2 then
          fails := fail "dse-jobs" "%s differs: -j1 %d vs -j2 %d" what c1 c2 :: !fails)
      [
        ("tf_hits", fun s -> s.Dse.tf_hits);
        ("tf_misses", fun s -> s.Dse.tf_misses);
        ("est_memo_hits", fun s -> s.Dse.est_memo_hits);
        ("est_memo_misses", fun s -> s.Dse.est_memo_misses);
      ];
    List.rev !fails
  with e ->
    reraise_terminated e;
    [ fail "dse-jobs" "crash: %s" (Printexc.to_string e) ]
