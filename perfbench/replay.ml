(** The traced run: per-layer metrics measured from outside the program.

    For every design of a workload, a trace rep
    + runs the search untraced (the reference), recording the points the
      strategy observes in commit order and the time the strategy itself
      takes;
    + replays those points through each layer's public functions in the
      engine's order — [Dse.preprocess], [Dse.cache_key] for every
      proposal, then per point [Dse.permute_tile],
      [Dse.pipeline_tops ~annotate:true], [Dse.cleanup_passes],
      [Unroll_model.expand], [Dse.expand_cleanup_passes],
      [Array_partition.run] + canonicalize and
      [Estimator.estimate ~memos ~loop_ii] — building one transform per
      distinct (lp, rvb, perm, tiles) like the engine's transform memo and
      taking the materialized path on [Unroll_model.Unsupported];
    + replays them once more with recording off, to price the recording.

    Spans come from the benchmark's own recorder, around calls into the
    layers and, through [Pass.register_instrumentation], around every pass.
    [Obs.Trace] is left off: enabling it would also switch on the
    program's internal spans and their per-pass IR statistics, and the
    layers would be measured with that cost inside them.

    The replay must account for the reference search's wall time (its
    coverage, kept within [0.8, 1.2] per design) and must reproduce every
    estimate the search committed. Then, on workloads that search on a
    worker pool, the designs are searched once more on a 2-domain pool for
    the pool and GC numbers; and the reference results are put in a store,
    saved, loaded and replayed warm through an in-process server for the
    serve-layer numbers. *)

open Mir
open Scalehls
module Json = Obs.Json

(* ---- The span recorder ---------------------------------------------------- *)

type event = { name : string; ts : int64; dur : int64; design : string }

let recording = Atomic.make false
let events : event list ref = ref []
let current_design = ref ""
let totals : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 64

(* Time spent in layer spans of the current design: the coverage numerator. *)
let layer_time = ref 0.

let record name t0 =
  let dur = Int64.sub (Obs.Clock.now_ns ()) t0 in
  let secs = Obs.Clock.ns_to_s dur in
  (match Hashtbl.find_opt totals name with
  | Some (s, n) ->
      s := !s +. secs;
      incr n
  | None -> Hashtbl.add totals name (ref secs, ref 1));
  events := { name; ts = t0; dur; design = !current_design } :: !events;
  secs

(** Run [f] in a span [name]; [layer] spans add to the coverage
    numerator. A plain call while recording is off. *)
let span ?(layer = false) name f =
  if not (Atomic.get recording) then f ()
  else begin
    let t0 = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let secs = record name t0 in
        if layer then layer_time := !layer_time +. secs)
      f
  end

(* Pass spans through the pass manager's public instrumentation hooks,
   installed by the traced run only. Recording only happens during
   replays, which run on the main domain; the hooks do nothing at any other
   time (engine runs on worker domains included). *)
let pass_starts : int64 list ref = ref []

let install_pass_hooks () =
  Pass.register_instrumentation
    (Pass.instrumentation
       ~before_pass:(fun _ _ ->
         if Atomic.get recording then pass_starts := Obs.Clock.now_ns () :: !pass_starts)
       ~after_pass:(fun name _ ->
         if Atomic.get recording then
           match !pass_starts with
           | t0 :: rest ->
               pass_starts := rest;
               ignore (record ("pass." ^ name) t0)
           | [] -> ())
       ())

let total name = match Hashtbl.find_opt totals name with Some (s, _) -> !s | None -> 0.
let calls name = match Hashtbl.find_opt totals name with Some (_, n) -> !n | None -> 0

let chrome_json evs =
  let t_min = List.fold_left (fun acc e -> min acc e.ts) Int64.max_int evs in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.String e.name);
                   ("cat", Json.String "perfbench");
                   ("ph", Json.String "X");
                   ("ts", Json.Float (Obs.Clock.ns_to_us (Int64.sub e.ts t_min)));
                   ("dur", Json.Float (Obs.Clock.ns_to_us e.dur));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("args", Json.Obj [ ("design", Json.String e.design) ]);
                 ])
             (List.sort (fun a b -> Int64.compare a.ts b.ts) evs)) );
      ("displayTimeUnit", Json.String "ms");
    ]

(* ---- The reference search --------------------------------------------------- *)

(* Allocation and collection counts around [f]. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  ( r,
    [
      ("gc.minor_mb", mb (s1.Gc.minor_words -. s0.Gc.minor_words));
      ("gc.promoted_mb", mb (s1.Gc.promoted_words -. s0.Gc.promoted_words));
      ("gc.major_collections", float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
    ] )

(* What the strategy saw, in order: the points it proposed (each admitted
   through [Dse.cache_key]) and the chunks it observed (every committed
   point, with its result). *)
type step =
  | Proposed of Dse.point list
  | Committed of (Dse.point * Dse.evaluated option) list

type reference = {
  result : Dse.result;
  wall : float;  (** [Dse.run] only *)
  eval_s : float;  (** summed point-evaluation time, via [?batch_wrap] *)
  wait_s : float;  (** summed pool-queue wait, via [?queue_wait] *)
  strategy_s : float;  (** time inside the strategy's callbacks *)
  steps : step list;
  cache : Dse.eval_cache;
  memos : Estimator.memos;
  gc : (string * float) list;  (** allocation and collections during [Dse.run] *)
}

(* Wrap a strategy to log its steps and time its callbacks. *)
let observing log strategy_s (s : Dse.Strategy.t) : Dse.Strategy.t =
 fun env ->
  let timed f =
    let r, dt = Obs.Clock.time_s f in
    strategy_s := !strategy_s +. dt;
    r
  in
  let proposed ps =
    log := Proposed ps :: !log;
    ps
  in
  let i = timed (fun () -> s env) in
  {
    i with
    Dse.Strategy.seed_batch = (fun () -> proposed (timed i.Dse.Strategy.seed_batch));
    propose =
      (fun ~frontier ~remaining ->
        proposed (timed (fun () -> i.Dse.Strategy.propose ~frontier ~remaining)));
    observe =
      (fun chunk ->
        log := Committed chunk :: !log;
        timed (fun () -> i.Dse.Strategy.observe chunk));
  }

let search ?pool ~seed (d : Search.design) =
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (Search.source d) in
  let lock = Mutex.create () in
  let eval_s = ref 0. and wait_s = ref 0. and strategy_s = ref 0. and log = ref [] in
  let add cell x =
    Mutex.lock lock;
    cell := !cell +. x;
    Mutex.unlock lock
  in
  let cache : Dse.eval_cache = Eval_cache.create () and memos = Estimator.create_memos () in
  let (result, wall), gc =
    gc_delta (fun () ->
        Obs.Clock.time_s (fun () ->
            Search.dse ?pool ~cache ~memos ~seed ctx m d
              ~strategy:(observing log strategy_s)
              ~queue_wait:(add wait_s)
              ~batch_wrap:(fun f ->
                let r, dt = Obs.Clock.time_s f in
                add eval_s dt;
                r)))
  in
  {
    result;
    wall;
    eval_s = !eval_s;
    wait_s = !wait_s;
    strategy_s = !strategy_s;
    steps = List.rev !log;
    cache;
    memos;
    gc;
  }

(* ---- The replay -------------------------------------------------------------- *)

type counts = {
  mutable points : int;  (** points that reached the transform stage *)
  mutable built : int;  (** distinct transforms built *)
  mutable inapplicable : int;
  mutable unsupported : int;
  mutable mismatches : int;
  mutable estimates : float list;  (** seconds per estimator call *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable ops_after : float list;  (** op count of each transformed module *)
}

let new_counts () =
  {
    points = 0;
    built = 0;
    inapplicable = 0;
    unsupported = 0;
    mismatches = 0;
    estimates = [];
    memo_hits = 0;
    memo_misses = 0;
    ops_after = [];
  }

(* Dse.run's defaults, which the searches use. *)
let max_unroll = 256
let max_ii = 8

let transform cn ctx pre ~top (c : Dse.point) =
  cn.built <- cn.built + 1;
  match
    span ~layer:true "dse.transform" (fun () ->
        let m1 = Dse.permute_tile ctx pre ~top c in
        (m1, Dse.pipeline_tops ctx m1 ~top c ~annotate:true))
  with
  | exception Dse.Inapplicable -> None
  | m1, m2 -> (
      let finish m =
        span ~layer:true "array_partition" (fun () ->
            Pass.run_pipeline [ Canonicalize.pass ] ctx (Array_partition.run ctx m))
      in
      let m2 =
        span ~layer:true "cleanup.rolled" (fun () -> Pass.run_pipeline Dse.cleanup_passes ctx m2)
      in
      match span ~layer:true "unroll_model.expand" (fun () -> Unroll_model.expand ctx m2) with
      | m3, expanded ->
          let m3 =
            if expanded then
              span ~layer:true "cleanup.expanded" (fun () ->
                  Pass.run_pipeline Dse.expand_cleanup_passes ctx m3)
            else m3
          in
          Some (finish m3)
      | exception Unroll_model.Unsupported _ -> (
          cn.unsupported <- cn.unsupported + 1;
          match
            span ~layer:true "dse.materialized" (fun () ->
                Pass.run_pipeline Dse.cleanup_passes ctx
                  (Dse.pipeline_tops ctx m1 ~top c ~annotate:false))
          with
          | m -> Some (finish m)
          | exception Dse.Inapplicable -> None))

(** Replay a reference search of [d] (see the module comment); returns the
    transformed modules, whose sizes the caller counts outside the timing. *)
let replay cn (d : Search.design) steps =
  let top = Search.top d in
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (Search.source d) in
  ignore (span ~layer:true "dse.preprocess" (fun () -> Dse.build_space ~max_unroll ~max_ii ctx m ~top));
  let pres = Hashtbl.create 4 in
  let preprocessed lp rvb =
    match Hashtbl.find_opt pres (lp, rvb) with
    | Some p -> p
    | None ->
        let p =
          span ~layer:true "dse.preprocess" (fun () ->
              let pre = Dse.preprocess (Ir.Ctx.of_op m) m ~lp ~rvb in
              (pre, Fingerprint.op pre))
        in
        Hashtbl.replace pres (lp, rvb) p;
        p
  in
  let memos = Estimator.create_memos () in
  let tf = Hashtbl.create 64 in
  let evaluated = ref [] in
  (* One committed point, evaluated the way [Dse.evaluate] does. *)
  let evaluate (c : Dse.point) =
    let pre, fp = preprocessed c.lp c.rvb in
    if List.fold_left ( * ) 1 c.tiles > max_unroll then None
    else begin
      cn.points <- cn.points + 1;
      let ctx = span ~layer:true "dse.transform" (fun () -> Ir.Ctx.of_op pre) in
      let tm =
        let key = (fp, c.perm, c.tiles) in
        match Hashtbl.find_opt tf key with
        | Some t -> t
        | None ->
            let t = transform cn ctx pre ~top c in
            Hashtbl.replace tf key t;
            t
      in
      Option.map
        (fun tm ->
          ignore
            (span ~layer:true "dse.transform" (fun () -> Dse.retarget_ii ~target_ii:c.target_ii tm));
          let e =
            span ~layer:true "estimator" (fun () ->
                let e, dt =
                  Obs.Clock.time_s (fun () -> Estimator.estimate ~memos ~loop_ii:c.target_ii tm ~top)
                in
                cn.estimates <- dt :: cn.estimates;
                e)
          in
          { Dse.point = c; estimate = e; feasible = Vhls.Platform.fits Search.platform e.Estimator.usage })
        tm
    end
  in
  let commit chunk =
    List.iter
      (fun ((c : Dse.point), committed) ->
        let got = evaluate c in
        (match got with
        | Some ev -> evaluated := ev :: !evaluated
        | None -> cn.inapplicable <- cn.inapplicable + 1);
        if got <> committed then cn.mismatches <- cn.mismatches + 1)
      chunk;
    ignore (span ~layer:true "dse.pareto" (fun () -> Dse.pareto_frontier !evaluated))
  in
  List.iter
    (function
      | Proposed ps ->
          List.iter
            (fun (p : Dse.point) ->
              let pre, fp = preprocessed p.lp p.rvb in
              ignore (span ~layer:true "dse.admit" (fun () -> Dse.cache_key ~pre_fp:fp pre ~top p)))
            ps
      | Committed chunk -> commit chunk)
    steps;
  cn.memo_hits <- cn.memo_hits + Estimator.memo_hits memos;
  cn.memo_misses <- cn.memo_misses + Estimator.memo_misses memos;
  Hashtbl.fold (fun _ t acc -> match t with Some t -> t :: acc | None -> acc) tf []

(* ---- One trace rep --------------------------------------------------------------- *)

(* Serve-layer numbers: the reference runs' caches and band memos go into a
   store, which is saved, loaded, and replayed warm through a server. *)
let serve_probe ~tally ~seed (refs : (Search.design * reference) list) =
  if Sys.file_exists Serve_client.store_path then Sys.remove Serve_client.store_path;
  let store = Serve.Store.open_ ~path:Serve_client.store_path () in
  List.iter
    (fun (d, r) ->
      let c = Serve.Store.cache_for store (Search.config ~seed d).platform in
      List.iter (fun (k, v) -> Eval_cache.add c k v) (Eval_cache.bindings r.cache);
      Estimator.import_bands (Serve.Store.memos store) (Estimator.export_bands r.memos))
    refs;
  let entries, save_s = Obs.Clock.time_s (fun () -> Serve.Store.save store) in
  let bytes = (Unix.stat Serve_client.store_path).Unix.st_size in
  let _, load_s = Obs.Clock.time_s (fun () -> Serve.Store.open_ ~path:Serve_client.store_path ()) in
  let replies =
    Serve_client.with_server (fun () ->
        Serve_client.with_conn (fun c ->
            List.filter_map
              (fun (d, r) ->
                let what = "warm " ^ Search.label d in
                Option.map
                  (fun (x : Serve_client.reply) ->
                    Tally.expect tally ~what:(what ^ " frontier vs cold")
                      (Search.digest r.result.Dse.pareto) x.frontier;
                    x)
                  (Tally.guard tally what (fun () -> Serve_client.search c ~seed d)))
              refs))
  in
  let mean f =
    match replies with
    | [] -> 0.
    | _ -> Stats.sum (List.map f replies) /. float_of_int (List.length replies)
  in
  let hits = List.fold_left (fun a (x : Serve_client.reply) -> a + x.hits) 0 replies
  and misses = List.fold_left (fun a (x : Serve_client.reply) -> a + x.misses) 0 replies in
  [
    ("serve.protocol_ms", 1e3 *. mean (fun x -> x.latency -. x.server_wall));
    ("serve.server_wall_ms", 1e3 *. mean (fun x -> x.server_wall));
    ("serve.warm_hit_rate", Dse.hit_rate hits misses);
    ("serve.store_load_s", load_s);
    ("serve.store_save_s", save_s);
    ("serve.store_bytes", float_of_int bytes);
    ("serve.store_entries", float_of_int entries);
  ]

let pass_names =
  [
    "raise-scf-to-affine"; "canonicalize"; "affine-store-forward"; "cse";
    "remove-variable-bound"; "affine-loop-perfectization"; "simplify-affine-if";
    "simplify-memref-access";
  ]

type traced = {
  design : Search.design;
  reference : reference;
  covered : float;  (** replayed layer time plus the strategy's own time *)
  t_on : float;  (** replay wall time, recording on *)
  emitted : int;  (** bytes of C++ emitted for the best module *)
}

(* Trace one design: a reference search, then its recorded replay (plus
   frontend, synthesis and emission spans). Each starts from a collected
   heap, so neither pays for the other's garbage. *)
let trace_design ~seed cn d =
  current_design := Search.label d;
  Gc.full_major ();
  let r = search ~seed d in
  Gc.full_major ();
  Atomic.set recording true;
  let (transformed, layers, emitted), t_on =
    Fun.protect
      ~finally:(fun () -> Atomic.set recording false)
      (fun () ->
        ignore (span "frontend" (fun () -> Pipeline.compile_c (Ir.Ctx.create ()) (Search.source d)));
        layer_time := 0.;
        let transformed, t_on = Obs.Clock.time_s (fun () -> replay cn d r.steps) in
        let layers = !layer_time in
        ignore
          (span "vhls.synth" (fun () -> Vhls.Synth.synthesize r.result.Dse.module_ ~top:(Search.top d)));
        let cpp = span "emit" (fun () -> Emit.Emit_cpp.emit_module r.result.Dse.module_) in
        ((transformed, layers, String.length cpp), t_on))
  in
  cn.ops_after <-
    List.map (fun m -> float_of_int (Walk.count (fun _ -> true) m)) transformed @ cn.ops_after;
  { design = d; reference = r; covered = layers +. r.strategy_s; t_on; emitted }

(* The same replay with recording off: its wall time prices the recording. *)
let unrecorded_replay t =
  Gc.full_major ();
  snd (Obs.Clock.time_s (fun () -> replay (new_counts ()) t.design t.reference.steps))

(* The workload's own engine configuration, for the pool and GC numbers:
   the reference searches themselves at -j 1, a pool of [jobs] domains
   otherwise (whose frontiers must match the reference). *)
let pooled_searches ~tally ~seed ~jobs traced =
  if jobs <= 1 then List.map (fun t -> t.reference) traced
  else
    Parpool.with_pool ~jobs (fun pool ->
        List.filter_map
          (fun t ->
            let what = Printf.sprintf "%s at -j %d" (Search.label t.design) jobs in
            Option.map
              (fun (r : reference) ->
                Tally.expect tally ~what:(what ^ " vs -j 1")
                  (Search.digest t.reference.result.Dse.pareto)
                  (Search.digest r.result.Dse.pareto);
                r)
              (Tally.guard tally what (fun () -> search ~pool ~seed t.design)))
          traced)

(** One trace rep over [designs]: the per-layer metrics, and each design's
    (replayed layer time, reference wall time) for the coverage check. *)
let trace_rep ~tally ~seed ~jobs designs =
  Hashtbl.reset totals;
  let cn = new_counts () in
  let traced =
    List.filter_map
      (fun d -> Tally.guard tally (Search.label d ^ " trace") (fun () -> trace_design ~seed cn d))
      designs
  in
  if cn.mismatches > 0 then
    Tally.fail tally (Printf.sprintf "replay reproduced %d committed results wrongly" cn.mismatches)
  else Tally.ok tally;
  let refs = List.map (fun t -> (t.design, t.reference)) traced in
  let t_off = List.map unrecorded_replay traced in
  let pooled = pooled_searches ~tally ~seed ~jobs traced in
  let sum f l = Stats.sum (List.map f l) in
  let mean = function [] -> 0. | l -> Stats.sum l /. float_of_int (List.length l) in
  let q p = function [] -> 0. | l -> 1e3 *. Stats.quantile p l in
  let eval_s = sum (fun t -> t.reference.eval_s) traced
  and wall = sum (fun t -> t.reference.wall) traced in
  let metrics =
    [
      ("estimator.s", total "estimator");
      ("estimator.calls", float_of_int (calls "estimator"));
      ("estimator.p50_ms", q 0.5 cn.estimates);
      ("estimator.p95_ms", q 0.95 cn.estimates);
      ("estimator.memo_hit_rate", Dse.hit_rate cn.memo_hits cn.memo_misses);
      ("cleanup.rolled_s", total "cleanup.rolled");
      ("cleanup.expanded_s", total "cleanup.expanded");
      ("cleanup.ops_after", mean cn.ops_after);
    ]
    @ List.concat_map
        (fun p ->
          [
            ("pass." ^ p ^ "_s", total ("pass." ^ p));
            ("pass." ^ p ^ "_calls", float_of_int (calls ("pass." ^ p)));
          ])
        pass_names
    @ [
        ("array_partition.s", total "array_partition");
        ("unroll_model.expand_s", total "unroll_model.expand");
        ("unroll_model.unsupported", float_of_int cn.unsupported);
        ("dse.transform_s", total "dse.transform");
        ("dse.transform_calls", float_of_int cn.built);
        ("dse.inapplicable", float_of_int cn.inapplicable);
        ("dse.transforms_per_point", float_of_int cn.built /. float_of_int (max 1 cn.points));
        ("dse.preprocess_s", total "dse.preprocess");
        ("dse.pareto_s", total "dse.pareto");
        ("dse.admit_s", total "dse.admit");
        ("dse.strategy_s", sum (fun t -> t.reference.strategy_s) traced);
        ("dse.eval_s", eval_s);
        ("dse.coordinator_s", wall -. eval_s);
        ( "parpool.queue_wait_share",
          sum (fun r -> r.wait_s) pooled /. Float.max 1e-9 (sum (fun r -> r.eval_s) pooled) );
        ( "parpool.busy_fraction",
          mean (List.concat_map (fun r -> List.map snd r.result.Dse.stats.Dse.worker_busy) pooled) );
      ]
    @ List.map
        (fun k -> (k, sum (fun r -> List.assoc k r.gc) pooled))
        [ "gc.minor_mb"; "gc.promoted_mb"; "gc.major_collections" ]
    @ serve_probe ~tally ~seed refs
    @ [
        ("frontend.compile_s", total "frontend");
        ("vhls.synth_s", total "vhls.synth");
        ("emit.s", total "emit");
        ("emit.bytes", sum (fun t -> float_of_int t.emitted) traced);
        ("trace.coverage", sum (fun t -> t.covered) traced /. Float.max 1e-9 wall);
        ( "trace.overhead",
          (sum (fun t -> t.t_on) traced /. Float.max 1e-9 (Stats.sum t_off)) -. 1. );
      ]
  in
  (metrics, List.map (fun t -> (t.design, (t.covered, t.reference.wall))) traced)

(* Single timings are too noisy to judge a design's coverage by: a design
   is traced once more for as long as it has fewer than
   [coverage_samples] traces or their reference searches add up to less
   than [coverage_min_s] (a small design's search takes milliseconds). Its
   coverage is the median over traces of replayed time ÷ reference time,
   each ratio taken from a search and a replay run back to back. *)
let coverage_range = (0.8, 1.2)
let coverage_samples = 5
let coverage_min_s = 0.5

(** Trace reps until [seconds] have passed and at least [Workload.min_reps] were
    made; each per-layer metric is the median over reps. The first rep's
    spans are written to
    [perfbench/out/<workload>.trace.json]. *)
let run ~tally ~seed ~seconds ~name ~jobs designs =
  install_pass_hooks ();
  let t0 = Obs.Clock.now_ns () in
  let reps = ref [] in
  while List.length !reps < Workload.min_reps || Obs.Clock.since_s t0 < seconds do
    events := [];
    let rep = trace_rep ~tally ~seed ~jobs designs in
    if !reps = [] then
      Obs.Metrics.write_atomic
        (Filename.concat Results.out_dir (name ^ ".trace.json"))
        (fun oc -> output_string oc (Json.to_string (chrome_json !events)));
    reps := rep :: !reps
  done;
  let reps = List.rev !reps in
  let lo, hi = coverage_range in
  let coverage =
    List.map
      (fun d ->
        let samples =
          ref (List.concat_map (fun (_, ts) -> List.filter_map (fun (d', c) -> if d' = d then Some c else None) ts) reps)
        in
        while
          List.length !samples < coverage_samples
          || Stats.sum (List.map snd !samples) < coverage_min_s
        do
          let t = trace_design ~seed (new_counts ()) d in
          samples := (t.covered, t.reference.wall) :: !samples
        done;
        let cov = Stats.median (List.map (fun (c, w) -> c /. w) !samples) in
        let label = Search.label d in
        if cov < lo || cov > hi then
          Tally.fail tally (Printf.sprintf "%s: trace coverage %.3f outside [%.1f, %.1f]" label cov lo hi)
        else Tally.ok tally;
        (label, Json.Float cov))
      designs
  in
  events := [];
  let metrics =
    List.map
      (fun (k, _) -> (k, Stats.median (List.map (fun (m, _) -> List.assoc k m) reps)))
      (fst (List.hd reps))
  in
  let raw =
    [
      ("design_coverage", Json.Obj coverage);
      ( "trace_reps",
        Json.List
          (List.map
             (fun (m, _) -> Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) m))
             reps) );
    ]
  in
  (metrics, raw)
