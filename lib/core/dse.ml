(** The automated DSE engine (§5.5.2): searches the Pareto frontier of the
    latency–area tradeoff space. Each dimension of the design space is a
    tunable parameter of a transform pass (Table 2): loop perfectization
    on/off, variable-bound removal on/off, the loop permutation, per-loop
    tile sizes (intra-tile loops are sunk innermost and fully unrolled),
    the pipeline target II — with array partitioning derived automatically
    from the resulting access pattern.

    The 4-step neighbor-traversing algorithm: (1) sample the design space and
    evaluate each point with the QoR estimator; (2) extract the Pareto
    frontier; (3) evaluate the unexplored closest neighbors of a randomly
    selected Pareto point; (4) repeat (2)–(3) until no eligible neighbor
    exists or the evaluation budget is exhausted.

    The engine is asynchronous and (optionally) parallel: proposals enter a
    bounded in-flight window whose points a fixed-size domain pool
    ({!Parpool}) evaluates concurrently, while all search decisions — RNG
    draws, Pareto maintenance, proposals — stay on the coordinator and
    results commit strictly in admission order. Every point is evaluated
    re-entrantly against a fresh [Ir.Ctx] derived from the memoized
    (lp, rvb)-preprocessed module, so the result of a run depends only on
    the seed and the window: [~jobs:n] reproduces [~jobs:1] bit-for-bit. *)

open Mir
open Dialects
open Analysis
open Vhls

type point = {
  lp : bool;
  rvb : bool;
  perm : int list;  (** perm-map over the main band (original -> position) *)
  tiles : int list;  (** per main-band loop, in permuted order *)
  target_ii : int;
}

let pp_point fmt p =
  Fmt.pf fmt "lp=%b rvb=%b perm=[%a] tiles=[%a] ii=%d" p.lp p.rvb
    Fmt.(list ~sep:comma int)
    p.perm
    Fmt.(list ~sep:comma int)
    p.tiles p.target_ii

type evaluated = {
  point : point;
  estimate : Estimator.estimate;
  feasible : bool;
}

type stats = {
  jobs : int;  (** worker-domain count the run used *)
  wall_seconds : float;  (** wall time of the whole run *)
  pre_hits : int;  (** (lp, rvb) preprocessing cache hits *)
  pre_misses : int;  (** ... and misses (≤ 4: one per combo) *)
  cache_hits : int;
      (** evaluation-cache hits: points this run merged warm from entries a
          shared cache already held (re-proposals never reach the cache) *)
  cache_misses : int;  (** points this run actually evaluated *)
  symbolic_points : int;  (** points evaluated through the symbolic path *)
  fallback_points : int;  (** symbolic bail-outs re-run materialized *)
  fallback_reasons : (string * int) list;
      (** why the symbolic model bailed, per {!Unroll_model.Unsupported}
          reason, sorted by reason *)
  est_memo_hits : int;
      (** band-granular estimator memo hits of this run's own estimates
          (fingerprint-identical pipelined bands in hash-identical
          environments share one schedule) *)
  est_memo_misses : int;  (** ... and misses (bands actually re-scheduled) *)
  tf_hits : int;
      (** transform-memo hits: points that reused the transformed module of a
          sibling point differing only in target II *)
  tf_misses : int;  (** ... and misses (transform pipeline actually ran) *)
  worker_busy : (int * float) list;
      (** per-worker busy fraction of the run ({!Parpool.busy_fractions}) *)
  stage_seconds : (string * float) list;
      (** cumulative per-stage wall time across all evaluations:
          transform / unroll / cleanup / partition / estimate / pareto *)
  waits : (string * int * float) list;
      (** single-flight waits per memo, transform then band: lookups that
          blocked on another domain's fill of the same entry, and the
          seconds they spent blocked — time kept out of [stage_seconds] *)
  strategy : string;  (** name of the search strategy the run used *)
  strategy_counters : (string * int) list;
      (** strategy-specific counters, e.g. the surrogate's
          proposed/shortlisted/pruned_by_model tallies *)
}

(* ---- Instrumentation -------------------------------------------------------- *)

(** Instrumentation of one point evaluation, or of a whole run. A worker
    fills a fresh record per evaluation and returns it with the result; the
    coordinator folds it into the run's record at commit, in commit order,
    so nothing is shared while workers run. Every field accumulates. *)
type tally = {
  mutable t_transform : float;  (** permute + tile + pipeline annotation *)
  mutable t_unroll : float;  (** materialized unroll or symbolic expansion *)
  mutable t_cleanup : float;  (** cleanup pass pipelines *)
  mutable t_partition : float;  (** array partitioning + final canonicalize *)
  mutable t_estimate : float;
  mutable t_pareto : float;  (** frontier extraction (coordinator only) *)
  mutable t_symbolic : int;  (** evaluations through the symbolic path *)
  mutable t_fallbacks : (string * int) list;
      (** symbolic bail-outs re-run materialized, per
          {!Unroll_model.Unsupported} reason *)
  mutable t_memo_hits : int;  (** band-memo hits of the evaluations' estimates *)
  mutable t_memo_misses : int;  (** ... and misses (bands actually scheduled) *)
  t_tf_waits : Eval_cache.waits;
      (** blocked on another domain's transform-memo fill ... *)
  t_band_waits : Eval_cache.waits;  (** ... or band-memo fill *)
}

let tally_zero () =
  {
    t_transform = 0.;
    t_unroll = 0.;
    t_cleanup = 0.;
    t_partition = 0.;
    t_estimate = 0.;
    t_pareto = 0.;
    t_symbolic = 0;
    t_fallbacks = [];
    t_memo_hits = 0;
    t_memo_misses = 0;
    t_tf_waits = Eval_cache.waits ();
    t_band_waits = Eval_cache.waits ();
  }

(** Add [n] fallbacks for [reason] to a per-reason count. *)
let add_fallbacks reason n counts =
  (reason, n + Option.value ~default:0 (List.assoc_opt reason counts))
  :: List.remove_assoc reason counts

(** Fold [t] into [into]. *)
let tally_add into t =
  into.t_transform <- into.t_transform +. t.t_transform;
  into.t_unroll <- into.t_unroll +. t.t_unroll;
  into.t_cleanup <- into.t_cleanup +. t.t_cleanup;
  into.t_partition <- into.t_partition +. t.t_partition;
  into.t_estimate <- into.t_estimate +. t.t_estimate;
  into.t_pareto <- into.t_pareto +. t.t_pareto;
  into.t_symbolic <- into.t_symbolic + t.t_symbolic;
  into.t_fallbacks <-
    List.fold_left
      (fun acc (r, n) -> add_fallbacks r n acc)
      into.t_fallbacks t.t_fallbacks;
  into.t_memo_hits <- into.t_memo_hits + t.t_memo_hits;
  into.t_memo_misses <- into.t_memo_misses + t.t_memo_misses;
  Eval_cache.add_waits into.t_tf_waits t.t_tf_waits;
  Eval_cache.add_waits into.t_band_waits t.t_band_waits

type result = {
  best : evaluated option;  (** lowest latency among feasible points *)
  pareto : evaluated list;  (** latency-increasing Pareto frontier *)
  explored : int;
  module_ : Ir.op;  (** the transformed module of [best] *)
  stats : stats;
}

(* ---- Point application ----------------------------------------------------- *)

let cleanup_passes =
  [
    Canonicalize.pass;
    Simplify_affine_if.pass;
    Canonicalize.pass;
    Store_forward.pass;
    Simplify_memref.pass;
    Cse.pass;
    Canonicalize.pass;
  ]

(* The main band of a function: deepest; ties broken by trip count. *)
let main_band f =
  let bands = Loop_utils.bands f in
  List.fold_left
    (fun acc band ->
      match acc with
      | None -> Some band
      | Some best ->
          let depth b = List.length b in
          let trips b = Option.value ~default:0 (Loop_utils.band_trip_count b) in
          if
            depth band > depth best
            || (depth band = depth best && trips band > trips best)
          then Some band
          else acc)
    None bands

(* Rebuild [f] with the main band transformed by [g]. *)
let on_main_band f g =
  match main_band f with
  | None -> f
  | Some band ->
      let root = List.hd band in
      Loop_utils.replace_band_in f ~old_root:root ~new_root:(g band)

exception Inapplicable

(** The (lp, rvb) preprocessing stage of a design point, shared by every
    point with the same two flags — the DSE engine computes it once per
    combo. RVB runs before LP: once variable bounds are constants,
    perfectization can sink through loops that were potentially empty
    before. *)
let preprocess ctx m ~lp ~rvb =
  let pre =
    (if rvb then [ Remove_var_bound.pass ] else [])
    @ (if lp then [ Loop_perfectization.pass ] else [])
    @ [ Canonicalize.pass ]
  in
  Pass.run_pipeline pre ctx m

(* Passes replayed on the symbolically-expanded module. The rolled module
   already went through the full [cleanup_passes] pipeline, so the
   per-template rewrites are baked into every instance, and
   [Unroll_model.expand] now emits already-canonical instances — access maps
   folded and pruned exactly as canonicalization would, and per-clone guards
   resolved at instantiation with [Simplify_affine_if]'s own decision
   procedure. That leaves only the cross-iteration work the materialized
   path performs on its unrolled body: a canonicalize (dead-code from
   resolved guards, constant folds exposed by splicing), store forwarding
   along the point-iteration chain, memref simplification, CSE across
   clones, and the final canonicalize. The replayed [Simplify_affine_if] was
   measured rewrite-free post-fusion (zero IR delta across every replay on
   the bench kernels and the fuzz corpus) and is dropped; with nothing left
   between them, the two leading canonicalizes merge into one. The
   differential oracle asserts the trimmed replay still matches the
   materialized path op-for-op. *)
let expand_cleanup_passes =
  [
    Canonicalize.pass;
    Store_forward.pass;
    Simplify_memref.pass;
    Cse.pass;
    Canonicalize.pass;
  ]

(* The dependences of a preprocessed function's main band, which every
   point of its (lp, rvb) combo that permutes the band asks for: memoised
   per domain under the physical identity of the function and the band
   root, as {!Estimator} keys its func-info cache. Each domain keeps the
   last [band_deps_slots] bands, so the memo is bounded and needs no lock;
   a search has at most four preprocessed functions. A caller with its own
   preprocessed module (perfbench's replay) misses once per band, as the
   engine does. *)
let band_deps_slots = 8

let band_deps_memo : (Ir.op * Ir.op * Analysis.Dependence.dep list) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let band_deps ~scope band =
  let root = List.hd band in
  let memo = Domain.DLS.get band_deps_memo in
  match List.find_opt (fun (f, r, _) -> f == scope && r == root) !memo with
  | Some (_, _, deps) -> deps
  | None ->
      let deps = Loop_order_opt.band_deps ~scope band in
      memo := (scope, root, deps) :: List.filteri (fun i _ -> i < band_deps_slots - 1) !memo;
      deps

(** Stage 1 of point application, shared by both evaluation modes: permute
    and tile the main band. Raises [Inapplicable] when e.g. the permutation
    is illegal for this point's preprocessing. Only a non-identity
    permutation reads the band's dependences. *)
let permute_tile ctx m ~top (pt : point) : Ir.op =
  let f = Ir.find_func_exn m top in
  let f =
    on_main_band f (fun band ->
        let n = List.length band in
        if List.length pt.perm <> n then raise Inapplicable;
        let root =
          if List.equal Int.equal pt.perm (List.init n Fun.id) then List.hd band
          else if
            (* permutation requires a perfect band: otherwise in-between ops
               would be dropped and the innermost-body dependence analysis is
               incomplete *)
            Affine_d.band_is_perfect band
            && Loop_order_opt.legal_permutation ~deps:(band_deps ~scope:f band) band
                 pt.perm
          then Loop_order_opt.permute_band band pt.perm
          else raise Inapplicable
        in
        let band' = Affine_d.band root in
        let tiles =
          if List.length pt.tiles = List.length band' then pt.tiles
          else raise Inapplicable
        in
        match Loop_tile.tile_band ctx band' ~sizes:tiles with
        | Some root' -> root'
        | None -> root)
  in
  Ir.replace_func m f

(* Stage 2: pipeline every top-level band at the point's depth — either the
   materialized transform (full nested unroll) or its annotation-only twin
   for the symbolic path. The pipeline target is the innermost *original*
   loop, i.e. depth n-1 of the tiled band; the intra-tile point loops sit
   below it. *)
let pipeline_tops ctx m ~top (pt : point) ~annotate : Ir.op =
  let f =
    Loop_utils.map_bands (Ir.find_func_exn m top) (fun band ->
        let root = List.hd band in
        let depth = min (List.length pt.perm - 1) (List.length band - 1) in
        let r =
          if annotate then
            Loop_pipeline.annotate_band ~target_ii:pt.target_ii ~depth root
          else Loop_pipeline.pipeline_band ctx ~target_ii:pt.target_ii ~depth root
        in
        match r with Some o' -> o' | None -> raise Inapplicable)
  in
  Ir.replace_func m f

(** Apply the per-point tail of a design point to the already-preprocessed
    module [m]: permute + tile + pipeline the main band, clean up, derive
    array partitioning. Raises [Inapplicable] when e.g. the permutation is
    illegal for this point's preprocessing.

    [symbolic] (the default) runs the cleanup on the small rolled module and
    expands the intra-tile iterations analytically ({!Unroll_model}),
    falling back to the materialized transform for point shapes the model
    does not support; [~symbolic:false] forces the materialized path. The
    two produce estimator-identical modules (asserted by the differential
    oracle). [tally] accumulates per-stage wall time and the path taken, for
    [--profile]. *)
let apply_preprocessed ?(symbolic = true) ?tally ctx m ~top (pt : point) :
    Ir.op =
  let time bucket f =
    match tally with
    | None -> f ()
    | Some t ->
        let t0 = Obs.Clock.now_ns () in
        let r = f () in
        let dt = Obs.Clock.since_s t0 in
        (match bucket with
        | `Transform -> t.t_transform <- t.t_transform +. dt
        | `Unroll -> t.t_unroll <- t.t_unroll +. dt
        | `Cleanup -> t.t_cleanup <- t.t_cleanup +. dt
        | `Partition -> t.t_partition <- t.t_partition +. dt);
        r
  in
  let m1 = time `Transform (fun () -> permute_tile ctx m ~top pt) in
  let finish m =
    time `Partition (fun () ->
        Pass.run_pipeline [ Canonicalize.pass ] ctx (Array_partition.run ctx m))
  in
  let materialized m1 =
    let m = time `Unroll (fun () -> pipeline_tops ctx m1 ~top pt ~annotate:false) in
    let m = time `Cleanup (fun () -> Pass.run_pipeline cleanup_passes ctx m) in
    finish m
  in
  if not symbolic then materialized m1
  else begin
    let m2 = time `Transform (fun () -> pipeline_tops ctx m1 ~top pt ~annotate:true) in
    let m2 = time `Cleanup (fun () -> Pass.run_pipeline cleanup_passes ctx m2) in
    match time `Unroll (fun () -> Unroll_model.expand ctx m2) with
    | m3, needs_replay ->
        Option.iter (fun t -> t.t_symbolic <- t.t_symbolic + 1) tally;
        let m3 =
          if needs_replay then
            time `Cleanup (fun () ->
                Pass.run_pipeline expand_cleanup_passes ctx m3)
          else m3
        in
        finish m3
    | exception Unroll_model.Unsupported reason ->
        Option.iter
          (fun t -> t.t_fallbacks <- add_fallbacks reason 1 t.t_fallbacks)
          tally;
        materialized m1
  end

(** Apply a design point to a module: returns the transformed module (with
    all levels of cleanup applied and directives set). Raises [Inapplicable]
    when e.g. the permutation is illegal for this point's preprocessing. *)
let apply_point ?symbolic ctx m ~top (pt : point) : Ir.op =
  apply_preprocessed ?symbolic ctx
    (preprocess ctx m ~lp:pt.lp ~rvb:pt.rvb)
    ~top pt

(* ---- Space definition -------------------------------------------------------- *)

(** Cap on a point's tile-size product (its total unroll): {!build_space}'s
    default, and the bound {!evaluate} rejects points above, since
    {!neighbors} can step past a space's cap. *)
let max_unroll = 256

type space = {
  lp_options : bool list;
  rvb_options : bool list;
  perms : int list list;  (** legal permutations of the preprocessed band *)
  tile_options : int list list;  (** per permuted-band loop *)
  ii_options : int list;
  max_unroll : int;  (** cap on the product of tile sizes *)
  trips : int list;
      (** constant trip counts of the main-band loops, in original order
          ([0] when unknown) — cheap per-point feature material for
          surrogate models *)
}

let space_size s =
  List.length s.lp_options * List.length s.rvb_options * List.length s.perms
  * List.fold_left (fun a o -> a * List.length o) 1 s.tile_options
  * List.length s.ii_options

(** Build the design space of [top] in [m]: preprocess with LP+RVB, inspect
    the main band. [max_unroll] caps the product of tile sizes (total unroll
    after absorbing point loops). *)
let build_space ?(max_unroll = max_unroll) ?(max_ii = 8) ctx m ~top =
  let m' =
    Pass.run_pipeline
      [ Remove_var_bound.pass; Loop_perfectization.pass; Canonicalize.pass ]
      ctx m
  in
  let f = Ir.find_func_exn m' top in
  (* LP applicability is judged on the RVB-preprocessed function too: bounds
     made constant may unlock sinking that is unsound beforehand (e.g. a
     possibly-empty triangular loop). *)
  let rvb_applicable = Remove_var_bound.applicable (Ir.find_func_exn m top) in
  let lp_applicable =
    Loop_perfectization.applicable (Ir.find_func_exn m top)
    || Loop_perfectization.applicable
         (Ir.find_func_exn (Pass.run_one Remove_var_bound.pass ctx m) top)
  in
  match main_band f with
  | None ->
      {
        lp_options = [ false ];
        rvb_options = [ false ];
        perms = [ [] ];
        tile_options = [];
        ii_options = [ 1 ];
        max_unroll;
        trips = [];
      }
  | Some band ->
      let n = List.length band in
      let deps = Loop_order_opt.band_deps ~scope:f band in
      let identity = List.init n Fun.id in
      let perms =
        List.filter
          (fun p -> Loop_order_opt.legal_permutation ~deps band p)
          (Loop_order_opt.permutations identity)
      in
      let perms = if perms = [] then [ identity ] else perms in
      let tile_options =
        List.map
          (fun l ->
            match Affine_d.const_trip_count l with
            | Some trip when trip > 1 ->
                List.filter (fun p -> trip mod p = 0) (Affine.Solve.powers_of_two (min trip max_unroll))
            | _ -> [ 1 ])
          band
      in
      {
        lp_options = (if lp_applicable then [ true; false ] else [ false ]);
        rvb_options = (if rvb_applicable then [ true; false ] else [ false ]);
        perms;
        tile_options;
        ii_options = List.init max_ii (fun i -> i + 1);
        max_unroll;
        trips =
          List.map
            (fun l -> Option.value ~default:0 (Affine_d.const_trip_count l))
            band;
      }

(* ---- Point canonicalization and cache keys ------------------------------------ *)

(** Canonicalize a design point relative to its (lp, rvb)-preprocessed
    module: clamp tile sizes by {!Loop_tile.tile_band}'s own rule
    ({!Loop_tile.clamp_size} per loop, and every size becomes 1 when the
    band is not {!Loop_tile.tileable}). Two proposals with the same
    canonical form provably produce the same transformed module, so the
    engine keys its evaluation cache on the canonical point — distinct raw
    proposals that only differ in clamped-away tile sizes evaluate once.
    Points the canonicalization cannot interpret (band/perm arity mismatch,
    non-permutation [perm]) are returned unchanged — they are [Inapplicable]
    under any reading. *)
let canonicalize_point pre ~top (pt : point) : point =
  match Ir.find_func pre top with
  | None -> pt
  | Some f -> (
      match main_band f with
      | None -> pt
      | Some band ->
          let n = List.length band in
          if
            List.length pt.perm <> n
            || List.length pt.tiles <> n
            || List.sort compare pt.perm <> List.init n Fun.id
          then pt
          else if not (Loop_tile.tileable band) then
            { pt with tiles = List.map (fun _ -> 1) pt.tiles }
          else begin
            let trips =
              Array.of_list
                (List.map (fun l -> Option.get (Affine_d.const_trip_count l)) band)
            in
            (* [tiles] is in permuted order: position [j] holds the original
               band loop [i] with [perm(i) = j], whose trip count permutation
               preserves. *)
            let inv = Array.make n 0 in
            List.iteri (fun i j -> inv.(j) <- i) pt.perm;
            let tiles =
              List.mapi (fun j s -> Loop_tile.clamp_size ~trip:trips.(inv.(j)) s) pt.tiles
            in
            { pt with tiles }
          end)

(** Evaluation-cache key of a design point: the structural fingerprint of
    its preprocessed module crossed with the canonical directive
    configuration. The fingerprint (rather than the raw (lp, rvb) flags)
    collapses flag combinations whose preprocessing turns out to be a no-op.
    Returns the key together with the canonical point. [pre_fp] supplies a
    memoized fingerprint of [pre] (the engine computes it once per (lp, rvb)
    combo). *)
let cache_key ?pre_fp pre ~top (pt : point) :
    (int64 * int list * int list * int) * point =
  let c = canonicalize_point pre ~top pt in
  let fp = match pre_fp with Some f -> f | None -> Fingerprint.op pre in
  ((fp, c.perm, c.tiles, c.target_ii), c)

(* ---- Evaluation -------------------------------------------------------------- *)

let area_of (e : Estimator.estimate) = e.Estimator.usage.Platform.u_dsp

(** Rewrite every pipelined loop directive to [target_ii]. No transform or
    cleanup pass reads the target II — it only feeds the estimator and
    emission — so the transformed module of a design point is, up to this
    attribute, a function of (preprocessed module, perm, tiles) alone. The
    engine exploits that: one transform run is shared by the whole II ladder
    of sibling points, patched per point by this rewrite. *)
let retarget_ii ~target_ii m =
  let needs_patch o =
    match Hlscpp.get_loop_directive o with
    | Some d -> d.Hlscpp.loop_pipeline && d.Hlscpp.loop_target_ii <> target_ii
    | None -> false
  in
  if not (Walk.exists needs_patch m) then m
  else
    Walk.map_op
      (fun o ->
        if needs_patch o then
          let d = Option.get (Hlscpp.get_loop_directive o) in
          Hlscpp.set_loop_directive o { d with Hlscpp.loop_target_ii = target_ii }
        else o)
      m

type tf_memo = (int64 * int list * int list, Ir.op option) Eval_cache.t
(** Transform memo: (preprocessed-module fingerprint, canonical perm,
    canonical tiles) -> fully transformed module (directives, cleanup and
    partitioning applied), or [None] when that combination is
    {!Inapplicable}. Entries are target-II-agnostic; consumers patch the
    directive with {!retarget_ii}. *)

type eval_cache = (int64 * int list * int list * int, evaluated option) Eval_cache.t
(** The engine's evaluation cache: {!cache_key} -> evaluation outcome
    ([None] = inapplicable). Entries are plain data, valid across runs and
    processes — a persistent service shares one cache between searches
    (see [?cache] on {!run}). *)

(** Evaluate one design point on [pre], the module preprocessed for its
    (lp, rvb) flags, whose fingerprint is [pre_fp]. [symbolic] selects the
    evaluation path (see {!apply_preprocessed}); [tf_memo] memoizes the
    transformed module across the II ladder under [(pre_fp, perm, tiles)];
    [memos] carries the band-granular estimator memo
    ({!Estimator.create_memos}); [tally] accumulates per-stage wall time,
    the estimate's own band-memo hits and misses, and the time blocked on
    other domains' memo fills (kept out of the stage times). A point whose
    tile product exceeds {!max_unroll} gives [None]. Only [Inapplicable]
    means "not a design": any other exception is a transform bug — it is
    logged with the offending point and re-raised rather than silently
    swallowed. *)
let evaluate ~symbolic ~tally ~memos ~(tf_memo : tf_memo) ~pre ~pre_fp ctx ~top
    ~platform (pt : point) : evaluated option =
  let unroll_product = List.fold_left ( * ) 1 pt.tiles in
  if unroll_product > max_unroll then None
  else
    match
      (* The estimator runs on the target-II-agnostic module with the
         point's II applied at read time, so II-ladder siblings reuse its
         per-module analyses by physical identity. *)
      let tm =
        match
          Eval_cache.find_or_add ~waits:tally.t_tf_waits tf_memo
            (pre_fp, pt.perm, pt.tiles)
            (fun () ->
              match apply_preprocessed ~symbolic ~tally ctx pre ~top pt with
              | m -> Some m
              | exception Inapplicable -> None)
        with
        | None -> raise Inapplicable
        | Some tm -> tm
      in
      let waits = tally.t_band_waits in
      let t0 = Obs.Clock.now_ns () and w0 = waits.Eval_cache.seconds in
      let e, (hits, misses) =
        Estimator.estimate_counted ~memos ~loop_ii:pt.target_ii ~band_waits:waits tm ~top
      in
      (* Time blocked on another domain's fill is a wait, not estimation. *)
      tally.t_estimate <-
        tally.t_estimate +. Obs.Clock.since_s t0 -. (waits.Eval_cache.seconds -. w0);
      tally.t_memo_hits <- tally.t_memo_hits + hits;
      tally.t_memo_misses <- tally.t_memo_misses + misses;
      { point = pt; estimate = e; feasible = Platform.fits platform e.Estimator.usage }
    with
    | ev -> Some ev
    | exception Inapplicable -> None
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Logs.err (fun k ->
            k "dse: point %a raised %s" pp_point pt (Printexc.to_string e));
        Printexc.raise_with_backtrace e bt

(* ---- Pareto frontier ----------------------------------------------------------- *)

(** Extract the Pareto frontier over (latency, area), keeping only feasible
    points; sorted by increasing latency. A sort-then-sweep: after stable
    sorting by (latency, area), a point survives iff its area is strictly
    below every earlier survivor's — O(n log n), and identical (latency,
    area) duplicates collapse onto the earliest-listed representative. *)
let pareto_frontier (pts : evaluated list) : evaluated list =
  let feas = List.filter (fun p -> p.feasible) pts in
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = compare a.estimate.Estimator.latency b.estimate.Estimator.latency in
        if c <> 0 then c else compare (area_of a.estimate) (area_of b.estimate))
      feas
  in
  let rec sweep best_area acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if area_of p.estimate < best_area then
          sweep (area_of p.estimate) (p :: acc) rest
        else sweep best_area acc rest
  in
  sweep max_int [] sorted

(* ---- Sampling and neighbors ------------------------------------------------------ *)

let random_point rng (s : space) : point =
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let tile_options = Array.of_list (List.map Array.of_list s.tile_options) in
  (* Tile sizes are sampled under the unroll budget: dims are visited in a
     random order and each picks among options that still fit, so large
     problem sizes do not drown the sampler in infeasible points. *)
  let n = Array.length tile_options in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let tiles = Array.make n 1 in
  let remaining = ref s.max_unroll in
  Array.iter
    (fun d ->
      let opts =
        Array.of_seq
          (Seq.filter (fun t -> t <= !remaining) (Array.to_seq tile_options.(d)))
      in
      let t = if Array.length opts = 0 then 1 else pick opts in
      tiles.(d) <- t;
      remaining := !remaining / max 1 t)
    order;
  let perm = pick (Array.of_list s.perms) in
  let identity = List.init (List.length perm) Fun.id in
  let pick_l l = pick (Array.of_list l) in
  (* A non-identity permutation needs a perfect, constant-bound band: couple
     the LP/RVB knobs to it so samples are not wasted on inapplicable
     points. *)
  let lp = if perm <> identity && List.mem true s.lp_options then true else pick_l s.lp_options in
  let rvb = if perm <> identity && List.mem true s.rvb_options then true else pick_l s.rvb_options in
  { lp; rvb; perm; tiles = Array.to_list tiles; target_ii = pick_l s.ii_options }

(** Closest neighbors of a point: one dimension moved one step. *)
let neighbors (s : space) (pt : point) : point list =
  let adjacent l v =
    (* elements adjacent to v in l (which is ordered) *)
    let rec go = function
      | a :: b :: rest ->
          if a = v then [ b ]
          else if b = v then a :: (match rest with x :: _ -> [ x ] | [] -> [])
          else go (b :: rest)
      | _ -> []
    in
    match go l with
    | [] -> List.filter (fun x -> x <> v) l (* fall back: any other value *)
    | ns -> ns
  in
  let ii_neighbors =
    List.map (fun ii -> { pt with target_ii = ii }) (adjacent s.ii_options pt.target_ii)
  in
  let tile_arr = Array.of_list pt.tiles in
  let tile_neighbors =
    List.concat
      (List.mapi
         (fun i opts ->
           List.map
             (fun v' ->
               let tiles' = Array.copy tile_arr in
               tiles'.(i) <- v';
               { pt with tiles = Array.to_list tiles' })
             (adjacent opts tile_arr.(i)))
         s.tile_options)
  in
  let perm_neighbors =
    List.filter_map
      (fun p -> if p <> pt.perm then Some { pt with perm = p } else None)
      s.perms
  in
  let flag_neighbors =
    (if List.length s.lp_options > 1 then [ { pt with lp = not pt.lp } ] else [])
    @ if List.length s.rvb_options > 1 then [ { pt with rvb = not pt.rvb } ] else []
  in
  ii_neighbors @ tile_neighbors @ perm_neighbors @ flag_neighbors

(* ---- Search strategies ------------------------------------------------------------------ *)

(** The pluggable search-strategy interface. The engine owns everything
    that must not depend on the strategy: budget accounting (proposals are
    truncated to the remaining budget and charged by their post-truncation
    length), the in-flight window and its in-order commit, Pareto
    maintenance, evaluation-cache dedup, and the warm-cache merge
    discipline — a strategy only decides {e which} points to propose next
    and learns from every committed result via [observe]. Because cached
    (warm-store) results occupy a window slot and commit at their admission
    position, [observe] sees the exact same (point, result) sequence warm
    or cold, so a learning strategy replays deterministically through
    {!Serve}'s persistent store. *)
module Strategy = struct
  (** The engine-side view a strategy searches against. [seen] is "already
      proposed this run" (canonical-key identity, shared caches included);
      [canon] canonicalizes a proposal the way the evaluation cache will;
      [evaluated] returns all merged results so far, newest first. *)
  type env = {
    space : space;
    rng : Random.State.t;  (** the run's seeded RNG — all draws go here *)
    samples : int;  (** seed-phase random sample count *)
    heuristic_seeds : bool;
    platform : Platform.t;
    seen : point -> bool;
    canon : point -> point;
    evaluated : unit -> evaluated list;
    explored : unit -> int;
    emit_event : string -> (unit -> (string * Obs.Json.t) list) -> unit;
        (** Append a structured line to the search-quality event log
            ([Obs.Events]); the engine stamps the job id and timestamp. The
            field list is a thunk — costs one atomic load when no event sink
            is configured. Strategies use it for learning-health telemetry
            (e.g. surrogate calibration), never for search decisions. *)
  }

  type instance = {
    name : string;
    seed_batch : unit -> point list;  (** the initial evaluation batch *)
    propose : frontier:evaluated list -> remaining:int -> point list;
        (** next batch given the current feasible frontier and the remaining
            evaluation budget; [[]] terminates the search *)
    observe : (point * evaluated option) list -> unit;
        (** every committed chunk, in commit order: (canonical point,
            result) — [None] means inapplicable. Fired for the seed batch
            too. *)
    counters : unit -> (string * int) list;
        (** strategy-specific counters for stats/metrics export *)
  }

  type t = env -> instance
end

(** The engine's standard seed batch: the identity/no-op point, the greedy
    heuristic anchors (per legal permutation, budget-filling innermost-first
    tiles at an II ladder), then [env.samples] random draws. Shared by every
    strategy so runs differing only in strategy start from the same
    evidence. *)
let seed_points (env : Strategy.env) : point list =
  let s = env.Strategy.space in
  let n_band = List.length s.tile_options in
  let base_pt =
    {
      lp = List.hd s.lp_options;
      rvb = List.hd s.rvb_options;
      perm = (match s.perms with p :: _ -> p | [] -> []);
      tiles = List.init n_band (fun _ -> 1);
      target_ii = 1;
    }
  in
  (* Heuristic seeds: for each legal permutation, greedy tile sizes that
     fill the unroll budget innermost-first (the paper's "intra-tile loops
     absorbed innermost and fully unrolled" shape) at a ladder of IIs and
     two unroll budgets. These anchor the frontier so the neighbor traversal
     starts from sensible designs even with few random samples. *)
  let tile_options = Array.of_list s.tile_options in
  let greedy_tiles budget =
    let n = Array.length tile_options in
    let tiles = Array.make n 1 in
    let remaining = ref budget in
    for d = n - 1 downto 0 do
      let opts = List.filter (fun t -> t <= !remaining) tile_options.(d) in
      let t = List.fold_left max 1 opts in
      tiles.(d) <- t;
      remaining := !remaining / max 1 t
    done;
    Array.to_list tiles
  in
  let lp_on = List.mem true s.lp_options
  and rvb_on = List.mem true s.rvb_options in
  let seed_perms =
    if env.Strategy.heuristic_seeds then List.filteri (fun i _ -> i < 4) s.perms
    else []
  in
  let heur_pts =
    List.concat_map
      (fun perm ->
        List.concat_map
          (fun budget ->
            List.map
              (fun target_ii ->
                { lp = lp_on; rvb = rvb_on; perm; tiles = greedy_tiles budget; target_ii })
              [ 1; 8 ])
          [ s.max_unroll; max 1 (s.max_unroll / 4) ])
      seed_perms
  in
  (* Random draws must happen in a defined order (List.init's application
     order is unspecified). *)
  let rng = env.Strategy.rng in
  let rec draw_samples k =
    if k = 0 then [] else random_point rng s :: draw_samples (k - 1)
  in
  (base_pt :: heur_pts) @ draw_samples env.Strategy.samples

(** The fastest infeasible point of [evaluated] (the first one on a latency
    tie): raising its II or shrinking its tiles walks it back inside the
    resource budget, so both strategies traverse its neighbors too. *)
let fastest_infeasible (evaluated : evaluated list) =
  List.fold_left
    (fun acc e ->
      if e.feasible then acc
      else
        match acc with
        | Some b when b.estimate.Estimator.latency <= e.estimate.Estimator.latency
          ->
            acc
        | _ -> Some e)
    None evaluated

(** A fresh random sample while the space is not yet explored, else [[]] —
    the proposal of a strategy that has nothing better left. *)
let random_fallback (env : Strategy.env) =
  if env.Strategy.explored () < space_size env.Strategy.space then
    [ random_point env.Strategy.rng env.Strategy.space ]
  else []

(** The paper's sample + Pareto-neighbor traversal (§5.5.2), verbatim: each
    round picks a random frontier point (or, one round in four when one
    exists, the fastest infeasible point) and proposes all of its unexplored
    closest neighbors; falls back to a fresh random sample when the pick has
    none, and stops only once the whole space is explored. Every RNG draw
    matches the pre-strategy-interface engine exactly — a seeded run is
    bit-identical to the historical behavior. *)
let exhaustive : Strategy.t =
 fun env ->
  let s = env.Strategy.space in
  let rng = env.Strategy.rng in
  let proposed = ref 0 in
  let count ps =
    proposed := !proposed + List.length ps;
    ps
  in
  let propose ~frontier ~remaining:_ =
    match frontier with
    | [] ->
        (* nothing feasible yet: keep sampling *)
        count [ random_point rng s ]
    | _ ->
        (* Traverse neighbors of a random Pareto point, or, one round in
           four, of the fastest infeasible point. *)
        let p =
          match fastest_infeasible (env.Strategy.evaluated ()) with
          | Some b when Random.State.int rng 4 = 0 -> b
          | _ ->
              let fr = Array.of_list frontier in
              fr.(Random.State.int rng (Array.length fr))
        in
        let ns =
          (* Unexplored means "not seen by this run": entries a shared cache
             holds from other runs still merge (warm) through the engine,
             keeping the traversal identical to a cold run. *)
          List.filter (fun n -> not (env.Strategy.seen n)) (neighbors s p.point)
        in
        (* no unexplored neighbor of this point: a random sample avoids
           premature termination *)
        count (match ns with [] -> random_fallback env | _ -> ns)
  in
  {
    Strategy.name = "exhaustive";
    seed_batch = (fun () -> count (seed_points env));
    propose;
    observe = (fun _ -> ());
    counters = (fun () -> [ ("proposed", !proposed) ]);
  }

(* ---- Metrics export ------------------------------------------------------------------ *)

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

(* Publish a finished run's stats into the "dse" metrics registry as
   counters, which accumulate across runs in one process. A per-run value
   (a hit rate, the run's worker use) lives in {!stats}: concurrent runs
   in one daemon would overwrite each other's gauge. Purely observational:
   never feeds back into the search. *)
let record_metrics (s : stats) explored =
  let open Obs.Metrics in
  let reg = registry "dse" in
  let bump name v = add (counter reg name) (float_of_int v) in
  bump "points.explored" explored;
  bump "eval_cache.hits" s.cache_hits;
  bump "eval_cache.misses" s.cache_misses;
  bump "pre_cache.hits" s.pre_hits;
  bump "pre_cache.misses" s.pre_misses;
  bump "est_memo.hits" s.est_memo_hits;
  bump "est_memo.misses" s.est_memo_misses;
  bump "tf_memo.hits" s.tf_hits;
  bump "tf_memo.misses" s.tf_misses;
  bump "points.symbolic" s.symbolic_points;
  bump "points.fallback" s.fallback_points;
  List.iter
    (fun (name, n) -> bump ("strategy." ^ s.strategy ^ "." ^ name) n)
    s.strategy_counters;
  List.iter
    (fun (reason, n) -> bump ("fallback_reason." ^ reason) n)
    s.fallback_reasons;
  List.iter
    (fun (stage, secs) -> add (counter reg ("stage_seconds." ^ stage)) secs)
    s.stage_seconds

(* ---- The engine -------------------------------------------------------------------- *)

(** The search defaults: initial random samples, neighbor-traversal budget,
    RNG seed and in-flight window of the asynchronous executor (see
    [?window] on {!run}). {!run}'s optional arguments default to these, and
    [Serve.Protocol.default_config] — where the CLI takes its flag defaults —
    is built from them, so a flag-less [scalehls-dse], a remote search with
    no config and [scalehls-translate -O] search the same way. *)
let default_samples = 32
let default_iterations = 80
let default_seed = 42
let default_window = 8

(* One in-flight slot of the executor's reorder buffer: a proposal that
   resolved warm from the eval cache at admission time, or a fresh
   evaluation submitted to the worker pool (identified by its stream task
   id). Both occupy a window slot, so warm and cold runs admit and commit
   on the same schedule. *)
type rob_entry =
  | Rob_cached of point * evaluated option
  | Rob_fresh of (int64 * int list * int list * int) * point * int

(** Run the DSE: [samples] initial random points, then up to [iterations]
    neighbor-traversal evaluations. Deterministic for a given
    ([seed], [window]) pair, independently of [jobs] ([jobs <= 0] means one
    worker per core): all search decisions happen on the coordinator;
    workers only evaluate.

    [window] bounds the in-flight evaluations of the asynchronous executor
    (default {!default_window}). The strategy proposes ahead — admissions
    refill the window as commits retire — and results commit strictly in
    admission order, so the search trajectory is a pure function of
    (seed, window): larger windows keep more workers busy between proposals
    but let the strategy run further ahead of the frontier it proposes
    against.

    [window] must be at least 1 and [samples] non-negative; anything else
    raises [Invalid_argument] naming the field before any work starts.

    [jobs] counts the domains that evaluate points, the coordinator
    included: the pool spawns [jobs - 1] workers, and the coordinator
    evaluates queued points whenever a commit waits for a result
    ({!Parpool.await_result}). A coordinator that only waited would be an
    uncounted extra domain — idle, yet stopped by every stop-the-world
    minor collection — so [-j 2] would run three domains on two cores.
    [jobs] is capped at [Domain.recommended_domain_count ()]: point
    evaluation allocates heavily, every minor collection stops all domains,
    and domains beyond the core count add only that synchronization
    (measured ~linear slowdown per extra busy domain on an oversubscribed
    machine), never parallelism. Within the cap the pool does exactly the
    [jobs = 1] work — the transform, band and preprocessing memos fill
    single-flight ({!Eval_cache}), so their hit/miss counts are part of the
    determinism contract — and its spawned workers collect rarely
    ({!Parpool.worker_minor_heap_words}). Fresh points that differ only in
    target II share a transform-memo key and run back to back on one domain
    (a chain, see {!Parpool}) at every [jobs], so they neither block on
    each other's fills nor build one function's {!Estimator.func_info}
    twice; [stats.waits] counts the transform and band waits that are
    left. A dedicated pool (a daemon's) runs every point as its own
    task.

    The service-mode hooks keep the search a pure function of its
    configuration even when state is shared across runs:
    [?cache] supplies a shared (possibly disk-warmed) evaluation cache —
    entries present before a point is first proposed merge into the run as
    if freshly evaluated, in proposal order, so the frontier and explored
    count are bit-identical to a cold run; [?memos] shares the estimator's
    band memo the same way (its func-info cache stays empty: each run keeps
    its own, {!Estimator.for_run}). The run's stats count only its own
    work, also when concurrent searches share these caches: cache hits and
    misses are its warm merges and fresh evaluations, and the band-memo
    counts sum its own estimates. [?pool] runs evaluations on an external worker
    pool (not shut down here); [?batch_wrap] is called around every single
    point evaluation, on the domain that runs it (a worker, or the
    coordinator while it waits), letting a scheduler account concurrent
    searches at single-eval granularity (fairness itself lives in the
    pool's round-robin across streams); [?queue_wait] receives each fresh
    evaluation's pool-queue latency in seconds (admission to start, also
    for a point that joined a sibling's chain), on the same domain — both
    must be thread-safe when [jobs > 1]. [?on_frontier] fires
    with the current frontier and explored count after every traversal
    round (and once at the end) — the streaming hook.

    [?job] is the run's observability identity: it labels every [dse.*]
    trace span ([args.job]) and event-log line, so concurrent searches
    sharing one process (a serve daemon) stay separable in a single Chrome
    trace and event file. Defaults to [top] — meaningful for one-shot CLI
    runs; services pass their own job id. Purely observational. *)
let run ?(samples = default_samples) ?(iterations = default_iterations)
    ?(seed = default_seed) ?(heuristic_seeds = true) ?(jobs = 1)
    ?(symbolic = true) ?(window = default_window) ?(strategy = exhaustive)
    ?cache:cache_opt ?memos:memos_opt ?pool:pool_opt
    ?(batch_wrap = fun f -> f ()) ?queue_wait ?on_frontier ?job ctx m ~top
    ~platform : result =
  if window < 1 then
    invalid_arg (Printf.sprintf "Dse.run: window must be >= 1 (got %d)" window);
  if samples < 0 then
    invalid_arg (Printf.sprintf "Dse.run: samples must be >= 0 (got %d)" samples);
  let frontier_track =
    (* Separate Chrome counter tracks per explicit job; the default track
       name is stable for single-search runs (and their tests). *)
    match job with None -> "dse.frontier" | Some j -> "dse.frontier." ^ j
  in
  let job = match job with Some j -> j | None -> top in
  let jobs =
    let cores = Domain.recommended_domain_count () in
    if jobs <= 0 then cores else min jobs cores
  in
  let t_start = Obs.Clock.now_ns () in
  let rng = Random.State.make [| seed |] in
  let s = build_space ctx m ~top in
  (* Memoization. The preprocessing cache holds the (lp, rvb)-preprocessed
     module and its fingerprint (4 combos at most). The evaluation cache
     memoizes cache-key -> estimate; keys are (preprocessed-module
     fingerprint × canonical directive config), so proposals that provably
     produce the same transformed module evaluate once. The transform memo
     holds the transformed module of every (perm, tiles) this run built
     until the run ends, shared by the II ladder of sibling points (the
     target II is patched onto the cached module) and the source of the
     best point's module. The estimator's band memo shares schedules
     between structurally identical pipelined bands across points. *)
  let pre_cache : (bool * bool, Ir.op * int64) Eval_cache.t =
    Eval_cache.create ~size:4 ()
  in
  let cache : eval_cache =
    match cache_opt with Some c -> c | None -> Eval_cache.create ()
  in
  let memos =
    match memos_opt with
    | Some ms -> Estimator.for_run ms
    | None -> Estimator.create_memos ()
  in
  (* The per-run "seen" set. With a private cache it mirrors the cache's key
     set; with a shared cache it is the subset this run has proposed, so
     pre-warmed entries are recognized as *new to this run* and merged
     (below) instead of silently skipped. *)
  let seen : (int64 * int list * int list * int, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let tf_memo : tf_memo = Eval_cache.create () in
  let preprocessed lp rvb =
    Eval_cache.find_or_add pre_cache (lp, rvb) (fun () ->
        let pre = preprocess (Ir.Ctx.of_op m) m ~lp ~rvb in
        (pre, Fingerprint.op pre))
  in
  let key_of pt =
    let pre, pre_fp = preprocessed pt.lp pt.rvb in
    cache_key ~pre_fp pre ~top pt
  in
  (* Re-entrant point evaluation: a fresh context derived from the shared
     preprocessed module, so concurrent evaluations never contend and the
     outcome is a pure function of the (canonical) point. Returns the
     evaluation's own tally for the coordinator to fold at commit. *)
  let eval_seconds = Obs.Metrics.histogram (Obs.Metrics.registry "dse") "evaluate_seconds" in
  let eval_one pt =
    Obs.Trace.with_span_args ~cat:"dse" "dse.evaluate"
      ~args:
        (if not (Obs.Trace.enabled ()) then []
         else
           [
             ("job", Obs.Json.String job);
             ("point", Obs.Json.String (Fmt.str "%a" pp_point pt));
           ])
      (fun () ->
        let pre, pre_fp = preprocessed pt.lp pt.rvb in
        let t = tally_zero () in
        let r, secs =
          Obs.Clock.time_s (fun () ->
              evaluate ~symbolic ~tally:t ~memos ~tf_memo ~pre ~pre_fp
                (Ir.Ctx.of_op pre) ~top ~platform pt)
        in
        Obs.Metrics.observe eval_seconds secs;
        let span_args =
          if not (Obs.Trace.enabled ()) then []
          else
            [
              ("symbolic", Obs.Json.Bool (t.t_symbolic > 0));
              ( "outcome",
                Obs.Json.String
                  (match r with
                  | Some { feasible; _ } ->
                      if feasible then "feasible" else "infeasible"
                  | None -> "inapplicable") );
            ]
            @ List.map
                (fun (reason, _) -> ("fallback_reason", Obs.Json.String reason))
                t.t_fallbacks
            @
            match r with
            | Some ev ->
                [ ("latency", Obs.Json.Int ev.estimate.Estimator.latency) ]
            | None -> []
        in
        ((r, t), span_args))
  in
  (* The run's own record of everything it did, folded at commit; [fresh]
     counts the explored points it evaluated (the rest merged warm). *)
  let totals = tally_zero () in
  let evaluated = ref [] in
  let explored = ref 0 in
  let fresh = ref 0 in
  let run_on_pool pool =
  (* The strategy searches through this window onto the engine's state;
     every mutable piece it sees ([seen], [evaluated], [explored]) is
     coordinator-owned and only updated at commit. *)
  let strat =
    strategy
      {
        Strategy.space = s;
        rng;
        samples;
        heuristic_seeds;
        platform;
        seen = (fun pt -> Hashtbl.mem seen (fst (key_of pt)));
        canon = (fun pt -> snd (key_of pt));
        evaluated = (fun () -> !evaluated);
        explored = (fun () -> !explored);
        emit_event =
          (fun ev fields ->
            Obs.Events.emit ev (fun () ->
                ("job", Obs.Json.String job) :: fields ()));
      }
  in
  Obs.Events.emit "dse.job.start" (fun () ->
      [
        ("job", Obs.Json.String job);
        ("top", Obs.Json.String top);
        ("strategy", Obs.Json.String strat.Strategy.name);
        ("samples", Obs.Json.Int samples);
        ("iterations", Obs.Json.Int iterations);
        ("seed", Obs.Json.Int seed);
        ("jobs", Obs.Json.Int jobs);
        ("window", Obs.Json.Int window);
        ("dsp_budget", Obs.Json.Int platform.Platform.dsp);
        ("space", Obs.Json.Int (space_size s));
      ]);
  (* ---- The windowed out-of-order executor ---------------------------------
     Proposals flow through three stages:

       proposal queue --admit--> in-flight window (ROB) --commit--> state

     [admit] resolves one proposal against [seen] (re-proposals drop without
     taking a slot) and the eval cache: a warm entry enters the reorder
     buffer as [Rob_cached], a cold one is submitted to the pool as
     [Rob_fresh]. Both occupy a window slot, so a warm run admits and
     commits on exactly the cold run's schedule. Workers complete out of
     order into the stream; [commit_upto] retires entries strictly in
     admission order, merging each result into the engine state
     ([explored], [evaluated], the eval cache, the run's tally) and feeding
     the strategy's [observe] — the commit order, not worker scheduling,
     defines the engine's state, and the (point, result) sequence [observe]
     sees is identical warm or cold.

     Determinism contract: every commit is triggered by a deterministic
     condition — the window filling during [pump_queue], the commit horizon
     before a propose, or the final drain — never by a result merely being
     available. A result that finishes early parks in the stream until its
     turn, so the state at every propose/observe is a pure function of
     (seed, window), independent of [jobs] and worker timing. *)
  let stream = Parpool.stream ?on_wait:queue_wait pool in
  let pq : point Queue.t = Queue.create () in
  let rob : rob_entry Queue.t = Queue.create () in
  let admitted = ref 0 and committed = ref 0 in
  (* The newest fresh submission per transform-memo key. A fresh point
     whose II-ladder sibling is still queued or running joins that
     sibling's chain ({!Parpool.submit} [~after]): the siblings run back to
     back on one domain and reuse the transformed module, its func-info and
     its bands instead of waiting on each other's fills. *)
  let newest : (int64 * int list * int list, int) Hashtbl.t = Hashtbl.create 64 in
  let admit pt =
    let key, c = key_of pt in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      (match Eval_cache.find_opt cache key with
      | Some res -> Queue.add (Rob_cached (c, res)) rob
      | None ->
          let fp, perm, tiles, _ = key in
          let id =
            Parpool.submit
              ?after:(Hashtbl.find_opt newest (fp, perm, tiles))
              stream
              (fun () -> batch_wrap (fun () -> eval_one c))
          in
          Hashtbl.replace newest (fp, perm, tiles) id;
          Queue.add (Rob_fresh (key, c, id)) rob);
      incr admitted
    end
  in
  (* Retire reorder-buffer entries, in admission order, until [committed]
     reaches [h]; everything committed here forms one [observe] chunk. A
     fresh entry whose result is not yet available stalls the commit: the
     coordinator evaluates queued points meanwhile and blocks only when none
     is queued — the [dse.commit_stall] span covers both (absent when
     results arrive ahead of their turn). A point that raises stores its
     error in its own slot, and its chain keeps going; the commit re-raises
     the first failure in admission order once every in-flight point has
     finished (the stream empties, so the pool stays reusable). *)
  let commit_upto h =
    let chunk = ref [] in
    while !committed < h do
      let c, res =
        match Queue.pop rob with
        | Rob_cached (c, res) -> (c, res)
        | Rob_fresh (key, c, id) -> (
            let r =
              match Parpool.take stream id with
              | Some r -> r
              | None ->
                  Obs.Trace.with_span ~cat:"dse"
                    ~args:[ ("job", Obs.Json.String job) ]
                    "dse.commit_stall"
                    (fun () -> Parpool.await_result stream id)
            in
            match r with
            | Ok (res, t) ->
                Eval_cache.add cache key res;
                tally_add totals t;
                incr fresh;
                (c, res)
            | Error (e, bt) ->
                Queue.iter
                  (function
                    | Rob_fresh (_, _, id') ->
                        ignore (Parpool.await_result stream id')
                    | Rob_cached _ -> ())
                  rob;
                Queue.clear rob;
                Printexc.raise_with_backtrace e bt)
      in
      incr explored;
      Option.iter (fun ev -> evaluated := ev :: !evaluated) res;
      chunk := (c, res) :: !chunk;
      incr committed
    done;
    if !chunk <> [] then strat.Strategy.observe (List.rev !chunk)
  in
  let cap_ok () = !admitted - !committed < window in
  (* The deterministic commit horizon before a propose: everything but the
     freshest [window - 1] admissions must have retired. Committing exactly
     to the horizon — never beyond, even when more results are ready — is
     what keeps the [jobs = 1] schedule (where every result is ready
     instantly) identical to [jobs = N]. *)
  let horizon () = max !committed (!admitted - (window - 1)) in
  (* Feed queued proposals into the window, retiring the oldest entry
     whenever the window is full: the steady state slides one-admit /
     one-commit, with workers up to [window] points ahead of the merge. *)
  let pump_queue () =
    while not (Queue.is_empty pq) do
      if cap_ok () then admit (Queue.pop pq)
      else commit_upto (!committed + 1)
    done
  in
  (* Step 1: the strategy's seed batch (by default the identity/no-op point
     plus heuristic anchors plus random samples, {!seed_points}) — drawn up
     front on the coordinator and admitted budget-free. *)
  List.iter (fun pt -> Queue.add pt pq) (strat.Strategy.seed_batch ());
  pump_queue ();
  (* Steps 2-4: strategy-driven traversal. Each round the engine commits to
     the horizon, snapshots the frontier, and asks the strategy for the next
     proposals; the batch is truncated to the remaining budget and pumped
     through the window. [iterations] budgets the post-seed proposals. *)
  let used = ref 0 in
  let continue_ = ref true in
  let pareto_now () =
    let t0 = Obs.Clock.now_ns () in
    let fr = pareto_frontier !evaluated in
    totals.t_pareto <- totals.t_pareto +. Obs.Clock.since_s t0;
    fr
  in
  (* Frontier-size evolution: one counter sample per traversal round, so the
     trace shows the search converging (and the explored count climbing). *)
  let sample_frontier frontier =
    Obs.Trace.counter ~cat:"dse" frontier_track
      [
        ("size", float_of_int (List.length frontier));
        ("explored", float_of_int !explored);
      ];
    Obs.Events.emit "dse.round" (fun () ->
        [
          ("job", Obs.Json.String job);
          ("explored", Obs.Json.Int !explored);
          ("frontier_size", Obs.Json.Int (List.length frontier));
          ( "frontier",
            (* Latency-increasing, like {!pareto_frontier} — the report's
               hypervolume reconstruction relies on this order. *)
            Obs.Json.List
              (List.map
                 (fun p ->
                   Obs.Json.Obj
                     [
                       ("l", Obs.Json.Int p.estimate.Estimator.latency);
                       ("a", Obs.Json.Int (area_of p.estimate));
                     ])
                 frontier) );
          ( "counters",
            Obs.Json.Obj
              (List.map
                 (fun (k, v) -> (k, Obs.Json.Int v))
                 (strat.Strategy.counters ())) );
        ]);
    match on_frontier with Some cb -> cb frontier !explored | None -> ()
  in
  while !continue_ && !used < iterations do
    commit_upto (horizon ());
    let frontier = pareto_now () in
    sample_frontier frontier;
    match strat.Strategy.propose ~frontier ~remaining:(iterations - !used) with
    | [] -> continue_ := false
    | ps ->
        let batch = List.filteri (fun i _ -> i < iterations - !used) ps in
        used := !used + List.length batch;
        List.iter (fun pt -> Queue.add pt pq) batch;
        pump_queue ()
  done;
  (* Final drain: retire everything still in flight, then snapshot the
     frontier the run returns. *)
  commit_upto !admitted;
  let frontier = pareto_now () in
  sample_frontier frontier;
  let best =
    match frontier with
    | [] -> None
    | p :: _ -> Some p (* lowest latency *)
  in
  let module_ =
    match best with
    | None -> m
    | Some b ->
        (* The best point's module comes from the transform memo, looked up
           without counting. A point merged warm was never transformed
           here: a fully warm replay pays exactly one evaluation to build
           it. *)
        let built () =
          Option.bind (Eval_cache.peek pre_cache (b.point.lp, b.point.rvb))
            (fun (_, fp) ->
              Option.join (Eval_cache.peek tf_memo (fp, b.point.perm, b.point.tiles)))
        in
        let tm =
          match built () with
          | Some tm -> Some tm
          | None ->
              tally_add totals (snd (eval_one b.point));
              built ()
        in
        Option.fold ~none:m ~some:(retarget_ii ~target_ii:b.point.target_ii) tm
  in
  let stats =
    {
      jobs = Parpool.jobs pool;
      wall_seconds = Obs.Clock.since_s t_start;
      pre_hits = Eval_cache.hits pre_cache;
      pre_misses = Eval_cache.misses pre_cache;
      cache_hits = !explored - !fresh;
      cache_misses = !fresh;
      symbolic_points = totals.t_symbolic;
      fallback_points = List.fold_left (fun n (_, k) -> n + k) 0 totals.t_fallbacks;
      fallback_reasons = List.sort compare totals.t_fallbacks;
      est_memo_hits = totals.t_memo_hits;
      est_memo_misses = totals.t_memo_misses;
      tf_hits = Eval_cache.hits tf_memo;
      tf_misses = Eval_cache.misses tf_memo;
      worker_busy = Parpool.busy_fractions pool;
      stage_seconds =
        [
          ("transform", totals.t_transform);
          ("unroll", totals.t_unroll);
          ("cleanup", totals.t_cleanup);
          ("partition", totals.t_partition);
          ("estimate", totals.t_estimate);
          ("pareto", totals.t_pareto);
        ];
      waits =
        List.map
          (fun (memo, (w : Eval_cache.waits)) -> (memo, w.count, w.seconds))
          [ ("transform", totals.t_tf_waits); ("band", totals.t_band_waits) ];
      strategy = strat.Strategy.name;
      strategy_counters = strat.Strategy.counters ();
    }
  in
  record_metrics stats !explored;
  Obs.Events.emit "dse.job.end" (fun () ->
      [
        ("job", Obs.Json.String job);
        ("explored", Obs.Json.Int !explored);
        ("wall_s", Obs.Json.Float stats.wall_seconds);
        ("strategy", Obs.Json.String stats.strategy);
        ( "best_latency",
          match best with
          | Some b -> Obs.Json.Int b.estimate.Estimator.latency
          | None -> Obs.Json.Null );
        ( "counters",
          Obs.Json.Obj
            (List.map (fun (k, v) -> (k, Obs.Json.Int v)) stats.strategy_counters)
        );
      ]);
  { best; pareto = frontier; explored = !explored; module_; stats }
  in
  Obs.Trace.with_span ~cat:"dse"
    ~args:[ ("job", Obs.Json.String job); ("top", Obs.Json.String top) ]
    "dse.run"
    (fun () ->
      match pool_opt with
      | Some pool -> run_on_pool pool
      | None -> Parpool.with_pool ~jobs run_on_pool)
