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
  cache_hits : int;  (** evaluation-cache hits (re-proposed points) *)
  cache_misses : int;  (** points actually evaluated *)
  symbolic_points : int;  (** points evaluated through the symbolic path *)
  fallback_points : int;  (** symbolic bail-outs re-run materialized *)
  fallback_reasons : (string * int) list;
      (** why the symbolic model bailed, per {!Unroll_model.Unsupported}
          reason, sorted by reason *)
  est_memo_hits : int;
      (** band-granular estimator memo hits (fingerprint-identical pipelined
          bands in hash-identical environments share one schedule) *)
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
  strategy : string;  (** name of the search strategy the run used *)
  strategy_counters : (string * int) list;
      (** strategy-specific counters, e.g. the surrogate's
          proposed/shortlisted/pruned_by_model tallies *)
}

(* ---- Per-evaluation instrumentation --------------------------------------- *)

(** Wall-time tally of one point evaluation (single-threaded: each evaluation
    owns its tally and merges it into the shared {!instr} when done). *)
type tally = {
  mutable t_transform : float;  (** permute + tile + pipeline annotation *)
  mutable t_unroll : float;  (** materialized unroll or symbolic expansion *)
  mutable t_cleanup : float;  (** cleanup pass pipelines *)
  mutable t_partition : float;  (** array partitioning + final canonicalize *)
  mutable t_estimate : float;
  mutable t_symbolic : bool;  (** evaluated through the symbolic path *)
  mutable t_fallback : bool;  (** symbolic bailed out; materialized re-run *)
  mutable t_fallback_reason : string option;
      (** the {!Unroll_model.Unsupported} payload of the bail-out *)
}

let tally_zero () =
  {
    t_transform = 0.;
    t_unroll = 0.;
    t_cleanup = 0.;
    t_partition = 0.;
    t_estimate = 0.;
    t_symbolic = false;
    t_fallback = false;
    t_fallback_reason = None;
  }

(** Shared run-wide instrumentation; worker domains merge tallies under the
    lock. *)
type instr = {
  lock : Mutex.t;
  mutable s_transform : float;
  mutable s_unroll : float;
  mutable s_cleanup : float;
  mutable s_partition : float;
  mutable s_estimate : float;
  mutable s_pareto : float;
  mutable n_symbolic : int;
  mutable n_fallback : int;
  reasons : (string, int) Hashtbl.t;  (** fallback reason -> count *)
}

let instr_create () =
  {
    lock = Mutex.create ();
    s_transform = 0.;
    s_unroll = 0.;
    s_cleanup = 0.;
    s_partition = 0.;
    s_estimate = 0.;
    s_pareto = 0.;
    n_symbolic = 0;
    n_fallback = 0;
    reasons = Hashtbl.create 8;
  }

let instr_merge (i : instr) (t : tally) =
  Mutex.lock i.lock;
  i.s_transform <- i.s_transform +. t.t_transform;
  i.s_unroll <- i.s_unroll +. t.t_unroll;
  i.s_cleanup <- i.s_cleanup +. t.t_cleanup;
  i.s_partition <- i.s_partition +. t.t_partition;
  i.s_estimate <- i.s_estimate +. t.t_estimate;
  if t.t_symbolic then i.n_symbolic <- i.n_symbolic + 1;
  if t.t_fallback then i.n_fallback <- i.n_fallback + 1;
  Option.iter
    (fun r ->
      Hashtbl.replace i.reasons r
        (1 + Option.value ~default:0 (Hashtbl.find_opt i.reasons r)))
    t.t_fallback_reason;
  Mutex.unlock i.lock

let instr_reasons (i : instr) =
  List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) i.reasons [])

let instr_stages (i : instr) =
  [
    ("transform", i.s_transform);
    ("unroll", i.s_unroll);
    ("cleanup", i.s_cleanup);
    ("partition", i.s_partition);
    ("estimate", i.s_estimate);
    ("pareto", i.s_pareto);
  ]

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

(** Stage 1 of point application, shared by both evaluation modes: permute
    and tile the main band. Raises [Inapplicable] when e.g. the permutation
    is illegal for this point's preprocessing. *)
let permute_tile ctx m ~top (pt : point) : Ir.op =
  let f = Ir.find_func_exn m top in
  let f =
    on_main_band f (fun band ->
        let n = List.length band in
        if List.length pt.perm <> n then raise Inapplicable;
        let deps = Loop_order_opt.band_deps ~scope:f band in
        let root =
          if pt.perm = List.init n Fun.id then List.hd band
          else if
            (* permutation requires a perfect band: otherwise in-between ops
               would be dropped and the innermost-body dependence analysis is
               incomplete *)
            Affine_d.band_is_perfect band
            && Loop_order_opt.legal_permutation ~deps band pt.perm
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
  let f = Ir.find_func_exn m top in
  let f =
    Ir.with_body f
      (List.map
         (fun o ->
           if Affine_d.is_for o then begin
             let band = Affine_d.band o in
             let depth = List.length pt.perm - 1 in
             let depth = min depth (List.length band - 1) in
             let r =
               if annotate then
                 Loop_pipeline.annotate_band ~target_ii:pt.target_ii ~depth o
               else
                 Loop_pipeline.pipeline_band ctx ~target_ii:pt.target_ii ~depth o
             in
             match r with Some o' -> o' | None -> raise Inapplicable
           end
           else o)
         (Func.func_body f))
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
    oracle). [tally] accumulates per-stage wall time for [--profile]. *)
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
    | m3, expanded ->
        Option.iter (fun t -> t.t_symbolic <- true) tally;
        let m3 =
          if expanded then
            time `Cleanup (fun () ->
                Pass.run_pipeline expand_cleanup_passes ctx m3)
          else m3
        in
        finish m3
    | exception Unroll_model.Unsupported reason ->
        Option.iter
          (fun t ->
            t.t_fallback <- true;
            t.t_fallback_reason <- Some reason)
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
let build_space ?(max_unroll = 256) ?(max_ii = 8) ctx m ~top =
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
    module: clamp tile sizes exactly the way {!Loop_tile.tile_band} will
    (non-dividing or trivial sizes become 1; every size when the band is
    imperfect or variable-bound, i.e. untileable). Two proposals with the
    same canonical form provably produce the same transformed module, so the
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
          else if
            (not (Affine_d.band_is_perfect band))
            || not (List.for_all Affine_d.has_const_bounds band)
          then { pt with tiles = List.map (fun _ -> 1) pt.tiles }
          else begin
            let trips =
              Array.of_list
                (List.map (fun l -> Option.get (Loop_unroll.const_trip l)) band)
            in
            (* [tiles] is in permuted order: position [j] holds the original
               band loop [i] with [perm(i) = j], whose trip count permutation
               preserves. *)
            let inv = Array.make n 0 in
            List.iteri (fun i j -> inv.(j) <- i) pt.perm;
            let tiles =
              List.mapi
                (fun j s ->
                  let trip = trips.(inv.(j)) in
                  if s > 1 && trip mod s = 0 then s else 1)
                pt.tiles
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

(** Evaluate one design point. [?pre] supplies the (lp, rvb)-preprocessed
    module (the engine memoizes it; without it the preprocessing is run here).
    [?symbolic] selects the evaluation path (default symbolic, see
    {!apply_preprocessed}); [?tf_memo]/[?tf_key] memoize the transformed
    module across the II ladder (the key must be the canonical
    (pre-fingerprint, perm, tiles) of this point); [?memos] carries the
    band-granular estimator memo ({!Estimator.create_memos});
    [?tally] collects per-stage wall time. Only
    [Inapplicable] means "not a design": any other exception is a transform
    bug — it is logged with the offending point and re-raised rather than
    silently swallowed. *)
let evaluate ?(max_unroll = 256) ?symbolic ?tally ?memos ?tf_memo ?tf_key ?pre
    ctx m ~top ~platform (pt : point) : (evaluated * Ir.op) option =
  let unroll_product = List.fold_left ( * ) 1 pt.tiles in
  if unroll_product > max_unroll then None
  else
    let pre_m =
      match pre with Some p -> p | None -> preprocess ctx m ~lp:pt.lp ~rvb:pt.rvb
    in
    match
      let transform () = apply_preprocessed ?symbolic ?tally ctx pre_m ~top pt in
      (* [tm] is the shared target-II-agnostic module the estimator runs on
         (with the point's II applied at read time, so II-ladder siblings
         reuse its per-module analyses by physical identity); [m'] is the
         point's own module with the directive actually patched in. *)
      let tm, m' =
        match (tf_memo, tf_key) with
        | Some (memo : tf_memo), Some key -> (
            let r =
              Eval_cache.find_or_add memo key (fun () ->
                  match transform () with
                  | m -> Some m
                  | exception Inapplicable -> None)
            in
            match r with
            | None -> raise Inapplicable
            | Some tm -> (tm, retarget_ii ~target_ii:pt.target_ii tm))
        | _ ->
            let m' = transform () in
            (m', m')
      in
      let time_estimate f =
        match tally with
        | None -> f ()
        | Some t ->
            let t0 = Obs.Clock.now_ns () in
            let r = f () in
            t.t_estimate <- t.t_estimate +. Obs.Clock.since_s t0;
            r
      in
      let e =
        time_estimate (fun () ->
            Estimator.estimate ?memos ~loop_ii:pt.target_ii tm ~top)
      in
      let feasible = Platform.fits platform e.Estimator.usage in
      ({ point = pt; estimate = e; feasible }, m')
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
        (* Traverse neighbors of a random Pareto point; occasionally also of
           the fastest infeasible point (raising its II or shrinking its
           tiles walks it back inside the resource budget). *)
        let p =
          let infeasible_best =
            List.fold_left
              (fun acc e ->
                if e.feasible then acc
                else
                  match acc with
                  | Some b
                    when b.estimate.Estimator.latency
                         <= e.estimate.Estimator.latency ->
                      acc
                  | _ -> Some e)
              None
              (env.Strategy.evaluated ())
          in
          match infeasible_best with
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
        (match ns with
        | [] ->
            (* no unexplored neighbor of this point; try a random sample to
               avoid premature termination, stop if space is exhausted *)
            if env.Strategy.explored () < space_size s then
              count [ random_point rng s ]
            else []
        | _ -> count ns)
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

(* Publish a finished run's stats into the "dse" metrics registry (counters
   accumulate across runs in one process; gauges reflect the latest run).
   Purely observational: never feeds back into the search. *)
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
  set (gauge reg "eval_cache.hit_rate") (hit_rate s.cache_hits s.cache_misses);
  set (gauge reg "est_memo.hit_rate") (hit_rate s.est_memo_hits s.est_memo_misses);
  set (gauge reg "tf_memo.hit_rate") (hit_rate s.tf_hits s.tf_misses);
  set (gauge reg "points_per_sec")
    (float_of_int explored /. Float.max 1e-9 s.wall_seconds);
  set (gauge reg "jobs") (float_of_int s.jobs);
  List.iter
    (fun (i, f) ->
      let worker = [ ("worker", string_of_int i) ] in
      set (gauge ~labels:worker reg "worker.busy_fraction") f;
      set (gauge ~labels:worker reg "worker.idle_fraction") (1. -. f))
    s.worker_busy;
  List.iter
    (fun (stage, secs) -> add (counter reg ("stage_seconds." ^ stage)) secs)
    s.stage_seconds

(* ---- The engine -------------------------------------------------------------------- *)

(** Default in-flight window of the asynchronous executor (see [?window] on
    {!run}). [Serve.Protocol.default_config] takes its window from here, and
    the CLI and the benchmark take theirs from that record, so a local run,
    a remote run and the benchmark replay the same trajectory. *)
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

    [jobs] is capped at [Domain.recommended_domain_count ()]: point
    evaluation allocates heavily on the shared major heap, and domains beyond
    the core count add only GC-synchronization overhead (measured ~linear
    slowdown per extra busy domain on an oversubscribed machine), never
    parallelism.

    The service-mode hooks keep the search a pure function of its
    configuration even when state is shared across runs:
    [?cache] supplies a shared (possibly disk-warmed) evaluation cache —
    entries present before a point is first proposed merge into the run as
    if freshly evaluated, in proposal order, so the frontier and explored
    count are bit-identical to a cold run; [?memos] shares the estimator's
    band memo the same way. [?pool] runs evaluations on an external worker
    pool (not shut down here); [?batch_wrap] is called around every single
    point evaluation, on the worker that runs it, letting a scheduler
    account concurrent searches at single-eval granularity (fairness itself
    lives in the pool's round-robin across streams); [?queue_wait] receives
    each fresh evaluation's pool-queue latency in seconds, also on the
    worker — both must be thread-safe when [jobs > 1]. [?on_frontier] fires
    with the current frontier and explored count after every traversal
    round (and once at the end) — the streaming hook.

    [?job] is the run's observability identity: it labels every [dse.*]
    trace span ([args.job]) and event-log line, so concurrent searches
    sharing one process (a serve daemon) stay separable in a single Chrome
    trace and event file. Defaults to [top] — meaningful for one-shot CLI
    runs; services pass their own job id. Purely observational. *)
let run ?(samples = 24) ?(iterations = 60) ?(seed = 42) ?(max_unroll = 256)
    ?(max_ii = 8) ?(heuristic_seeds = true) ?(jobs = 1) ?(symbolic = true)
    ?(window = default_window) ?(strategy = exhaustive) ?cache:cache_opt
    ?memos:memos_opt ?pool:pool_opt ?(batch_wrap = fun f -> f ()) ?queue_wait
    ?on_frontier ?job ctx m ~top ~platform : result =
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
  let s = build_space ~max_unroll ~max_ii ctx m ~top in
  let instr = instr_create () in
  (* Memoization. The preprocessing cache holds the (lp, rvb)-preprocessed
     module (4 combos at most; previously recomputed for every point). The
     evaluation cache memoizes cache-key -> estimate and doubles as the
     engine's "seen" set; keys are (preprocessed-module fingerprint ×
     canonical directive config), so proposals that provably produce the same
     transformed module evaluate once. It deliberately does NOT retain
     transformed modules — those are kept separately and only for
     current-frontier points, so memory stays bounded by the frontier, not
     the explored count. The transform memo shares one transform run across
     the II ladder of sibling points (the target II is patched onto the
     cached module), and the estimator's band memo shares schedules between
     structurally identical pipelined bands across points. *)
  let pre_cache : (bool * bool, Ir.op) Eval_cache.t = Eval_cache.create ~size:4 () in
  let cache : eval_cache =
    match cache_opt with Some c -> c | None -> Eval_cache.create ()
  in
  let memos = match memos_opt with Some ms -> ms | None -> Estimator.create_memos () in
  (* Shared caches carry their counters across runs; per-run stats are deltas
     against these baselines (approximate when concurrent runs share the
     cache — counters are process-global, the search itself is not). *)
  let cache_h0 = Eval_cache.hits cache and cache_m0 = Eval_cache.misses cache in
  let memo_h0 = Estimator.memo_hits memos
  and memo_m0 = Estimator.memo_misses memos in
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
        preprocess (Ir.Ctx.of_op m) m ~lp ~rvb)
  in
  (* Preprocessed-module fingerprints, memoized per (lp, rvb) combo.
     Coordinator-only (key_of runs at admission). *)
  let pre_fps : (bool * bool, int64) Hashtbl.t = Hashtbl.create 4 in
  let key_of pt =
    let pre = preprocessed pt.lp pt.rvb in
    let pre_fp =
      match Hashtbl.find_opt pre_fps (pt.lp, pt.rvb) with
      | Some f -> f
      | None ->
          let f = Fingerprint.op pre in
          Hashtbl.replace pre_fps (pt.lp, pt.rvb) f;
          f
    in
    cache_key ~pre_fp pre ~top pt
  in
  (* Re-entrant point evaluation: a fresh context derived from the shared
     preprocessed module, so concurrent evaluations never contend and the
     outcome is a pure function of the (canonical) point. *)
  let eval_seconds = Obs.Metrics.histogram (Obs.Metrics.registry "dse") "evaluate_seconds" in
  let eval_rate = Obs.Metrics.window (Obs.Metrics.registry "dse") "points" in
  let eval_one ?tf_key pt =
    Obs.Trace.with_span_args ~cat:"dse" "dse.evaluate"
      ~args:
        (if not (Obs.Trace.enabled ()) then []
         else
           [
             ("job", Obs.Json.String job);
             ("point", Obs.Json.String (Fmt.str "%a" pp_point pt));
           ])
      (fun () ->
        let pre = preprocessed pt.lp pt.rvb in
        (* Worker-side calls always receive [?tf_key] (derived from the eval
           cache key at admission, on the coordinator): [pre_fps] is a plain
           hashtable the coordinator keeps mutating while workers run, so
           workers must not read it. The fallback below serves the one
           coordinator-side call (the final best-module rebuild), which runs
           with every worker drained. *)
        let tf_key =
          match tf_key with
          | Some k -> k
          | None ->
              let pre_fp =
                match Hashtbl.find_opt pre_fps (pt.lp, pt.rvb) with
                | Some f -> f
                | None -> Fingerprint.op pre
              in
              (pre_fp, pt.perm, pt.tiles)
        in
        let t = tally_zero () in
        let r, secs =
          Obs.Clock.time_s (fun () ->
              evaluate ~max_unroll ~symbolic ~tally:t ~memos ~tf_memo ~tf_key
                ~pre (Ir.Ctx.of_op pre) m ~top ~platform pt)
        in
        instr_merge instr t;
        Obs.Metrics.observe eval_seconds secs;
        Obs.Metrics.mark eval_rate 1.;
        let span_args =
          if not (Obs.Trace.enabled ()) then []
          else
            [
              ("symbolic", Obs.Json.Bool t.t_symbolic);
              ( "outcome",
                Obs.Json.String
                  (match r with
                  | Some ({ feasible; _ }, _) ->
                      if feasible then "feasible" else "infeasible"
                  | None -> "inapplicable") );
            ]
            @ (match t.t_fallback_reason with
              | Some reason -> [ ("fallback_reason", Obs.Json.String reason) ]
              | None -> [])
            @
            match r with
            | Some (ev, _) ->
                [ ("latency", Obs.Json.Int ev.estimate.Estimator.latency) ]
            | None -> []
        in
        (r, span_args))
  in
  let evaluated = ref [] in
  let explored = ref 0 in
  let modules : (point, Ir.op) Hashtbl.t = Hashtbl.create 32 in
  (* Keep transformed modules only for points on the current frontier;
     dominated points can never rejoin it (their dominators are never
     forgotten), so dropping them each round is safe. *)
  let prune_modules frontier =
    let keep = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace keep p.point ()) frontier;
    let drop =
      Hashtbl.fold
        (fun pt _ acc -> if Hashtbl.mem keep pt then acc else pt :: acc)
        modules []
    in
    List.iter (Hashtbl.remove modules) drop
  in
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
     ([explored], [evaluated], the eval cache, retained modules) and feeding
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
  let dse_reg = Obs.Metrics.registry "dse" in
  let g_inflight = Obs.Metrics.gauge dse_reg "window.in_flight" in
  let g_commitq = Obs.Metrics.gauge dse_reg "window.commit_queue" in
  Obs.Metrics.set (Obs.Metrics.gauge dse_reg "window.size") (float_of_int window);
  let pq : point Queue.t = Queue.create () in
  let rob : rob_entry Queue.t = Queue.create () in
  let admitted = ref 0 and committed = ref 0 in
  let window_gauges () =
    Obs.Metrics.set g_inflight (float_of_int (!admitted - !committed));
    Obs.Metrics.set g_commitq (float_of_int (Parpool.completed stream))
  in
  let admit pt =
    let key, c = key_of pt in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      (match Eval_cache.find_opt cache key with
      | Some res -> Queue.add (Rob_cached (c, res)) rob
      | None ->
          let tf_key =
            let fp, perm, tiles, _ = key in
            (fp, perm, tiles)
          in
          let id =
            Parpool.submit stream (fun () ->
                batch_wrap (fun () -> eval_one ~tf_key c))
          in
          Queue.add (Rob_fresh (key, c, id)) rob);
      incr admitted;
      window_gauges ()
    end
  in
  (* Retire reorder-buffer entries, in admission order, until [committed]
     reaches [h]; everything committed here forms one [observe] chunk. A
     fresh entry whose result is not yet available blocks the coordinator —
     that wait is the [dse.commit_stall] span (absent when results arrive
     ahead of their turn). An evaluation failure re-raises on the
     coordinator with the first-by-admission-order exception after in-flight
     siblings drain (the stream empties, so the pool stays reusable). *)
  let commit_upto h =
    let chunk = ref [] in
    while !committed < h do
      (match Queue.pop rob with
      | Rob_cached (c, res) ->
          incr explored;
          (match res with
          | Some ev -> evaluated := ev :: !evaluated
          | None -> ());
          chunk := (c, res) :: !chunk
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
          | Ok res ->
              Eval_cache.add cache key (Option.map fst res);
              incr explored;
              (match res with
              | Some (ev, m') ->
                  evaluated := ev :: !evaluated;
                  if ev.feasible then Hashtbl.replace modules c m'
              | None -> ());
              chunk := (c, Option.map fst res) :: !chunk
          | Error (e, bt) ->
              Queue.iter
                (function
                  | Rob_fresh (_, _, id') ->
                      ignore (Parpool.await_result stream id')
                  | Rob_cached _ -> ())
                rob;
              Queue.clear rob;
              Printexc.raise_with_backtrace e bt));
      incr committed
    done;
    window_gauges ();
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
  (* Frontier extraction is coordinator-only; workers may be evaluating
     concurrently, but they only touch *other* fields of [instr] (under its
     lock), so the unlocked single-writer [s_pareto] accumulation is safe. *)
  let pareto_now () =
    let t0 = Obs.Clock.now_ns () in
    let fr = pareto_frontier !evaluated in
    instr.s_pareto <- instr.s_pareto +. Obs.Clock.since_s t0;
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
    prune_modules frontier;
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
  prune_modules frontier;
  let best =
    match frontier with
    | [] -> None
    | p :: _ -> Some p (* lowest latency *)
  in
  let module_ =
    match best with
    | Some b -> (
        match Hashtbl.find_opt modules b.point with
        | Some m' -> m'
        | None -> (
            (* Expected whenever the best point merged from a shared/warm
               cache: [`Cached] merges carry no transformed module, so a
               fully warm replay pays exactly one [eval_one] here to
               rebuild it. With only fresh evaluations this is unreachable
               — frontier modules are retained by [prune_modules]. *)
            match eval_one b.point with Some (_, m') -> m' | None -> m))
    | None -> m
  in
  let stats =
    {
      jobs = Parpool.jobs pool;
      wall_seconds = Obs.Clock.since_s t_start;
      pre_hits = Eval_cache.hits pre_cache;
      pre_misses = Eval_cache.misses pre_cache;
      cache_hits = Eval_cache.hits cache - cache_h0;
      cache_misses = Eval_cache.misses cache - cache_m0;
      symbolic_points = instr.n_symbolic;
      fallback_points = instr.n_fallback;
      fallback_reasons = instr_reasons instr;
      est_memo_hits = Estimator.memo_hits memos - memo_h0;
      est_memo_misses = Estimator.memo_misses memos - memo_m0;
      tf_hits = Eval_cache.hits tf_memo;
      tf_misses = Eval_cache.misses tf_memo;
      worker_busy = Parpool.busy_fractions pool;
      stage_seconds = instr_stages instr;
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
