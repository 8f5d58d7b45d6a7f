(** Machine-learning based QoR estimation — the paper's future-work item (3):
    "Machine-learning methods can potentially capture more features from the
    hierarchical IR of ScaleHLS, thereby generating better estimation results
    than the analytical model-based methods."

    A deliberately simple instance: one linear model, recursive least squares
    ({!Online}), serves both uses. Trained in batch ({!train}), it maps
    hierarchical-IR features to the log-latency reported by the virtual
    downstream tool; the training data is generated by sampling the DSE
    space and labelling each point with {!Vhls.Synth.synthesize} — the
    workflow a learned estimator would use against the real tool. Trained
    online from point-level features, it drives the {!surrogate} search
    strategy. *)

open Mir
open Dialects
open Vhls

(* ---- Feature extraction ------------------------------------------------------ *)

let num_features = 8

(** Features of a design (per top function), all scale-compressed with log1p:
    0: total constant-trip iteration volume of the loop nests
    1: pipelined iteration volume (flattened trips under pipeline directives)
    2: sum of pipeline IIs (targets; resource/dependence IIs are the tool's)
    3: FU op count (multiplies/adds/divides) in the IR
    4: memory accesses in the IR
    5: total partition banks over accessed memrefs
    6: loop count
    7: bias *)
let features m ~top =
  let f = Ir.find_func_exn m top in
  let log1p x = log (1.0 +. float_of_int x) in
  let volume = ref 0 and pipe_volume = ref 0 and ii_sum = ref 0 in
  let rec loops mult (o : Ir.op) =
    if Affine_d.is_for o then begin
      let trip = Option.value ~default:1 (Affine_d.const_trip_count o) in
      let mult' = mult * trip in
      volume := !volume + mult';
      (match Hlscpp.pipeline_ii o with
      | Some ii ->
          pipe_volume := !pipe_volume + mult';
          ii_sum := !ii_sum + ii
      | None -> ());
      List.iter (List.iter (fun (b : Ir.block) -> List.iter (loops mult') b.Ir.bops)) o.Ir.regions
    end
    else
      List.iter (List.iter (fun (b : Ir.block) -> List.iter (loops mult) b.Ir.bops)) o.Ir.regions
  in
  loops 1 f;
  let fu = Walk.count (fun o -> Fu.is_fu_op o.Ir.name) f in
  let accesses = Walk.count Memref.is_access f in
  let banks =
    Walk.fold_ops
      (fun acc o ->
        if Memref.is_access o then
          match (Memref.accessed_memref o).Ir.vty with
          | Ty.Memref mr -> acc + Hlscpp.num_banks mr
          | _ -> acc
        else acc)
      0 f
  in
  let nloops = Walk.count Affine_d.is_for f in
  [|
    log1p !volume; log1p !pipe_volume; log1p !ii_sum; log1p fu;
    log1p accesses; log1p banks; log1p nloops; 1.0;
  |]

(* ---- Online recursive least squares ---------------------------------------------- *)

(** Recursive least squares with a Sherman–Morrison covariance update: each
    [observe] is O(dim²), no refit, and the covariance matrix doubles as an
    uncertainty estimate ([leverage] is the predictive-variance scale of a
    feature vector — large for designs unlike anything observed). Purely
    deterministic: the state after n observations is a function of the
    observation sequence, which is what lets a surrogate-guided DSE replay
    bit-for-bit through the serve store's warm-cache merges. *)
module Online = struct
  type t = {
    dim : int;
    w : float array;  (** weights *)
    p : float array array;  (** inverse-Gram (covariance) estimate *)
    mutable n : int;  (** observations so far *)
  }

  let dot a b =
    let s = ref 0.0 in
    Array.iteri (fun i ai -> s := !s +. (ai *. b.(i))) a;
    !s

  (** [tau] is the prior variance: large = weakly regularized. *)
  let create ?(dim = 8) ?(tau = 100.) () =
    {
      dim;
      w = Array.make dim 0.0;
      p = Array.init dim (fun i -> Array.init dim (fun j -> if i = j then tau else 0.0));
      n = 0;
    }

  let count t = t.n

  let predict t x = dot t.w x

  (** Predictive-variance scale x^T P x (the statistical leverage of [x]
      under the current design): shrinks as similar points are observed. *)
  let leverage t x =
    let px = Array.init t.dim (fun i -> dot t.p.(i) x) in
    Float.max 0.0 (dot x px)

  let observe t x y =
    let px = Array.init t.dim (fun i -> dot t.p.(i) x) in
    let k = 1.0 /. (1.0 +. dot x px) in
    let err = y -. dot t.w x in
    for i = 0 to t.dim - 1 do
      t.w.(i) <- t.w.(i) +. (k *. px.(i) *. err)
    done;
    for i = 0 to t.dim - 1 do
      for j = 0 to t.dim - 1 do
        t.p.(i).(j) <- t.p.(i).(j) -. (k *. px.(i) *. px.(j))
      done
    done;
    t.n <- t.n + 1
end

(* ---- Training against the virtual tool ------------------------------------------ *)

type sample = { x : float array; y_log : float }

(** Label a design with the virtual tool. *)
let sample design ~top =
  let r = Synth.synthesize design ~top in
  {
    x = features design ~top;
    y_log = log (1.0 +. float_of_int r.Synth.latency);
  }

(** Train on randomly sampled DSE points of the given (module, top) pairs:
    one {!Online} model (prior variance [tau = 100]) observes every sample
    in batch. Returns the model and the training samples. *)
let train ?(points_per_design = 12) ?(seed = 17) ctx designs =
  let rng = Random.State.make [| seed |] in
  let samples = ref [] in
  List.iter
    (fun (m, top) ->
      samples := sample m ~top :: !samples;
      let space = Dse.build_space ~max_unroll:64 ~max_ii:8 ctx m ~top in
      let made = ref 0 and attempts = ref 0 in
      while !made < points_per_design && !attempts < 4 * points_per_design do
        incr attempts;
        let pt = Dse.random_point rng space in
        match Dse.apply_point ctx m ~top pt with
        | m' ->
            incr made;
            samples := sample m' ~top :: !samples
        | exception Dse.Inapplicable -> ()
      done)
    designs;
  let samples = !samples in
  let model = Online.create ~dim:num_features () in
  List.iter (fun s -> Online.observe model s.x s.y_log) samples;
  (model, samples)

(** Predicted latency (cycles) of a design under a {!train}ed model. *)
let predict model design ~top =
  let lat = exp (Online.predict model (features design ~top)) -. 1.0 in
  max 1 (int_of_float lat)

(** Mean absolute log-error of the model on samples (lower is better; 0.69
    corresponds to a 2x average ratio). *)
let mean_abs_log_error model samples =
  let total =
    List.fold_left
      (fun acc s -> acc +. Float.abs (Online.predict model s.x -. s.y_log))
      0.0 samples
  in
  total /. float_of_int (max 1 (List.length samples))

(* ---- Point-level features -------------------------------------------------------- *)

let point_dim = 8

(** Features of a design {e point} — computable from the {!Dse.space} alone,
    without applying the transform (that is the entire point: the surrogate
    must be orders of magnitude cheaper than an exact evaluation, and
    {!features} walks the transformed IR). The dominant latency terms of the
    analytical model are recovered symbolically: pipeline iteration count
    [volume / unroll] and its product with the target II. *)
let point_features (s : Dse.space) (pt : Dse.point) : float array =
  let fl = float_of_int in
  let volume = List.fold_left (fun a t -> a * max 1 t) 1 s.Dse.trips in
  let unroll = List.fold_left (fun a t -> a * max 1 t) 1 pt.Dse.tiles in
  let iters = max 1 (volume / max 1 unroll) in
  let n = List.length pt.Dse.perm in
  (* Original index of the loop that ends up innermost (the pipelined one):
     the i with perm(i) = n-1. Captures how permutation moves reuse. *)
  let inner =
    let rec find i = function
      | [] -> 0
      | j :: rest -> if j = n - 1 then i else find (i + 1) rest
    in
    find 0 pt.Dse.perm
  in
  [|
    1.0;
    log1p (fl iters);
    log1p (fl pt.Dse.target_ii);
    log1p (fl unroll);
    log1p (fl iters *. fl pt.Dse.target_ii);
    (if pt.Dse.lp then 1.0 else 0.0);
    (if pt.Dse.rvb then 1.0 else 0.0);
    (if n = 0 then 0.0 else fl (inner + 1) /. fl n);
  |]

(* ---- Surrogate-guided search strategy --------------------------------------------- *)

type surrogate_config = {
  pool_samples : int;  (** fresh random candidates added to each round's pool *)
  shortlist : int;  (** exact evaluations per round (the shortlist size) *)
  min_train : int;  (** exact results required before the model is trusted *)
  explore : float;  (** weight of the uncertainty (leverage) bonus *)
  wall_margin : float;
      (** resource-wall pruning: drop candidates whose predicted DSP/LUT
          exceed [wall_margin ×] the platform budget (margin absorbs model
          error so borderline designs still get an exact look) *)
}

let default_surrogate_config =
  { pool_samples = 12; shortlist = 6; min_train = 12; explore = 0.1; wall_margin = 1.6 }

(** The surrogate-guided strategy: each round builds a large candidate pool
    (all frontier points' unexplored neighbors, the fastest infeasible
    point's neighbors, fresh random samples), ranks it by the hypervolume
    gain of the {!Online}-RLS-predicted (latency, DSP) plus an uncertainty
    bonus, discards candidates predicted to blow the resource wall, and
    sends only the top [shortlist] to the exact estimator. The three RLS
    models (log-latency, log-DSP, log-LUT) retrain online from every exact
    result the engine merges — including warm-store merges, so remote/warm
    runs replay exactly. Until [min_train] results are in, the pool passes
    through unranked (the engine's budget truncation still applies). *)
let surrogate ?(config = default_surrogate_config) () : Dse.Strategy.t =
 fun env ->
  let open Dse.Strategy in
  let s = env.space in
  let rng = env.rng in
  let lat_m = Online.create ~dim:point_dim () in
  let dsp_m = Online.create ~dim:point_dim () in
  let lut_m = Online.create ~dim:point_dim () in
  let proposed = ref 0 and shortlisted = ref 0 and pruned = ref 0 in
  (* Calibration: once the model is trusted ([min_train] reached), every
     incoming exact result is first *predicted* and the absolute log-space
     error recorded — per objective, into both the "dse" metrics registry
     (histograms [surrogate.abs_log_err.*]) and, per observe batch, a
     [dse.calibration] event with running error quantiles. Predict-before-
     observe: the error measures the model as the search actually used it. *)
  let cal_lat = ref [] and cal_dsp = ref [] and cal_lut = ref [] in
  let cal_hist obj =
    Obs.Metrics.histogram (Obs.Metrics.registry "dse") ("surrogate.abs_log_err." ^ obj)
  in
  let h_lat = cal_hist "latency" and h_dsp = cal_hist "dsp" and h_lut = cal_hist "lut" in
  let cal_quantiles errs =
    let a = Array.of_list !errs in
    Array.sort compare a;
    let n = Array.length a in
    let at p =
      if n = 0 then 0.
      else a.(max 0 (min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1))))))
    in
    Obs.Json.Obj
      [
        ("p50", Obs.Json.Float (at 0.5));
        ("p90", Obs.Json.Float (at 0.9));
        ("max", Obs.Json.Float (if n = 0 then 0. else a.(n - 1)));
      ]
  in
  let observe obs =
    let fresh_cal = ref false in
    List.iter
      (fun (pt, res) ->
        match res with
        | Some (ev : Dse.evaluated) ->
            let x = point_features s pt in
            let e = ev.Dse.estimate in
            let yl = log1p (float_of_int e.Estimator.latency) in
            let yd = log1p (float_of_int e.Estimator.usage.Platform.u_dsp) in
            let yu = log1p (float_of_int e.Estimator.usage.Platform.u_lut) in
            if Online.count lat_m >= config.min_train then begin
              let record cell h m y =
                let err = Float.abs (Online.predict m x -. y) in
                cell := err :: !cell;
                Obs.Metrics.observe h err
              in
              record cal_lat h_lat lat_m yl;
              record cal_dsp h_dsp dsp_m yd;
              record cal_lut h_lut lut_m yu;
              fresh_cal := true
            end;
            Online.observe lat_m x yl;
            Online.observe dsp_m x yd;
            Online.observe lut_m x yu
        | None -> ())
      obs;
    if !fresh_cal then
      env.emit_event "dse.calibration" (fun () ->
          [
            ("n", Obs.Json.Int (List.length !cal_lat));
            ( "objectives",
              Obs.Json.Obj
                [
                  ("latency", cal_quantiles cal_lat);
                  ("dsp", cal_quantiles cal_dsp);
                  ("lut", cal_quantiles cal_lut);
                ] );
          ])
  in
  let random_fallback () =
    if env.explored () < Dse.space_size s then [ Dse.random_point rng s ]
    else []
  in
  let propose ~frontier ~remaining =
    match frontier with
    | [] -> random_fallback ()
    | _ ->
        let infeasible_best =
          List.fold_left
            (fun acc (e : Dse.evaluated) ->
              if e.Dse.feasible then acc
              else
                match acc with
                | Some (b : Dse.evaluated)
                  when b.Dse.estimate.Estimator.latency
                       <= e.Dse.estimate.Estimator.latency ->
                    acc
                | _ -> Some e)
            None
            (env.evaluated ())
        in
        let parents =
          frontier @ match infeasible_best with Some b -> [ b ] | None -> []
        in
        let rec draw k =
          if k = 0 then [] else Dse.random_point rng s :: draw (k - 1)
        in
        let pool0 =
          List.concat_map
            (fun (e : Dse.evaluated) -> Dse.neighbors s e.Dse.point)
            parents
          @ draw config.pool_samples
        in
        (* Canonical-form dedup; already-proposed points never re-enter. *)
        let in_pool = Hashtbl.create 64 in
        let pool =
          List.filter_map
            (fun pt ->
              let c = env.canon pt in
              if env.seen c || Hashtbl.mem in_pool c then None
              else begin
                Hashtbl.replace in_pool c ();
                Some c
              end)
            pool0
        in
        proposed := !proposed + List.length pool;
        if pool = [] then random_fallback ()
        else if Online.count lat_m < config.min_train then begin
          shortlisted := !shortlisted + List.length pool;
          pool
        end
        else begin
          let platform = env.platform in
          let fr =
            List.map
              (fun (e : Dse.evaluated) ->
                ( log1p (float_of_int e.Dse.estimate.Estimator.latency),
                  float_of_int (Dse.area_of e.Dse.estimate) ))
              frontier
          in
          let rl = 1.0 +. List.fold_left (fun a (l, _) -> Float.max a l) 0.0 fr
          and ra = float_of_int platform.Platform.dsp in
          let base_hv = Obs.Hv.hv2 ~rl ~ra fr in
          let scored =
            List.filter_map
              (fun c ->
                let x = point_features s c in
                let pred_dsp = expm1 (Online.predict dsp_m x) in
                let pred_lut = expm1 (Online.predict lut_m x) in
                if
                  pred_dsp > config.wall_margin *. float_of_int platform.Platform.dsp
                  || pred_lut
                     > config.wall_margin *. float_of_int platform.Platform.lut
                then begin
                  incr pruned;
                  None
                end
                else
                  let pl = Float.max 0.0 (Online.predict lat_m x) in
                  let gain =
                    Obs.Hv.hv2 ~rl ~ra ((pl, Float.max 0.0 pred_dsp) :: fr) -. base_hv
                  in
                  let bonus = config.explore *. sqrt (Online.leverage lat_m x) in
                  Some (c, (gain /. Float.max 1e-9 base_hv) +. bonus))
              pool
          in
          match scored with
          | [] -> random_fallback ()
          | _ ->
              (* Stable sort: equal scores keep pool (insertion) order, so
                 ranking is deterministic. *)
              let ranked =
                List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a) scored
              in
              let k = max 1 (min config.shortlist remaining) in
              let short = List.filteri (fun i _ -> i < k) ranked in
              shortlisted := !shortlisted + List.length short;
              List.map fst short
        end
  in
  {
    Dse.Strategy.name = "surrogate";
    seed_batch =
      (fun () ->
        let ps = Dse.seed_points env in
        proposed := !proposed + List.length ps;
        shortlisted := !shortlisted + List.length ps;
        ps);
    propose;
    observe;
    counters =
      (fun () ->
        [
          ("proposed", !proposed);
          ("shortlisted", !shortlisted);
          ("pruned_by_model", !pruned);
        ]);
  }

(* ---- Strategy registry ------------------------------------------------------------ *)

let strategy_names = [ "exhaustive"; "surrogate" ]

(** Resolve a strategy by its CLI/protocol name. Lives here (not in {!Dse})
    because the surrogate closes over this module's models; {!Dse} cannot
    depend on it. *)
let strategy_of_name = function
  | "exhaustive" -> Some Dse.exhaustive
  | "surrogate" -> Some (surrogate ())
  | _ -> None
