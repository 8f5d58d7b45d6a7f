(** The surrogate-guided search strategy — the paper's future-work item (3):
    "Machine-learning methods can potentially capture more features from the
    hierarchical IR of ScaleHLS, thereby generating better estimation results
    than the analytical model-based methods."

    A deliberately simple instance: recursive least squares ({!Online}) over
    features of a design {e point} ({!point_features}), trained online from
    every exact estimate the DSE engine commits, ranks candidate points so
    that only a shortlist reaches the analytical estimator ({!surrogate}).
    The module also resolves a search strategy by name
    ({!strategy_of_name}). *)

open Vhls

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

  (** Prior variance of the weights: large = weakly regularized. *)
  let tau = 100.

  let create ~dim =
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

(* ---- Point-level features -------------------------------------------------------- *)

let point_dim = 8

(** Features of a design {e point} — computable from the {!Dse.space} alone,
    without applying the transform (that is the entire point: the surrogate
    must be orders of magnitude cheaper than an exact evaluation). The
    dominant latency terms of the analytical model are recovered
    symbolically: pipeline iteration count [volume / unroll] and its product
    with the target II. *)
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

(** Fresh random candidates added to each round's pool. *)
let pool_samples = 12

(** Exact evaluations per round (the shortlist size). *)
let shortlist = 6

(** Exact results required before the model is trusted. *)
let min_train = 12

(** Weight of the uncertainty (leverage) bonus. *)
let explore = 0.1

(** Resource-wall pruning: drop candidates whose predicted DSP/LUT exceed
    [wall_margin ×] the platform budget (the margin absorbs model error so
    borderline designs still get an exact look). *)
let wall_margin = 1.6

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
let surrogate () : Dse.Strategy.t =
 fun env ->
  let open Dse.Strategy in
  let s = env.space in
  let rng = env.rng in
  let lat_m = Online.create ~dim:point_dim in
  let dsp_m = Online.create ~dim:point_dim in
  let lut_m = Online.create ~dim:point_dim in
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
            if Online.count lat_m >= min_train then begin
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
  let propose ~frontier ~remaining =
    match frontier with
    | [] -> Dse.random_fallback env
    | _ ->
        let parents =
          frontier
          @ Option.to_list (Dse.fastest_infeasible (env.evaluated ()))
        in
        let rec draw k =
          if k = 0 then [] else Dse.random_point rng s :: draw (k - 1)
        in
        let pool0 =
          List.concat_map
            (fun (e : Dse.evaluated) -> Dse.neighbors s e.Dse.point)
            parents
          @ draw pool_samples
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
        if pool = [] then Dse.random_fallback env
        else if Online.count lat_m < min_train then begin
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
                  pred_dsp > wall_margin *. float_of_int platform.Platform.dsp
                  || pred_lut
                     > wall_margin *. float_of_int platform.Platform.lut
                then begin
                  incr pruned;
                  None
                end
                else
                  let pl = Float.max 0.0 (Online.predict lat_m x) in
                  let gain =
                    Obs.Hv.hv2 ~rl ~ra ((pl, Float.max 0.0 pred_dsp) :: fr) -. base_hv
                  in
                  let bonus = explore *. sqrt (Online.leverage lat_m x) in
                  Some (c, (gain /. Float.max 1e-9 base_hv) +. bonus))
              pool
          in
          match scored with
          | [] -> Dse.random_fallback env
          | _ ->
              (* Stable sort: equal scores keep pool (insertion) order, so
                 ranking is deterministic. *)
              let ranked =
                List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a) scored
              in
              let k = max 1 (min shortlist remaining) in
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
