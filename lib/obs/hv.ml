(** The one 2-D hypervolume of the repository: the DSE surrogate's
    acquisition score, the [scalehls-report] HV timelines and the
    surrogate-efficiency test's frontier-quality score all call this
    module, so they can never drift apart. A leaf module (stdlib only) that
    core and obs can both reach. *)

(** 2-D hypervolume (both coordinates minimized) of a point set w.r.t. the
    reference corner [(rl, ra)]: the area of the union of boxes
    [[l, rl] × [a, ra]]. The surrogate strategy's acquisition base — a
    candidate's score is the hypervolume its {e predicted} (latency, area)
    would add. *)
let hv2 ~rl ~ra pts =
  let pts = List.filter (fun (l, a) -> l < rl && a < ra) pts in
  let sorted = List.sort compare pts in
  let front =
    List.rev
      (List.fold_left
         (fun acc (l, a) ->
           match acc with (_, ba) :: _ when a >= ba -> acc | _ -> (l, a) :: acc)
         [] sorted)
  in
  let rec go acc = function
    | [] -> acc
    | (l, a) :: rest ->
        let next = match rest with (l', _) :: _ -> Float.min rl l' | [] -> rl in
        go (acc +. ((next -. l) *. (ra -. a))) rest
  in
  go 0.0 front

(** The DSE frontier-quality metric: {!hv2} of integer (latency, area)
    pairs in (log1p latency) × (linear area) space w.r.t. the reference
    corner [(ref_latency, ref_area)]. The log scale weighs each latency
    decade equally, so the metric rewards covering the whole latency–area
    tradeoff rather than just the high-latency tail. Points at or beyond
    the reference contribute nothing. *)
let log_hv2 ~ref_latency ~ref_area front =
  let lg v = log1p (float_of_int v) in
  hv2 ~rl:(lg ref_latency) ~ra:(float_of_int ref_area)
    (List.map (fun (l, a) -> (lg l, float_of_int a)) front)
