(** The [-loop-pipelining] pass (§5.3.1): a legal pipeline directive allows no
    hierarchy inside the target loop, so the pass first legalizes the target
    by fully unrolling all contained loops (and requiring contained calls to
    be pipelined functions). On success the loop is annotated with the
    pipeline directive (target II), and every enclosing perfectly-nested loop
    is annotated [flatten] — exactly the Figure 5 (e)/(E) transformation. *)

open Mir
open Dialects

(** Mark [target], the (possibly rewritten) loop at depth [depth] of [band],
    pipelined at [target_ii], and rebuild the chain above it with every
    enclosing loop marked [flatten]. Returns the new band root. *)
let pipeline_chain band ~depth ~target_ii target =
  let pipelined =
    Hlscpp.set_loop_directive target
      {
        Hlscpp.default_loop_directive with
        Hlscpp.loop_pipeline = true;
        loop_target_ii = target_ii;
      }
  in
  let rec build = function
    | [] -> pipelined
    | l :: rest ->
        let inner = build rest in
        let body =
          List.map (fun o -> if Affine_d.is_for o then inner else o) (Ir.body_ops l)
        in
        Hlscpp.set_loop_directive (Ir.with_body l body)
          { Hlscpp.default_loop_directive with Hlscpp.flatten = true }
  in
  build (List.filteri (fun i _ -> i < depth) band)

(** Pipeline the loop at depth [depth] of the band rooted at [root]
    (0 = outermost). Loops nested below the target are fully unrolled; loops
    above are marked [flatten]. Returns [None] when legalization fails. *)
let pipeline_band ctx ?(target_ii = 1) ~depth root =
  let band = Affine_d.band root in
  if depth >= List.length band then None
  else
    match Loop_unroll.unroll_nested ctx (List.nth band depth) with
    | Some legalized when not (Walk.exists Func.is_call legalized) ->
        Some (pipeline_chain band ~depth ~target_ii legalized)
    | _ -> None

(** Symbolic twin of {!pipeline_band}: annotate the target with the pipeline
    directive and the enclosing perfect loops with [flatten] WITHOUT
    materializing the nested full unroll — {!Unroll_model} later expands the
    intra-tile iterations analytically for QoR estimation. Returns [None] in
    exactly the situations where {!pipeline_band} would: depth out of range, a
    nested loop that full unrolling would reject (variable bounds or trip
    count beyond {!Loop_unroll.max_trip}), or a call inside the target. *)
let annotate_band ?(target_ii = 1) ~depth root =
  let band = Affine_d.band root in
  if depth >= List.length band then None
  else
    let target = List.nth band depth in
    let nested_ok =
      List.for_all Loop_unroll.unrollable
        (Walk.collect (fun o -> o != target && Affine_d.is_for o) target)
    in
    (* A call below a trip-0 nested loop vanishes during materialized
       unrolling, so it must not disqualify the annotation either. *)
    let rec live_call (o : Ir.op) =
      Func.is_call o
      || List.exists
           (List.exists (fun (b : Ir.block) ->
                List.exists
                  (fun c ->
                    (not
                       (Affine_d.is_for c && Affine_d.const_trip_count c = Some 0))
                    && live_call c)
                  b.Ir.bops))
           o.Ir.regions
    in
    if (not nested_ok) || live_call target then None
    else Some (pipeline_chain band ~depth ~target_ii target)

(** Pass form: pipeline the innermost loop of every band. *)
let run_on_func ?(target_ii = 1) ctx f =
  Analysis.Loop_utils.map_bands f (fun band ->
      let root = List.hd band in
      Option.value ~default:root
        (pipeline_band ctx ~target_ii ~depth:(List.length band - 1) root))

let pass ?target_ii () =
  Pass.on_funcs "loop-pipelining" (fun ctx f -> run_on_func ?target_ii ctx f)
