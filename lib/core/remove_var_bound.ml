(** The [-remove-variable-bound] pass (§5.2.3): loops whose bounds are affine
    expressions of outer induction variables are rewritten with the constant
    min (for lower bounds) / max (for upper bounds) of the expression over
    the outer iteration box, and an [affine.if] guarding the original
    iteration domain is inserted around the loop body. This regularizes the
    band for permutation/tiling at the cost of extra (masked) iterations. *)

open Mir
open Dialects
open Analysis

module A = Affine

(* Ranges (inclusive) of a list of operand values, via their defining loops
   or constants: [ranges] is the enclosing function's
   {!Loop_utils.range_env}. *)
let operand_ranges ~ranges operands =
  let rs = List.map (fun (v : Ir.value) -> Hashtbl.find_opt ranges v.Ir.vid) operands in
  if List.for_all Option.is_some rs then
    Some (Array.of_list (List.map Option.get rs))
  else None

(** Rewrite one variable-bound loop. Returns [None] when the loop already has
    constant bounds or when the bound ranges cannot be determined. *)
let remove_step ~ranges (o : Ir.op) : Ir.op option =
  if not (Affine_d.is_for o) then None
  else if Affine_d.has_const_bounds o then None
  else
    let b = Affine_d.bounds o in
    match (A.Map.results b.Affine_d.lb_map, A.Map.results b.Affine_d.ub_map) with
    | [ lb_expr ], [ ub_expr ] -> (
        let lb_rng =
          match A.Expr.as_const (A.Expr.simplify lb_expr) with
          | Some c -> Some (c, c)
          | None ->
              Option.bind (operand_ranges ~ranges b.Affine_d.lb_operands) (fun ranges ->
                  A.Solve.range_of_expr
                    ~num_dims:(A.Map.num_dims b.Affine_d.lb_map)
                    ~ranges lb_expr)
        in
        let ub_rng =
          match A.Expr.as_const (A.Expr.simplify ub_expr) with
          | Some c -> Some (c, c)
          | None ->
              Option.bind (operand_ranges ~ranges b.Affine_d.ub_operands) (fun ranges ->
                  A.Solve.range_of_expr
                    ~num_dims:(A.Map.num_dims b.Affine_d.ub_map)
                    ~ranges ub_expr)
        in
        match (lb_rng, ub_rng) with
        | Some (lb_min, _), Some (_, ub_max) ->
            (* Extend a positive minimum lower bound down to 0: the guard
               masks the extra iterations, and the rounder trip count keeps
               the loop tileable (the paper accepts the iteration increase). *)
            let lb_min = if lb_min > 0 then 0 else lb_min in
            let iv = Affine_d.induction_var o in
            (* Guard: lb_expr <= iv < ub_expr, over dims
               (iv :: lb_operands :: ub_operands). Constraints already true
               statically are dropped by Set_.simplify. *)
            let n_lb = List.length b.Affine_d.lb_operands in
            let lb_shifted = A.Expr.shift_dims 1 lb_expr in
            let ub_shifted = A.Expr.shift_dims (1 + n_lb) ub_expr in
            let set =
              A.Set_.simplify
                (A.Set_.make
                   ~num_dims:(1 + n_lb + List.length b.Affine_d.ub_operands)
                   ~num_syms:0
                   [
                     A.Set_.ge_zero (A.Expr.sub (A.Expr.dim 0) lb_shifted);
                     A.Set_.ge_zero
                       (A.Expr.sub (A.Expr.sub ub_shifted (A.Expr.dim 0)) (A.Expr.const 1));
                   ])
            in
            let operands = (iv :: b.Affine_d.lb_operands) @ b.Affine_d.ub_operands in
            (* Sink the guard into the innermost loop (the paper places the
               affine.if "in the innermost loop for the conditional execution
               of the whole loop body") so the band structure stays visible
               to permutation and tiling. The condition only involves this
               loop's iv and outer ivs, so it is invariant under the inner
               loops and guarding their bodies is equivalent. *)
            (* Sink the guard through nested loops. Non-loop op segments are
               wrapped individually so imperfect bands stay visible to later
               perfectization — but only when each segment's values are used
               exclusively within that segment; otherwise the whole remaining
               body is wrapped at once. *)
            let wrap body =
              Affine_d.if_ ~set ~operands
                ~then_:(body @ [ Affine_d.yield ])
                ~else_:[ Affine_d.yield ]
            in
            let rec guard_body ops =
              let nonterm =
                List.filter (fun x -> x.Ir.name <> "affine.yield") ops
              in
              (* split into segments: Seg of op list | Loop of op *)
              let segments =
                List.fold_left
                  (fun acc o ->
                    if Affine_d.is_for o then `Loop o :: acc
                    else
                      match acc with
                      | `Seg seg :: rest -> `Seg (o :: seg) :: rest
                      | acc -> `Seg [ o ] :: acc)
                  [] nonterm
                |> List.rev_map (function
                     | `Seg seg -> `Seg (List.rev seg)
                     | `Loop o -> `Loop o)
              in
              let defs ops =
                List.fold_left
                  (fun s (o : Ir.op) ->
                    List.fold_left
                      (fun s (v : Ir.value) -> Ir.Value_set.add v.Ir.vid s)
                      s o.Ir.results)
                  Ir.Value_set.empty ops
              in
              let segments_self_contained =
                List.for_all
                  (function
                    | `Loop _ -> true
                    | `Seg seg ->
                        let d = defs seg in
                        List.for_all
                          (fun (o : Ir.op) ->
                            List.memq o seg
                            || Ir.Value_set.is_empty
                                 (Ir.Value_set.inter d (Walk.used_values o)))
                          nonterm)
                  segments
              in
              if (not (List.exists Affine_d.is_for nonterm)) || not segments_self_contained
              then [ wrap nonterm; Affine_d.yield ]
              else
                List.concat_map
                  (function
                    | `Seg seg -> [ wrap seg ]
                    | `Loop o -> [ Ir.with_body o (guard_body (Ir.body_ops o)) ])
                  segments
                @ [ Affine_d.yield ]
            in
            let o' =
              Affine_d.with_bounds o
                {
                  Affine_d.lb_map = A.Map.constant [ lb_min ];
                  lb_operands = [];
                  ub_map = A.Map.constant [ ub_max ];
                  ub_operands = [];
                  step = b.Affine_d.step;
                }
            in
            Some (Ir.with_body o' (guard_body (Ir.body_ops o)))
        | _ -> None)
    | _ -> None

let run_on_func _ctx f =
  let ranges = Loop_utils.range_env f in
  Walk.expand_in_op
    (fun o -> match remove_step ~ranges o with Some o' -> [ o' ] | None -> [ o ])
    f

let pass = Pass.on_funcs "remove-variable-bound" run_on_func

(** Does the function contain variable-bound affine loops? (Reported in the
    DSE results table.) *)
let applicable f =
  Walk.exists (fun o -> Affine_d.is_for o && not (Affine_d.has_const_bounds o)) f
