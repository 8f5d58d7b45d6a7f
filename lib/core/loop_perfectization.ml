(** The [-affine-loop-perfectization] pass (§5.2.1): operations sitting
    between loop statements make a band imperfect and block tiling, loop
    flattening, and permutation. This pass sinks such in-between operations
    into the inner loop: state-modifying ops (stores) are wrapped in an
    [affine.if] that fires on the inner loop's first (for ops before the
    inner loop) or last (for ops after it) iteration, while pure ops are left
    unguarded in the inner loop body — exactly the hoisting described in the
    paper's SYRK example (Figure 5 (a) → (A)). *)

open Mir
open Dialects

module A = Affine

(* Can we sink these ops? Pure ops, loads and stores are fine; region ops,
   calls and allocs are not. *)
(* State-modifying ops that must be guarded when sunk: stores, and the
   loop-free affine.if guards produced by earlier perfectization steps
   (sinking wraps them in a further first/last-iteration condition). *)
let state_modifying o =
  Memref.is_store o || (Affine_d.is_if o && not (Walk.exists Affine_d.is_for o))

let sinkable o = Arith.is_pure o || Memref.is_access o || state_modifying o

(* Wrap the state-modifying subset of [ops] in an affine.if over the inner
   loop's iv with constraint [cons]; pure ops stay unguarded, in order. The
   guard set has a single dim (the iv) followed by the ub-map dims shifted by
   one. *)
let guard_ops ~set ~operands ops =
  let stores, _pure = List.partition state_modifying ops in
  if stores = [] then ops
  else
    let unguarded = List.filter (fun o -> not (state_modifying o)) ops in
    unguarded
    @ [
        Affine_d.if_ ~set ~operands
          ~then_:(stores @ [ Affine_d.yield ])
          ~else_:[ Affine_d.yield ];
      ]

(* The condition "iv is the first iteration" of [inner]: iv == lb (constant
   lb only). *)
let first_iter_set inner =
  let b = Affine_d.bounds inner in
  match A.Map.is_single_constant b.Affine_d.lb_map with
  | Some lb ->
      Some
        ( A.Set_.make ~num_dims:1 ~num_syms:0
            [ A.Set_.eq_zero (A.Expr.sub (A.Expr.dim 0) (A.Expr.const lb)) ],
          [ Affine_d.induction_var inner ] )
  | _ -> None

(* The condition "iv is the last iteration": iv >= ub - step, where ub may be
   an affine expression of outer dims. Set dims: iv first, then ub operands. *)
let last_iter_set inner =
  let b = Affine_d.bounds inner in
  match A.Map.results b.Affine_d.ub_map with
  | [ ub_expr ] ->
      let shifted = A.Expr.shift_dims 1 ub_expr in
      let cons =
        A.Set_.ge_zero
          (A.Expr.sub (A.Expr.dim 0)
             (A.Expr.sub shifted (A.Expr.const b.Affine_d.step)))
      in
      Some
        ( A.Set_.make
            ~num_dims:(1 + A.Map.num_dims b.Affine_d.ub_map)
            ~num_syms:0 [ cons ],
          Affine_d.induction_var inner :: b.Affine_d.ub_operands )
  | _ -> None

(* Sinking is only sound when the inner loop provably executes at least one
   iteration for every outer iteration (otherwise the sunk ops are lost,
   e.g. TRMM's k = i+1 .. N loop, empty at i = N-1). *)
let provably_nonempty ~ranges (inner : Ir.op) =
  let b = Affine_d.bounds inner in
  match Affine_d.const_bounds inner with
  | Some (lb, ub) -> ub > lb
  | None -> (
      let bound_range = Analysis.Loop_utils.bound_range ~ranges in
      match
        ( bound_range b.Affine_d.lb_map b.Affine_d.lb_operands,
          bound_range b.Affine_d.ub_map b.Affine_d.ub_operands )
      with
      | Some (_, lb_max), Some (ub_min, _) -> ub_min > lb_max
      | _ -> false)

(** Perfectize one level: if [outer]'s body is [pre @ [inner] @ post] with
    sinkable pre/post, sink them into [inner]. Returns [None] if nothing to
    do or not applicable. *)
let perfectize_step ~ranges (outer : Ir.op) : Ir.op option =
  if not (Affine_d.is_for outer) then None
  else
    let body = Affine_d.body_nonterm outer in
    let loops = List.filter Affine_d.is_for body in
    match loops with
    | [ inner ] when provably_nonempty ~ranges inner ->
        let rec split pre = function
          | [] -> (List.rev pre, None, [])
          | o :: rest when o == inner -> (List.rev pre, Some o, rest)
          | o :: rest -> split (o :: pre) rest
        in
        let pre, _, post = split [] body in
        (* Pure scalar ops whose results feed the inner loop's operands
           (bound computations left over from the scf level, possibly dead)
           must not sink: they stay hoisted before the inner loop. *)
        let inner_operand_ids =
          List.fold_left
            (fun s (v : Ir.value) -> Ir.Value_set.add v.Ir.vid s)
            Ir.Value_set.empty inner.Ir.operands
        in
        let feeds_bounds o =
          List.exists (fun (r : Ir.value) -> Ir.Value_set.mem r.Ir.vid inner_operand_ids) o.Ir.results
        in
        let stays, pre = List.partition (fun o -> Arith.is_pure o && feeds_bounds o) pre in
        if List.exists feeds_bounds pre then None
        else
        (* Values defined by the sunk ops must stay within their group: a
           sunk load re-executes every inner iteration, which is only safe
           when its consumers are the stores guarded to the matching first /
           last iteration (i.e., other ops of the same group). *)
        let group_closed group =
          let defined =
            List.fold_left
              (fun s o ->
                List.fold_left (fun s (v : Ir.value) -> Ir.Value_set.add v.Ir.vid s) s o.Ir.results)
              Ir.Value_set.empty group
          in
          let used_outside =
            List.filter (fun o -> not (List.memq o group || List.memq o stays)) body
            |> List.fold_left
                 (fun s o -> Ir.Value_set.union s (Walk.used_values o))
                 Ir.Value_set.empty
          in
          Ir.Value_set.is_empty (Ir.Value_set.inter defined used_outside)
        in
        if pre = [] && post = [] then None
        else if not (List.for_all sinkable (pre @ post)) then None
        else if not (group_closed pre && group_closed post) then None
        else
          let first = first_iter_set inner and last = last_iter_set inner in
          (* A first/last-iteration guard is only required when the sunk
             group actually modifies state; pure groups sink unguarded. *)
          let needs_first = List.exists state_modifying pre in
          let needs_last = List.exists state_modifying post in
          (match ((needs_first, first), (needs_last, last)) with
          | ((true, None), _) | (_, (true, None)) -> None
          | _ ->
              let guarded_pre =
                match (pre, needs_first, first) with
                | [], _, _ -> []
                | _, false, _ -> pre
                | _, true, Some (set, operands) -> guard_ops ~set ~operands pre
                | _, true, None -> assert false
              in
              let guarded_post =
                match (post, needs_last, last) with
                | [], _, _ -> []
                | _, false, _ -> post
                | _, true, Some (set, operands) -> guard_ops ~set ~operands post
                | _, true, None -> assert false
              in
              let inner_body =
                guarded_pre
                @ List.filter (fun o -> o.Ir.name <> "affine.yield") (Ir.body_ops inner)
                @ guarded_post @ [ Affine_d.yield ]
              in
              let inner' = Ir.with_body inner inner_body in
              Some (Ir.with_body outer (stays @ [ inner'; Affine_d.yield ])))
    | _ -> None

(** Perfectize all bands in a function to fixpoint. *)
let run_on_func _ctx f =
  let changed = ref true in
  let f = ref f in
  let fuel = ref 64 in
  while !changed && !fuel > 0 do
    changed := false;
    decr fuel;
    let ranges = Analysis.Loop_utils.range_env !f in
    f :=
      Walk.expand_in_op
        (fun o ->
          match perfectize_step ~ranges o with
          | Some o' ->
              changed := true;
              [ o' ]
          | None -> [ o ])
        !f
  done;
  !f

let pass = Pass.on_funcs "affine-loop-perfectization" run_on_func

(** Would perfectization change anything in this function? (Reported in the
    DSE results table.) *)
let applicable f =
  let ranges = Analysis.Loop_utils.range_env f in
  Walk.exists (fun o -> Option.is_some (perfectize_step ~ranges o)) f
