(** The [-affine-loop-fusion] pass (the loop [merge] directive, §4.3.2):
    fuses adjacent sibling loop nests with identical bounds to improve data
    locality and reduce loop control overhead. Fusion of [L1; L2] is applied
    when, for every memref stored by either loop, every pair of accesses
    (one from each loop) has identical index expressions as a function of the
    induction variable — i.e. the loops are element-wise aligned and fusion
    cannot reorder conflicting accesses. *)

open Mir
open Dialects
open Analysis

module A = Affine

let same_bounds l1 l2 =
  let b1 = Affine_d.bounds l1 and b2 = Affine_d.bounds l2 in
  Affine_d.has_const_bounds l1 && Affine_d.has_const_bounds l2
  && Affine_d.const_bounds l1 = Affine_d.const_bounds l2
  && b1.Affine_d.step = b2.Affine_d.step

let fusion_legal ~scope l1 l2 =
  (* Any access we cannot normalize over the loop's own iv vetoes fusion. *)
  let opaque = ref false in
  let on_opaque _ = opaque := true in
  let a1 =
    Mem_access.collect ~on_opaque ~scope ~basis:[ Affine_d.induction_var l1 ] l1
  and a2 =
    Mem_access.collect ~on_opaque ~scope ~basis:[ Affine_d.induction_var l2 ] l2
  in
  (not !opaque)
  && List.for_all
       (fun (x : Mem_access.t) ->
         List.for_all
           (fun (y : Mem_access.t) ->
             x.Mem_access.memref.Ir.vid <> y.Mem_access.memref.Ir.vid
             || (not (x.Mem_access.is_store || y.Mem_access.is_store))
             || List.length x.Mem_access.exprs = List.length y.Mem_access.exprs
                && List.for_all2
                     (fun ex ey -> A.Expr.equal (A.Expr.simplify ex) (A.Expr.simplify ey))
                     x.Mem_access.exprs y.Mem_access.exprs)
           a2)
       a1

(** Fuse [l2] into [l1]: l2's body is appended to l1's with l2's iv replaced
    by l1's. *)
let fuse ctx l1 l2 =
  let iv1 = Affine_d.induction_var l1 and iv2 = Affine_d.induction_var l2 in
  let body2 = List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops l2) in
  let subst = Ir.Value_map.singleton iv2.Ir.vid iv1 in
  let body2', _ = Clone.ops ~subst ctx body2 in
  let body1 = List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops l1) in
  Ir.with_body l1 (body1 @ body2' @ [ Affine_d.yield ])

(** Fuse adjacent fusable loops in every block, left to right, to fixpoint
    within the block. Pure scalar ops sitting between two loops (leftover
    bound computations) do not block adjacency: they are hoisted before the
    fused loop. *)
let fuse_in_ops ctx ~scope ops =
  let rec span_pure acc = function
    | o :: rest when Arith.is_pure o -> span_pure (o :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | l1 :: rest when Affine_d.is_for l1 -> (
        let pures, tail = span_pure [] rest in
        match tail with
        | l2 :: tail'
          when Affine_d.is_for l2 && same_bounds l1 l2 && fusion_legal ~scope l1 l2 ->
            (* hoist the in-between pure ops before the fused loop *)
            go (List.rev_append pures acc) (fuse ctx l1 l2 :: tail')
        | _ -> go (l1 :: acc) rest)
    | o :: rest -> go (o :: acc) rest
    | [] -> List.rev acc
  in
  go [] ops

let run_on_func ctx f =
  let rec rewrite (o : Ir.op) : Ir.op =
    {
      o with
      Ir.regions =
        List.map
          (List.map (fun b ->
               { b with Ir.bops = fuse_in_ops ctx ~scope:f (List.map rewrite b.Ir.bops) }))
          o.Ir.regions;
    }
  in
  rewrite f

let pass = Pass.on_funcs "affine-loop-fusion" run_on_func
