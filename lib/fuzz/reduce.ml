(** Delta-debugging test-case reduction.

    Shrinks a failing [(module, pipeline)] pair to a minimal reproducer by
    greedily applying structural shrink candidates — dropping pipeline
    stages, dropping ops whose results are unused, unwrapping loops and
    conditionals, halving trip counts — and keeping a candidate only when
    (a) the shrunk module still verifies and (b) the caller's [still_fails]
    oracle still reports a failure.

    Termination is guaranteed by a strictly decreasing {!size} metric: every
    candidate constructively removes at least one op, one pipeline stage, or
    at least one unit of constant trip extent, all of which the metric
    counts. *)

open Mir
open Dialects

type candidate = { module_ : Ir.op; pipeline : string list }

(* ---- Size metric ----------------------------------------------------------- *)

(* Ops weigh 1; affine.for ops additionally weigh their constant trip extent
   (so trip halving is a strict shrink even when no op disappears); the
   pipeline weighs its length. *)
let size (c : candidate) =
  let op_weight =
    Walk.fold_ops
      (fun acc o ->
        let extra =
          if Affine_d.is_for o then
            1 + (match Affine_d.const_trip_count o with Some t -> t | None -> 0)
          else 0
        in
        acc + 1 + extra)
      0 c.module_
  in
  op_weight + List.length c.pipeline

(* ---- Candidate enumeration -------------------------------------------------- *)

(* Replace the [k]-th op (pre-order over nested regions) matching [p] with
   [rewrite op] (a list of ops). Purely structural; returns [None] if fewer
   than [k+1] ops match. *)
let rewrite_nth_matching p rewrite k (m : Ir.op) : Ir.op option =
  let count = ref 0 in
  let hit = ref false in
  let m' =
    Walk.expand_in_op
      (fun o ->
        if p o && not !hit then begin
          let i = !count in
          incr count;
          if i = k then begin
            hit := true;
            rewrite o
          end
          else [ o ]
        end
        else [ o ])
      m
  in
  if !hit then Some m' else None

(* Never drop the structural skeleton or terminators. *)
let droppable o =
  match o.Ir.name with
  | "module" | "func" | "func.return" | "affine.yield" | "scf.yield" -> false
  | _ -> true

(* An op is plausibly removable when none of the values it defines are used
   anywhere (conservative for region-carrying ops, whose internal defs are
   self-used; those are shrunk by the unwrap candidates instead). The final
   authority is the verifier check on the rewritten module. *)
let removable m o =
  let used = Walk.used_values m in
  let defined = Walk.defined_values o in
  droppable o && Ir.Value_set.is_empty (Ir.Value_set.inter defined used)

(* Unwrap an affine.for: substitute the induction variable with the constant
   lower bound and splice the body in place of the loop. Only for constant
   lower bounds (the generated corpus always has them). *)
let unwrap_loop ctx o =
  match Affine_d.const_bounds o with
  | Some (lb, _) ->
      let iv = Affine_d.induction_var o in
      let c_op, c = Arith.constant_i ctx lb in
      let subst = Ir.Value_map.singleton iv.Ir.vid c in
      Some (c_op :: Walk.substitute_uses_in_ops subst (Affine_d.body_nonterm o))
  | None -> None

(* Unwrap an affine.if into one of its branches (minus the yields). *)
let unwrap_if o ~branch =
  match o.Ir.regions with
  | [ [ then_b ]; [ else_b ] ] ->
      let b = if branch = 0 then then_b else else_b in
      Some (List.filter (fun op -> op.Ir.name <> "affine.yield") b.Ir.bops)
  | _ -> None

(* Halve a constant-bound loop's trip extent (keep at least one iteration). *)
let halve_trip o =
  match Affine_d.const_bounds o with
  | Some (lb, ub) when ub - lb >= 2 ->
      let b = Affine_d.bounds o in
      let ub' = lb + ((ub - lb) / 2) in
      Some [ Affine_d.with_bounds o { b with ub_map = Affine.Map.constant [ ub' ] } ]
  | _ -> None

(* All shrink candidates of [c], lazily as thunks, cheapest class first.
   Each candidate strictly decreases {!size}. *)
let candidates ctx (c : candidate) : (unit -> candidate option) list =
  let m = c.module_ in
  let drop_stage i () =
    Some { c with pipeline = List.filteri (fun j _ -> j <> i) c.pipeline }
  in
  let n_stages = List.length c.pipeline in
  let stage_drops =
    (* Try dropping from the front first: the failing stage is usually last. *)
    List.init n_stages (fun i -> drop_stage i)
  in
  let rewrites p rewrite =
    List.init (Walk.count p m) (fun k () ->
        Option.map
          (fun m' -> { c with module_ = m' })
          (rewrite_nth_matching p rewrite k m))
  in
  let op_drops =
    rewrites (removable m) (fun _ -> [])
  in
  let loop_unwraps =
    rewrites
      (fun o -> Affine_d.is_for o && Affine_d.has_const_bounds o)
      (fun o -> match unwrap_loop ctx o with Some ops -> ops | None -> [ o ])
  in
  let if_unwraps =
    List.concat_map
      (fun branch ->
        rewrites Affine_d.is_if (fun o ->
            match unwrap_if o ~branch with Some ops -> ops | None -> [ o ]))
      [ 0; 1 ]
  in
  let trip_halves =
    rewrites
      (fun o ->
        Affine_d.is_for o
        && match Affine_d.const_bounds o with Some (lb, ub) -> ub - lb >= 2 | None -> false)
      (fun o -> match halve_trip o with Some ops -> ops | None -> [ o ])
  in
  stage_drops @ op_drops @ if_unwraps @ loop_unwraps @ trip_halves

(* ---- Greedy reduction loop -------------------------------------------------- *)

type outcome = {
  reduced : candidate;
  steps : int;  (** accepted shrinks *)
  initial_size : int;
  final_size : int;
}

(** Accepted shrinks after which {!run} stops. *)
let max_steps = 200

(** Shrink [c] while [still_fails] holds. The result still fails the oracle
    and is a local minimum: no single candidate shrink keeps it failing
    (unless {!max_steps} shrinks were accepted first). [still_fails c] must
    be true for the input (checked). *)
let run ~still_fails (c : candidate) : outcome =
  if not (still_fails c) then
    invalid_arg "Reduce.run: input does not fail the oracle";
  let initial_size = size c in
  let rec go c steps =
    if steps >= max_steps then (c, steps)
    else
      let sz = size c in
      let ctx = Ir.Ctx.of_op c.module_ in
      let try_one acc thunk =
        match acc with
        | Some _ -> acc
        | None -> (
            match thunk () with
            | None -> None
            | Some c' ->
                if
                  size c' < sz
                  && (match Verify.verify c'.module_ with Ok () -> true | Error _ -> false)
                  && still_fails c'
                then Some c'
                else None)
      in
      match List.fold_left try_one None (candidates ctx c) with
      | Some c' -> go c' (steps + 1)
      | None -> (c, steps)
  in
  let reduced, steps = go c 0 in
  { reduced; steps; initial_size; final_size = size reduced }
