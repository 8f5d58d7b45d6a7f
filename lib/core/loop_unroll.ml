(** The [-affine-loop-unroll] pass (§4.3.2, §5.3.1): loop unrolling is
    performed directly in the IR (semantically equivalent to the unroll
    directive). Full unrolling replaces the loop by one body clone per
    iteration with the induction variable substituted by a constant; partial
    unrolling widens the step and replicates the body with
    [affine.apply iv + m*step] offsets (composed into access maps by
    canonicalization). *)

open Mir
open Dialects

module A = Affine

(** Trip count of a constant-bound loop ([None] for variable bounds). The
    single definition shared by materialized unrolling, its symbolic twin
    ({!Unroll_model}), and pipeline legalization checks. *)
let const_trip (o : Ir.op) : int option =
  match Affine_d.const_bounds o with
  | Some (lb, ub) ->
      let step = (Affine_d.bounds o).Affine_d.step in
      Some (max 0 (A.Expr.ceil_div (ub - lb) step))
  | None -> None

(** Would {!unroll_full} succeed on this loop? (Constant bounds, trip within
    [limit].) Used to predict materialized-unroll failure without running
    it. *)
let unrollable ?(limit = 4096) (o : Ir.op) =
  match const_trip o with Some trip -> trip <= limit | None -> false

(** Fully unroll a constant-bound loop; returns the replacement ops, or
    [None] if bounds are unknown or the trip count exceeds [limit]. *)
let unroll_full ?(limit = 4096) ctx (o : Ir.op) : Ir.op list option =
  if not (Affine_d.is_for o) then None
  else
    match const_trip o with
    | Some trip ->
        let lb, _ = Option.get (Affine_d.const_bounds o) in
        let step = (Affine_d.bounds o).Affine_d.step in
        if trip > limit then None
        else begin
          let iv = Affine_d.induction_var o in
          let body =
            List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops o)
          in
          let chunks = ref [] in
          for k = trip - 1 downto 0 do
            let cst, cv = Arith.constant_i ctx (lb + (k * step)) in
            let subst = Ir.Value_map.singleton iv.Ir.vid cv in
            let clones, _ = Clone.ops ~subst ctx body in
            chunks := (cst :: clones) :: !chunks
          done;
          Some (List.concat !chunks)
        end
    | None -> None

(** Partially unroll by [factor] (must divide the trip count); the body is
    replicated [factor] times with the iv offset by [m*step] via
    [affine.apply]. Returns [None] when not applicable. *)
let unroll_by ctx (o : Ir.op) ~factor : Ir.op option =
  if factor <= 1 || not (Affine_d.is_for o) then None
  else
    match const_trip o with
    | Some trip ->
        let b = Affine_d.bounds o in
        let step = b.Affine_d.step in
        if trip mod factor <> 0 then None
        else begin
          let iv = Affine_d.induction_var o in
          let body =
            List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops o)
          in
          let new_body = ref [] in
          for m = factor - 1 downto 0 do
            if m = 0 then begin
              let clones, _ = Clone.ops ctx body in
              new_body := clones @ !new_body
            end
            else begin
              let off_op, off =
                Affine_d.apply ctx
                  ~map:
                    (A.Map.of_expr ~num_dims:1
                       (A.Expr.add (A.Expr.dim 0) (A.Expr.const (m * step))))
                  [ iv ]
              in
              let subst = Ir.Value_map.singleton iv.Ir.vid off in
              let clones, _ = Clone.ops ~subst ctx body in
              new_body := (off_op :: clones) @ !new_body
            end
          done;
          let o' = Ir.with_body o (!new_body @ [ Affine_d.yield ]) in
          Some
            (Affine_d.with_bounds o' { b with Affine_d.step = step * factor })
        end
    | None -> None

(** Fully unroll every affine loop nested (strictly) inside [o] — the
    legalization step of loop pipelining (§5.3.1). Innermost loops are
    unrolled first. Returns [None] if some nested loop cannot be unrolled. *)
let unroll_nested ?(limit = 4096) ctx (o : Ir.op) : Ir.op option =
  let exception Failed in
  let unroll (x : Ir.op) =
    if Affine_d.is_for x then
      match unroll_full ~limit ctx x with Some ops -> ops | None -> raise Failed
    else [ x ]
  in
  try Some (Walk.expand_in_op unroll o) with Failed -> None

(** The standalone pass: unroll innermost loops by [factor] (or fully when
    [factor] is [None]). *)
let run_on_func ?factor ctx f =
  let is_innermost o =
    Affine_d.is_for o && not (Walk.exists (fun x -> x != o && Affine_d.is_for x) o)
  in
  Walk.expand_in_op
    (fun o ->
      if is_innermost o then
        match factor with
        | None -> ( match unroll_full ctx o with Some ops -> ops | None -> [ o ])
        | Some u -> (
            match unroll_by ctx o ~factor:u with Some o' -> [ o' ] | None -> [ o ])
      else [ o ])
    f

let pass ?factor () =
  Pass.on_funcs "affine-loop-unroll" (fun ctx f -> run_on_func ?factor ctx f)
