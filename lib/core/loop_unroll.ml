(** The [-affine-loop-unroll] pass (§4.3.2, §5.3.1): loop unrolling is
    performed directly in the IR (semantically equivalent to the unroll
    directive). Full unrolling replaces the loop by one body clone per
    iteration with the induction variable substituted by a constant; partial
    unrolling ({!unroll_by}, Table 2's unroll factor) widens the step and
    replicates the body with [affine.apply iv + m*step] offsets (composed
    into access maps by canonicalization). The registered pass fully
    unrolls innermost loops. *)

open Mir
open Dialects

module A = Affine

(** The largest trip count a loop may have and still be fully unrolled. *)
let max_trip = 4096

(** Would {!unroll_full} succeed on this loop? (Constant bounds, trip within
    {!max_trip}.) Used to predict materialized-unroll failure without
    running it. *)
let unrollable (o : Ir.op) =
  match Affine_d.const_trip_count o with Some trip -> trip <= max_trip | None -> false

(** Fully unroll a constant-bound loop; returns the replacement ops, or
    [None] if bounds are unknown or the trip count exceeds {!max_trip}. *)
let unroll_full ctx (o : Ir.op) : Ir.op list option =
  if not (Affine_d.is_for o) then None
  else
    match Affine_d.const_trip_count o with
    | Some trip ->
        let lb, _ = Option.get (Affine_d.const_bounds o) in
        let step = (Affine_d.bounds o).Affine_d.step in
        if trip > max_trip then None
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
    match Affine_d.const_trip_count o with
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
let unroll_nested ctx (o : Ir.op) : Ir.op option =
  let exception Failed in
  let unroll (x : Ir.op) =
    if Affine_d.is_for x then
      match unroll_full ctx x with Some ops -> ops | None -> raise Failed
    else [ x ]
  in
  try Some (Walk.expand_in_op unroll o) with Failed -> None

(** The standalone pass: fully unroll every innermost loop that
    {!unroll_full} accepts. *)
let run_on_func ctx f =
  let is_innermost o =
    Affine_d.is_for o && not (Walk.exists (fun x -> x != o && Affine_d.is_for x) o)
  in
  Walk.expand_in_op
    (fun o ->
      if is_innermost o then
        match unroll_full ctx o with Some ops -> ops | None -> [ o ]
      else [ o ])
    f

let pass = Pass.on_funcs "affine-loop-unroll" run_on_func
