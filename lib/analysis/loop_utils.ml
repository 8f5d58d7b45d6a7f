(** Loop-band analysis utilities shared by the transform passes, the QoR
    estimator, and the DSE engine. A {e loop band} (Table 2) is a maximal
    chain of singly-nested [affine.for] ops. *)

open Mir
open Dialects

module A = Affine

(** Top-level affine loops of a function body (band roots). *)
let top_loops f = List.filter Affine_d.is_for (Func.func_body f)

(** All bands of a function: one per top-level loop. *)
let bands f = List.map Affine_d.band (top_loops f)

(** The induction variables of a band, outermost first. *)
let band_ivs band = List.map Affine_d.induction_var band

(** Product of constant trip counts of a band ([None] if any is unknown). *)
let band_trip_count band =
  List.fold_left
    (fun acc l ->
      match (acc, Affine_d.const_trip_count l) with
      | Some a, Some t -> Some (a * t)
      | _ -> None)
    (Some 1) band

(** Replace the band rooted at [old_root] inside function [f] by
    [new_root]. *)
let replace_band_in f ~old_root ~new_root =
  let replaced = ref false in
  let rec rewrite ops =
    List.map
      (fun o ->
        if (not !replaced) && o == old_root then begin
          replaced := true;
          new_root
        end
        else
          {
            o with
            Ir.regions =
              List.map
                (List.map (fun b -> { b with Ir.bops = rewrite b.Ir.bops }))
                o.Ir.regions;
          })
      ops
  in
  let f' = Ir.with_body f (rewrite (Func.func_body f)) in
  if not !replaced then invalid_arg "Loop_utils.replace_band_in: root not found";
  f'

(** Map from value id to the affine.for op (within [scope]) whose induction
    variable it is. *)
let iv_defs scope =
  let tbl = Hashtbl.create 32 in
  Walk.iter_op
    (fun o ->
      if Affine_d.is_for o then
        Hashtbl.replace tbl (Affine_d.induction_var o).Ir.vid o)
    scope;
  tbl

(** Inclusive value ranges of the index values of [scope], by value id: one
    walk builds the table, covering every [arith.constant] result ([(c, c)])
    and every affine induction variable with constant bounds ([(lb, ub-1)]).
    Callers build it once per scope and query it per operand. *)
let range_env scope =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  Walk.iter_op
    (fun o ->
      if Arith.is_constant o then (
        match Arith.constant_int_value o with
        | Some c ->
            List.iter
              (fun (r : Ir.value) -> Hashtbl.replace tbl r.Ir.vid (c, c))
              o.Ir.results
        | None -> ())
      else if Affine_d.is_for o then
        match Affine_d.const_bounds o with
        | Some (lb, ub) when ub > lb ->
            Hashtbl.replace tbl (Affine_d.induction_var o).Ir.vid (lb, ub - 1)
        | _ -> ())
    scope;
  tbl
