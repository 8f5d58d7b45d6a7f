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

(** Rebuild [f] with the band rooted at each top-level loop replaced by
    [g band], in body order: the one way a band transform is applied to a
    function. Returns [f] itself when [g] returns every band's root. *)
let map_bands f g =
  let changed = ref false in
  let body =
    List.map
      (fun o ->
        if Affine_d.is_for o then begin
          let o' = g (Affine_d.band o) in
          if o' != o then changed := true;
          o'
        end
        else o)
      (Func.func_body f)
  in
  if !changed then Ir.with_body f body else f

(** Replace the band rooted at the top-level loop [old_root] of [f] by
    [new_root]. Raises [Invalid_argument] when [old_root] is not a top-level
    loop of [f]. *)
let replace_band_in f ~old_root ~new_root =
  let found = ref false in
  let f' =
    map_bands f (fun band ->
        let root = List.hd band in
        if root == old_root then begin
          found := true;
          new_root
        end
        else root)
  in
  if not !found then invalid_arg "Loop_utils.replace_band_in: root not found";
  f'

(** Inclusive value ranges of the index values of [scope], by value id: one
    walk builds the table, covering every [arith.constant] result ([(c, c)])
    and every affine induction variable with constant bounds ([(lb, ub-1)]).
    Callers build it once per scope and query it per operand. *)
let range_env scope =
  let tbl = Ir.Vid_tbl.create 64 in
  Walk.iter_op
    (fun o ->
      if Arith.is_constant o then (
        match Arith.constant_int_value o with
        | Some c ->
            List.iter
              (fun (r : Ir.value) -> Ir.Vid_tbl.replace tbl r.Ir.vid (c, c))
              o.Ir.results
        | None -> ())
      else if Affine_d.is_for o then
        match Affine_d.const_bounds o with
        | Some (lb, ub) when ub > lb ->
            Ir.Vid_tbl.replace tbl (Affine_d.induction_var o).Ir.vid (lb, ub - 1)
        | _ -> ())
    scope;
  tbl

(** Inclusive range of the single-result bound [map] applied to [operands],
    over the operands' ranges ([ranges] is a {!range_env}). [None] when the
    map has several results or an operand's range is unknown. *)
let bound_range ~ranges map operands =
  match A.Map.results map with
  | [ e ] ->
      let rs = List.map (fun (v : Ir.value) -> Ir.Vid_tbl.find_opt ranges v.Ir.vid) operands in
      if List.for_all Option.is_some rs then
        A.Solve.range_of_expr ~num_dims:(A.Map.num_dims map)
          ~ranges:(Array.of_list (List.map Option.get rs))
          e
      else None
  | _ -> None
