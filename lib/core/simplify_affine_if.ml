(** The [-simplify-affine-if] pass (§5.4): eliminate dead branches of
    [affine.if] operations by deciding always-true / always-false conditions
    with affine (interval) analysis over the operand ranges. Crucial after
    full unrolling: the first/last-iteration guards inserted by loop
    perfectization and the domain guards from remove-variable-bound fold
    into straight-line code. *)

open Mir
open Dialects
open Analysis

module A = Affine

(* [ranges] is the enclosing function's {!Loop_utils.range_env}. *)
let simplify_if ~ranges (o : Ir.op) : Ir.op list option =
  if not (Affine_d.is_if o) then None
  else
    let set = Affine_d.if_set o in
    let ranges =
      List.map (fun (v : Ir.value) -> Hashtbl.find_opt ranges v.Ir.vid) o.Ir.operands
    in
    let take region =
      Some
        (List.concat_map
           (fun (b : Ir.block) ->
             List.filter (fun x -> x.Ir.name <> "affine.yield") b.Ir.bops)
           region)
    in
    match A.Set_.trivial (A.Set_.simplify set) with
    | Some true -> take (Ir.region o 0)
    | Some false -> take (Ir.region o 1)
    | None ->
        if List.for_all Option.is_some ranges then
          let ranges = Array.of_list (List.map Option.get ranges) in
          match A.Set_.simplify_with_ranges set ~ranges with
          | None -> take (Ir.region o 1)
          | Some s when A.Set_.constraints s = [] -> take (Ir.region o 0)
          | Some s -> (
              (* an undecided guard already in this form stays as it is *)
              match o.Ir.attrs with
              | ("set", Attr.Set s0) :: _ when s0 = s -> None
              | _ -> Some [ Ir.set_attr o "set" (Attr.Set s) ])
        else None

let run_on_func _ctx f =
  let ranges = Loop_utils.range_env f in
  Walk.expand_in_op
    (fun o -> match simplify_if ~ranges o with Some ops -> ops | None -> [ o ])
    f

let pass = Pass.on_funcs "simplify-affine-if" run_on_func
