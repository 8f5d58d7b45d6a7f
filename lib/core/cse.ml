(** The [-cse] pass: common-subexpression elimination of pure scalar ops
    within each block (MLIR built-in behaviour, Table 2). After loop unrolling
    this deduplicates the replicated address arithmetic and constants. *)

open Mir
open Dialects

(* Structural key of a pure op, with operands replaced by their canonical
   representative ids. Result types are part of the key: two constants with
   equal value attrs but different types (e.g. [4 : index] after unrolling vs
   [4.0 : f32]) are distinct values. Attr keys tag the constructor, because
   [Attr.to_string] prints [Int 4] and [Float 4.] identically as ["4"]. *)
let attr_key (k, a) =
  let s =
    match a with
    | Attr.Int i -> "i:" ^ string_of_int i
    | Attr.Float f -> "f:" ^ Fmt.str "%h" f
    | a -> Attr.to_string a
  in
  (k, s)

let key canon (o : Ir.op) =
  let operand_ids =
    List.map
      (fun (v : Ir.value) ->
        match Ir.Vid_tbl.find_opt canon v.Ir.vid with
        | Some (v' : Ir.value) -> v'.Ir.vid
        | None -> v.Ir.vid)
      o.Ir.operands
  in
  ( o.Ir.name,
    operand_ids,
    List.map attr_key o.Ir.attrs,
    List.map (fun (v : Ir.value) -> v.Ir.vty) o.Ir.results )

let rec cse_block canon (b : Ir.block) : Ir.block =
  let seen = Hashtbl.create 32 in
  let bops =
    List.filter_map
      (fun o ->
        let o = cse_regions canon o in
        if Arith.is_pure o && List.length o.Ir.results = 1 then begin
          let k = key canon o in
          match Hashtbl.find_opt seen k with
          | Some (prev : Ir.value) ->
              Ir.Vid_tbl.replace canon (Ir.result o).Ir.vid prev;
              None
          | None ->
              Hashtbl.replace seen k (Ir.result o);
              Some o
        end
        else Some o)
      b.Ir.bops
  in
  { b with Ir.bops = bops }

and cse_regions canon (o : Ir.op) : Ir.op =
  {
    o with
    Ir.regions = List.map (List.map (cse_block canon)) o.Ir.regions;
  }

let run_on_func _ctx f =
  let canon : Ir.value Ir.Vid_tbl.t = Ir.Vid_tbl.create 64 in
  let f = cse_regions canon f in
  (* Rewrite uses of eliminated values to their representatives (the fold
     builds a map, so its order is not observed). *)
  let subst =
    Ir.Vid_tbl.fold (fun vid v acc -> Ir.Value_map.add vid v acc) canon Ir.Value_map.empty
  in
  if Ir.Value_map.is_empty subst then f else Walk.substitute_uses subst f

let pass = Pass.on_funcs "cse" run_on_func
