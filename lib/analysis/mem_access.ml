(** Memory-access collection and normalization: every affine load/store in a
    region is re-expressed over a chosen basis of induction variables so that
    dependence analysis, array partitioning (Eq. 1), and the QoR estimator
    (Eqs. 3–4) can reason uniformly about access functions. *)

open Mir
open Dialects

module A = Affine

type t = {
  op : Ir.op;
  memref : Ir.value;
  is_store : bool;
  exprs : A.Expr.t list;
      (** one access expression per array dimension, over the basis dims *)
  guards : A.Set_.constraint_ list;
      (** enclosing affine.if conditions (then-branches only) normalized over
          the basis dims; conditions that could not be normalized are dropped
          (sound: fewer constraints only widens the dependence relation) *)
}

(** Re-express the access map of [op] over [basis] (a list of iv values,
    outermost first), in {e iteration space}: a basis iv whose loop has
    constant lower bound [lb] and step [s] becomes [lb + s*Dim j], so that
    dependence distances are iteration counts and step-strided ivs do not
    fake aliasing. Map inputs fed by:
    - a basis iv become [lb + step*Dim j] (j = basis position);
    - a constant (via [consts]: value id -> int) become [Const c];
    - anything else fails ([None]).
    [consts] resolves non-basis operands to constants when possible;
    [iv_info] gives [(lb, step)] per basis value (default [(0, 1)]). *)
let normalize_access ?(iv_info = fun (_ : Ir.value) -> (0, 1)) ~basis ~consts op =
  let basis_pos =
    List.mapi (fun j (v : Ir.value) -> (v.Ir.vid, (j, iv_info v))) basis
  in
  let operands = Memref.access_indices op in
  let reps =
    List.map
      (fun (v : Ir.value) ->
        match List.assoc_opt v.Ir.vid basis_pos with
        | Some (j, (lb, step)) ->
            Some
              (A.Expr.add (A.Expr.const lb)
                 (A.Expr.mul (A.Expr.const step) (A.Expr.dim j)))
        | None -> (
            match consts v with
            | Some c -> Some (A.Expr.const c)
            | None -> None))
      operands
  in
  if List.exists Option.is_none reps then None
  else
    let reps = List.map Option.get reps in
    let map = Affine_d.access_map op in
    let composed =
      A.Map.replace_dims ~num_dims:(List.length basis) reps map
    in
    Some (A.Map.results composed)

(** Collect the affine accesses inside [region_op] (inclusive), normalized
    over [basis]. [scope] is used to resolve constant operands. Accesses that
    cannot be normalized are reported via [~on_opaque] (default: dropped). *)
let collect ?(on_opaque = fun (_ : Ir.op) -> ()) ~scope ~basis region_op =
  (* The integer constants of [scope] by value id, built by one walk the
     first time an operand outside the basis needs resolving. *)
  let consts_tbl =
    lazy
      (let tbl = Hashtbl.create 16 in
       Walk.iter_op
         (fun o ->
           if Arith.is_constant o then
             match Arith.constant_int_value o with
             | Some c ->
                 List.iter (fun (r : Ir.value) -> Hashtbl.replace tbl r.Ir.vid c) o.Ir.results
             | None -> ())
         scope;
       tbl)
  in
  let consts (v : Ir.value) = Hashtbl.find_opt (Lazy.force consts_tbl) v.Ir.vid in
  let ivs = Loop_utils.iv_defs scope in
  let iv_info (v : Ir.value) =
    match Hashtbl.find_opt ivs v.Ir.vid with
    | Some l ->
        let step = (Affine_d.bounds l).Affine_d.step in
        let lb =
          match Affine_d.const_bounds l with Some (lb, _) -> lb | None -> 0
        in
        (lb, step)
    | None -> (0, 1)
  in
  let basis_pos = List.mapi (fun j (v : Ir.value) -> (v.Ir.vid, j)) basis in
  (* Normalize an affine.if condition over the basis: substitute each set
     operand like an access index. Unrepresentable conditions are dropped. *)
  let normalize_guard (o : Ir.op) =
    let set = Attr.as_set (Ir.attr_exn o "set") in
    let reps =
      List.map
        (fun (v : Ir.value) ->
          match List.assoc_opt v.Ir.vid basis_pos with
          | Some j ->
              let lb, step = iv_info v in
              Some
                (A.Expr.add (A.Expr.const lb)
                   (A.Expr.mul (A.Expr.const step) (A.Expr.dim j)))
          | None -> Option.map A.Expr.const (consts v))
        o.Ir.operands
    in
    if List.exists Option.is_none reps then []
    else
      let reps = Array.of_list (List.map Option.get reps) in
      List.map
        (fun (c : A.Set_.constraint_) ->
          {
            c with
            A.Set_.expr =
              A.Expr.simplify
                (A.Expr.substitute ~dims:(fun i -> reps.(i)) c.A.Set_.expr);
          })
        (A.Set_.constraints set)
  in
  let accs = ref [] in
  let rec go guards (o : Ir.op) =
    if o.Ir.name = "affine.load" || o.Ir.name = "affine.store" then (
      match normalize_access ~iv_info ~basis ~consts o with
      | Some exprs ->
          accs :=
            {
              op = o;
              memref = Memref.accessed_memref o;
              is_store = o.Ir.name = "affine.store";
              exprs;
              guards;
            }
            :: !accs
      | None -> on_opaque o)
    else if o.Ir.name = "memref.load" || o.Ir.name = "memref.store" then
      on_opaque o
    else if o.Ir.name = "affine.if" then begin
      let gs = normalize_guard o in
      (* then branch inherits the guards; else branch does not (a negated
         conjunction is not a conjunction) *)
      List.iter
        (fun (b : Ir.block) -> List.iter (go (guards @ gs)) b.Ir.bops)
        (Ir.region o 0);
      List.iter (fun (b : Ir.block) -> List.iter (go guards) b.Ir.bops) (Ir.region o 1)
    end
    else
      List.iter
        (List.iter (fun (b : Ir.block) -> List.iter (go guards) b.Ir.bops))
        o.Ir.regions
  in
  go [] region_op;
  List.rev !accs

(** Group accesses by the memref value they touch. *)
let by_memref accs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl a.memref.Ir.vid) in
      Hashtbl.replace tbl a.memref.Ir.vid (a :: cur))
    accs;
  Hashtbl.fold (fun _ accs acc -> (List.rev accs |> List.hd).memref :: acc) tbl []
  |> fun mems ->
  List.map
    (fun (m : Ir.value) ->
      (m, List.rev (Hashtbl.find tbl m.Ir.vid)))
    (List.sort_uniq (fun a b -> compare a.Ir.vid b.Ir.vid) mems)
