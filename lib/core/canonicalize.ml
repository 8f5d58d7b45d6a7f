(** The [-canonicalize] pass: IR cleanups that the loop/directive transforms
    rely on —
    - fold [arith.constant] operands into affine maps/sets and drop them;
    - compose [affine.apply] results into consumer maps (MLIR's affine apply
      canonicalization), which is how substituted induction variables reach
      access maps after tiling and unrolling;
    - integer constant folding of arith ops;
    - removal of trip-count-0 loops and inlining of trip-count-1 loops;
    - dead code elimination of pure ops. *)

open Mir
open Dialects

module A = Affine

type env = {
  consts : int Ir.Vid_tbl.t;  (** vid -> integer constant *)
  applies : (A.Map.t * Ir.value list) Ir.Vid_tbl.t;  (** vid -> apply def *)
}

let scan f =
  let env = { consts = Ir.Vid_tbl.create 64; applies = Ir.Vid_tbl.create 64 } in
  Walk.iter_op
    (fun o ->
      match o.Ir.name with
      | "arith.constant" -> (
          match Arith.constant_int_value o with
          | Some c -> Ir.Vid_tbl.replace env.consts (Ir.result o).Ir.vid c
          | None -> ())
      | "affine.apply" ->
          Ir.Vid_tbl.replace env.applies (Ir.result o).Ir.vid
            (Affine_d.access_map o, o.Ir.operands)
      | _ -> ())
    f;
  env

(* Would {!fold_map_operands} rewrite an operand: is it a constant or the
   result of a single-result apply? *)
let foldable env (v : Ir.value) =
  Ir.Vid_tbl.mem env.consts v.Ir.vid
  ||
  match Ir.Vid_tbl.find_opt env.applies v.Ir.vid with
  | Some (amap, _) -> A.Map.num_results amap = 1
  | None -> false

(** Rewrite (map, operands): fold constant operands into the map and splice
    affine.apply operands. One level per call; callers iterate. Returns
    [None] when nothing changed. *)
let fold_map_operands env (map : A.Map.t) (operands : Ir.value list) =
  if not (List.exists (foldable env) operands) then None
  else
    (* For each original dim, produce a replacement expr over the new operand
       list being accumulated. *)
    let new_operands = ref [] in
    let push v =
      new_operands := v :: !new_operands;
      List.length !new_operands - 1
    in
    let reps =
      List.map
        (fun (v : Ir.value) ->
          match Ir.Vid_tbl.find_opt env.consts v.Ir.vid with
          | Some c -> A.Expr.const c
          | None -> (
              match Ir.Vid_tbl.find_opt env.applies v.Ir.vid with
              | Some (amap, aoperands) when A.Map.num_results amap = 1 ->
                  let positions = List.map push aoperands in
                  let expr = List.hd (A.Map.results amap) in
                  A.Expr.substitute
                    ~dims:(fun i -> A.Expr.dim (List.nth positions i))
                    expr
              | _ ->
                  let j = push v in
                  A.Expr.dim j))
        operands
    in
    let new_operands = List.rev !new_operands in
    let map' =
      A.Map.replace_dims ~num_dims:(List.length new_operands) reps map
      |> A.Map.simplify
    in
    Some (map', new_operands)

(* Dim indices referenced by an expression. *)
let rec expr_dims acc (e : A.Expr.t) =
  match e with
  | A.Expr.Dim i -> i :: acc
  | A.Expr.Sym _ | A.Expr.Const _ -> acc
  | A.Expr.Add (a, b) | A.Expr.Mul (a, b) | A.Expr.Mod (a, b)
  | A.Expr.Floor_div (a, b) | A.Expr.Ceil_div (a, b) ->
      expr_dims (expr_dims acc a) b

(* Drop operands whose dim is not referenced by any map result (e.g. loop
   bounds carrying the full enclosing dim list from the front-end). *)
let prune_unused_dims (map : A.Map.t) operands =
  let used =
    List.sort_uniq compare
      (List.fold_left expr_dims [] (List.map A.Expr.simplify (A.Map.results map)))
  in
  if List.length used = A.Map.num_dims map then (map, operands)
  else
    let renumber = List.mapi (fun new_i old_i -> (old_i, new_i)) used in
    let reps =
      List.init (A.Map.num_dims map) (fun i ->
          match List.assoc_opt i renumber with
          | Some j -> A.Expr.dim j
          | None -> A.Expr.const 0 (* unused: value irrelevant *))
    in
    let map' = A.Map.replace_dims ~num_dims:(List.length used) reps map in
    let operands' =
      List.filteri (fun i _ -> List.mem_assoc i renumber) operands
    in
    (map', operands')

let rec fold_map_operands_fix env map operands =
  match fold_map_operands env map operands with
  | None -> prune_unused_dims (A.Map.simplify map) operands
  | Some (m, ops) -> fold_map_operands_fix env m ops

(** Same folding for integer sets. *)
let fold_set_operands_fix env (set : A.Set_.t) operands =
  (* Reuse the map machinery by converting constraints to a map. *)
  let exprs = List.map (fun c -> c.A.Set_.expr) (A.Set_.constraints set) in
  let map = A.Map.make ~num_dims:(A.Set_.num_dims set) ~num_syms:0 exprs in
  let map', operands' = fold_map_operands_fix env map operands in
  let constraints =
    List.map2
      (fun c e -> { c with A.Set_.expr = e })
      (A.Set_.constraints set) (A.Map.results map')
  in
  ( A.Set_.make ~num_dims:(A.Map.num_dims map') ~num_syms:0 constraints,
    operands' )

(* ---- Per-op rewrites ----------------------------------------------------- *)

(* Bit [i] set for every dim [i] an expression references. *)
let rec dim_mask acc (e : A.Expr.t) =
  match e with
  | A.Expr.Dim i -> acc lor (1 lsl i)
  | A.Expr.Sym _ | A.Expr.Const _ -> acc
  | A.Expr.Add (a, b) | A.Expr.Mul (a, b) | A.Expr.Mod (a, b)
  | A.Expr.Floor_div (a, b) | A.Expr.Ceil_div (a, b) ->
      dim_mask (dim_mask acc a) b

(* A load, store or apply whose fold would rebuild it unchanged: its only
   attribute is its map, no index operand folds, every result is already
   simplified and every dim is used. *)
let already_folded env (o : Ir.op) idxs =
  match o.Ir.attrs with
  | [ ("map", Attr.Map map) ] ->
      let n = A.Map.num_dims map and results = A.Map.results map in
      n < Sys.int_size - 1
      && List.for_all
           (fun (v : Ir.value) ->
             not (Ir.Vid_tbl.mem env.consts v.Ir.vid || Ir.Vid_tbl.mem env.applies v.Ir.vid))
           idxs
      && List.for_all
           (fun e ->
             let e' = A.Expr.simplify e in
             e' == e || A.Expr.equal e' e)
           results
      && List.fold_left dim_mask 0 results = (1 lsl n) - 1
  | _ -> false

let same_attr (k, a) (k', b) =
  String.equal k k'
  && (a == b
     ||
     match (a, b) with
     | Attr.Map m, Attr.Map m' -> A.Map.equal m m'
     | _ -> a = b)

(* [o'] is [o] with its operands and attributes rebuilt: [o] itself when
   neither changed. *)
let unless_changed (o : Ir.op) (o' : Ir.op) =
  if
    List.equal ( == ) o.Ir.operands o'.Ir.operands
    && List.equal same_attr o.Ir.attrs o'.Ir.attrs
  then o
  else o'

let fold_affine_op env (o : Ir.op) : Ir.op =
  match o.Ir.name with
  | "affine.load" ->
      let idxs = Memref.access_indices o in
      if already_folded env o idxs then o
      else
        let mem = Memref.accessed_memref o in
        let map, idxs = fold_map_operands_fix env (Affine_d.access_map o) idxs in
        unless_changed o
          { o with Ir.operands = mem :: idxs; Ir.attrs = [ ("map", Attr.Map map) ] }
  | "affine.store" ->
      let idxs = Memref.access_indices o in
      if already_folded env o idxs then o
      else
        let v = Memref.stored_value o and mem = Memref.accessed_memref o in
        let map, idxs = fold_map_operands_fix env (Affine_d.access_map o) idxs in
        unless_changed o
          { o with Ir.operands = v :: mem :: idxs; Ir.attrs = [ ("map", Attr.Map map) ] }
  | "affine.apply" ->
      if already_folded env o o.Ir.operands then o
      else
        let map, operands = fold_map_operands_fix env (Affine_d.access_map o) o.Ir.operands in
        unless_changed o { o with Ir.operands = operands; Ir.attrs = [ ("map", Attr.Map map) ] }
  | "affine.for" ->
      let b = Affine_d.bounds o in
      let lb_map, lb_operands = fold_map_operands_fix env b.Affine_d.lb_map b.Affine_d.lb_operands in
      let ub_map, ub_operands = fold_map_operands_fix env b.Affine_d.ub_map b.Affine_d.ub_operands in
      unless_changed o
        (Affine_d.with_bounds o { b with Affine_d.lb_map; lb_operands; ub_map; ub_operands })
  | "affine.if" ->
      let set, operands = fold_set_operands_fix env (Affine_d.if_set o) o.Ir.operands in
      unless_changed o (Ir.set_attr { o with Ir.operands = operands } "set" (Attr.Set set))
  | _ -> o

(** Integer constant folding of pure arith ops; returns replacement ops. *)
let fold_arith env (o : Ir.op) : Ir.op list =
  let const_of (v : Ir.value) = Ir.Vid_tbl.find_opt env.consts v.Ir.vid in
  let mk_const c =
    let r = Ir.result o in
    Ir.Vid_tbl.replace env.consts r.Ir.vid c;
    [ Ir.mk "arith.constant" ~attrs:[ ("value", Attr.Int c) ] ~operands:[] ~results:[ r ] ]
  in
  match o.Ir.name with
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
  | "arith.maxi" | "arith.mini" -> (
      match List.map const_of o.Ir.operands with
      | [ Some a; Some b ] -> (
          match o.Ir.name with
          | "arith.addi" -> mk_const (a + b)
          | "arith.subi" -> mk_const (a - b)
          | "arith.muli" -> mk_const (a * b)
          | "arith.divi" when b <> 0 -> mk_const (a / b)
          | "arith.remi" when b <> 0 -> mk_const (a mod b)
          | "arith.maxi" -> mk_const (max a b)
          | "arith.mini" -> mk_const (min a b)
          | _ -> [ o ])
      | _ -> [ o ])
  | "affine.apply" -> (
      match A.Map.is_single_constant (Affine_d.access_map o) with
      | Some c -> mk_const c
      | None -> [ o ])
  | _ -> [ o ]

(* ---- Loop simplification -------------------------------------------------- *)

let simplify_loops ctx (f : Ir.op) : Ir.op =
  Walk.expand_in_op
    (fun o ->
      if not (Affine_d.is_for o) then [ o ]
      else if Hlscpp.is_pipelined o then [ o ]
        (* a trip-1 pipelined loop is the anchor of a flattened pipeline *)
      else
        match Affine_d.const_trip_count o with
        | Some 0 -> []
        | Some 1 -> (
            match Affine_d.const_bounds o with
            | Some (lb, _) ->
                let cst, cv = Arith.constant_i ctx lb in
                let iv = Affine_d.induction_var o in
                let body =
                  List.filter (fun op -> op.Ir.name <> "affine.yield") (Ir.body_ops o)
                in
                let subst = Ir.Value_map.singleton iv.Ir.vid cv in
                cst :: Walk.substitute_uses_in_ops subst body
            | None -> [ o ])
        | _ -> [ o ])
    f

(* ---- Dead code elimination ------------------------------------------------ *)

let has_side_effects o =
  match o.Ir.name with
  | "memref.store" | "affine.store" | "func.return" | "func.call" | "memref.copy"
  | "memref.dealloc" | "affine.yield" | "scf.yield" -> true
  | "affine.for" | "scf.for" | "affine.if" | "scf.if" | "func" | "module"
  | "graph.stage" ->
      true (* region ops conservatively kept; their bodies are DCE'd inside *)
  | _ -> false

(* One backward sweep, each block from its end: a pure op with results is
   dropped unless a kept op recorded one of them as used; a kept op's regions
   are swept before its operands are recorded. A definition precedes its uses
   in pre-order ({!Verify}), so every user of an op is decided before it, and
   dead chains go in one sweep. Unchanged blocks are shared. *)
let dce (f : Ir.op) : Ir.op =
  let used = Ir.Vid_tbl.create 256 in
  let rec sweep_ops (ops : Ir.op list) =
    match ops with
    | [] -> ops
    | o :: rest ->
        let rest' = sweep_ops rest in
        if
          (not (has_side_effects o))
          && o.Ir.results <> []
          && List.for_all (fun (r : Ir.value) -> not (Ir.Vid_tbl.mem used r.Ir.vid)) o.Ir.results
        then rest'
        else
          let o' = sweep_op o in
          if o' == o && rest' == rest then ops else o' :: rest'
  and sweep_op (o : Ir.op) =
    let regions =
      List.map
        (List.map (fun (b : Ir.block) ->
             let bops = sweep_ops b.Ir.bops in
             if bops == b.Ir.bops then b else { b with Ir.bops }))
        o.Ir.regions
    in
    List.iter (fun (v : Ir.value) -> Ir.Vid_tbl.replace used v.Ir.vid ()) o.Ir.operands;
    if List.for_all2 (List.for_all2 ( == )) regions o.Ir.regions then o
    else { o with Ir.regions }
  in
  sweep_op f

(* ---- The pass -------------------------------------------------------------- *)

(* Every rewrite of a round returns what it did not change physically, so a
   round that changes nothing returns its input and ends the pass. *)
let run_on_func ctx f =
  let rec iterate n f =
    if n = 0 then f
    else
      let env = scan f in
      let f' =
        Walk.expand_in_op (fun o -> fold_arith env (fold_affine_op env o)) f
      in
      let f' = simplify_loops ctx f' in
      let f' = dce f' in
      if f' == f then f else iterate (n - 1) f'
  in
  iterate 4 f

let pass = Pass.on_funcs "canonicalize" run_on_func
