(** The [affine] dialect: structured loops and conditionals with affine
    bounds, plus affine memory accesses (§2.2 and §4.2).

    Encoding conventions:
    - [affine.for]: attrs [lower_bound]/[upper_bound] (affine maps),
      [step] (int), [lb_operands] (how many leading operands feed the
      lower-bound map). Bound semantics follow MLIR: lb = max of lb-map
      results, ub = min of ub-map results, iteration space [lb, ub) by step.
      The single region has one block whose single argument is the induction
      variable.
    - [affine.load]/[affine.store]: attr [map] composed over the index
      operands; the map's results are the logical array indices.
    - [affine.if]: attr [set] (integer set) over the operands; two regions. *)

open Mir
open Ir

module A = Affine

(* ---- affine.for ---------------------------------------------------------- *)

let for_op ~lb_map ~lb_operands ~ub_map ~ub_operands ~step ~iv body =
  mk "affine.for"
    ~attrs:
      [
        ("lower_bound", Attr.Map lb_map);
        ("upper_bound", Attr.Map ub_map);
        ("step", Attr.Int step);
        ("lb_operands", Attr.Int (List.length lb_operands));
      ]
    ~operands:(lb_operands @ ub_operands)
    ~results:[]
    ~regions:[ [ block ~args:[ iv ] body ] ]

(** Constant-bound loop [for iv = lb to ub step step]. *)
let for_const ctx ~lb ~ub ?(step = 1) body_fn =
  let iv = Ctx.fresh ctx Ty.Index in
  let body = body_fn iv in
  for_op
    ~lb_map:(A.Map.constant [ lb ])
    ~lb_operands:[]
    ~ub_map:(A.Map.constant [ ub ])
    ~ub_operands:[] ~step ~iv body

let is_for o = o.name = "affine.for"
let is_if o = o.name = "affine.if"

type bounds = {
  lb_map : A.Map.t;
  lb_operands : value list;
  ub_map : A.Map.t;
  ub_operands : value list;
  step : int;
}

let bounds o =
  if not (is_for o) then invalid_arg "Affine_d.bounds: not an affine.for";
  let n_lb = int_attr o "lb_operands" in
  let lb_operands = List.filteri (fun i _ -> i < n_lb) o.operands in
  let ub_operands = List.filteri (fun i _ -> i >= n_lb) o.operands in
  {
    lb_map = map_attr o "lower_bound";
    lb_operands;
    ub_map = map_attr o "upper_bound";
    ub_operands;
    step = int_attr o "step";
  }

let with_bounds o (b : bounds) =
  let o =
    set_attr o "lower_bound" (Attr.Map b.lb_map)
    |> fun o ->
    set_attr o "upper_bound" (Attr.Map b.ub_map)
    |> fun o ->
    set_attr o "step" (Attr.Int b.step)
    |> fun o -> set_attr o "lb_operands" (Attr.Int (List.length b.lb_operands))
  in
  { o with operands = b.lb_operands @ b.ub_operands }

let induction_var o =
  match (body_block o).bargs with
  | [ iv ] -> iv
  | _ -> invalid_arg "Affine_d.induction_var"

(** Constant bounds [(lb, ub)] when both maps are single-constant. *)
let const_bounds o =
  let b = bounds o in
  match (A.Map.is_single_constant b.lb_map, A.Map.is_single_constant b.ub_map) with
  | Some lb, Some ub -> Some (lb, ub)
  | _ -> None

(** Trip count for constant-bound loops. *)
let const_trip_count o =
  match const_bounds o with
  | Some (lb, ub) ->
      let step = (bounds o).step in
      Some (max 0 (A.Expr.ceil_div (ub - lb) step))
  | None -> None

(** Does the loop have constant bounds? *)
let has_const_bounds o = Option.is_some (const_bounds o)

(* ---- affine.load / store ------------------------------------------------- *)

let load ctx mem ~map idxs =
  let m = Ty.as_memref mem.vty in
  let o, rs =
    mk_fresh ctx "affine.load"
      ~attrs:[ ("map", Attr.Map map) ]
      ~operands:(mem :: idxs) ~result_tys:[ m.Ty.elt ]
  in
  (o, List.hd rs)

(** Load with the identity access map over [idxs]. *)
let load_id ctx mem idxs = load ctx mem ~map:(A.Map.identity (List.length idxs)) idxs

let store ctx value mem ~map idxs =
  ignore ctx;
  mk "affine.store"
    ~attrs:[ ("map", Attr.Map map) ]
    ~operands:(value :: mem :: idxs)
    ~results:[]

let store_id ctx value mem idxs =
  store ctx value mem ~map:(A.Map.identity (List.length idxs)) idxs

let access_map o = map_attr o "map"

(** The address of an [affine.load]/[affine.store] as a hashtable key: the
    memref's value id, the access map, and the index operands' value ids.
    Two accesses with equal keys touch the same element at every iteration.
    Maps compare structurally ({!Affine.Map.equal}); the hash is computed
    once, when the key is built. *)
module Access_key = struct
  type t = { memref : int; map : A.Map.t; indices : int list; hash : int }

  let of_op o =
    let memref = (Memref.accessed_memref o).vid and map = access_map o in
    let indices = List.map (fun (v : value) -> v.vid) (Memref.access_indices o) in
    let hash = Hashtbl.hash (memref, Fingerprint.map_hash map, indices) in
    { memref; map; indices; hash }

  let equal a b =
    a.hash = b.hash && a.memref = b.memref
    && List.equal Int.equal a.indices b.indices
    && A.Map.equal a.map b.map

  let hash k = k.hash
end

module Access_tbl = Hashtbl.Make (Access_key)

(** Do two affine accesses to the same memref provably touch different
    elements at every iteration? True when, over identical index operands,
    some dimension's address expressions differ by a nonzero constant. *)
let accesses_distinct a b =
  let idx o =
    match o.Ir.name with
    | "affine.load" -> List.tl o.Ir.operands
    | "affine.store" -> List.tl (List.tl o.Ir.operands)
    | _ -> invalid_arg "Affine_d.accesses_distinct"
  in
  let va = idx a and vb = idx b in
  List.length va = List.length vb
  && List.for_all2 (fun (x : Ir.value) (y : Ir.value) -> x.Ir.vid = y.Ir.vid) va vb
  &&
  let ra = A.Map.results (access_map a) and rb = A.Map.results (access_map b) in
  List.length ra = List.length rb
  && List.exists2
       (fun ea eb ->
         match A.Expr.as_const (A.Expr.simplify (A.Expr.sub ea eb)) with
         | Some d -> d <> 0
         | None -> false)
       ra rb

(* ---- affine.apply / if --------------------------------------------------- *)

let apply ctx ~map operands =
  let o, rs =
    mk_fresh ctx "affine.apply" ~attrs:[ ("map", Attr.Map map) ] ~operands
      ~result_tys:[ Ty.Index ]
  in
  (o, List.hd rs)

let if_ ~set ~operands ~then_ ~else_ =
  mk "affine.if"
    ~attrs:[ ("set", Attr.Set set) ]
    ~operands ~results:[]
    ~regions:[ [ block then_ ]; [ block else_ ] ]

let if_set o = Attr.as_set (attr_exn o "set")

let yield = mk "affine.yield" ~operands:[] ~results:[]

(* ---- Loop-band utilities -------------------------------------------------
   A loop band (Table 2) is a maximal chain of singly-nested affine.for ops. *)

(** Ops of the loop body that are not the terminator. *)
let body_nonterm o =
  List.filter (fun op -> op.name <> "affine.yield" && op.name <> "scf.yield") (body_ops o)

(** The nested loop chain starting at [o]: follows while the body contains
    exactly one affine.for (other ops may sit between — the band is then
    imperfect). Returns outermost-first. *)
let rec band o =
  if not (is_for o) then []
  else
    match List.filter is_for (body_nonterm o) with
    | [ inner ] -> o :: band inner
    | _ -> [ o ]

(** A band is perfect when each non-innermost loop's body contains only the
    nested loop (plus terminator). *)
let band_is_perfect b =
  let rec go = function
    | [] | [ _ ] -> true
    | o :: (inner :: _ as rest) ->
        (match body_nonterm o with [ x ] -> x == inner || x = inner | _ -> false)
        && go rest
  in
  go b

(** Rebuild a band: given the original band (outermost first) and a
    replacement body for the innermost loop, rebuild the chain preserving
    in-between ops. Returns the new outermost loop. *)
let rebuild_band b ~innermost_body =
  match List.rev b with
  | [] -> invalid_arg "Affine_d.rebuild_band: empty band"
  | innermost :: outer_rev ->
      let rebuilt = with_body innermost innermost_body in
      List.fold_left
        (fun inner_new outer ->
          (* Replace the old inner loop inside outer's body with inner_new. *)
          let body =
            List.map (fun op -> if is_for op then inner_new else op) (body_ops outer)
          in
          with_body outer body)
        rebuilt outer_rev
