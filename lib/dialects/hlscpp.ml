(** The [hlscpp] dialect (§4.3): HLS-specific directive attributes.

    - Function directives ({!func_directive}): dataflow / pipeline / target
      II, stored as a [Dict] attribute ["hlscpp.func_directive"] on func ops.
    - Loop directives ({!loop_directive}): dataflow / pipeline / target II /
      flatten, stored as ["hlscpp.loop_directive"] on affine/scf.for ops.
    - Array partitioning: encoded into the memref layout affine map — for an
      N-d array the map has N inputs and 2N results; the first N results are
      partition indices, the last N physical indices (§4.3.3, Figure 3).
    - Array resource/interface: encoded in the memref memory space
      ({!Mir.Ty.Memspace}). *)

open Mir
open Ir

module A = Affine

(* ---- Function directive -------------------------------------------------- *)

type func_directive = { dataflow : bool; pipeline : bool; target_ii : int }

let default_func_directive = { dataflow = false; pipeline = false; target_ii = 1 }

let func_directive_attr (d : func_directive) =
  Attr.Dict
    [
      ("dataflow", Attr.bool_ d.dataflow);
      ("pipeline", Attr.bool_ d.pipeline);
      ("targetII", Attr.int_ d.target_ii);
    ]

(* Directive keys are shared constants: every op that carries a directive
   holds the same physical key string, which lets {!Ir.attr} match it by
   physical equality. *)
let func_directive_key = "hlscpp.func_directive"

let get_func_directive o =
  match attr o func_directive_key with
  | None -> None
  | Some a ->
      Some
        {
          dataflow = Attr.as_bool (Option.get (Attr.dict_find "dataflow" a));
          pipeline = Attr.as_bool (Option.get (Attr.dict_find "pipeline" a));
          target_ii = Attr.as_int (Option.get (Attr.dict_find "targetII" a));
        }

let set_func_directive o d = set_attr o func_directive_key (func_directive_attr d)

(* ---- Loop directive ------------------------------------------------------ *)

type loop_directive = {
  loop_dataflow : bool;
  loop_pipeline : bool;
  loop_target_ii : int;
  flatten : bool;
}

let default_loop_directive =
  { loop_dataflow = false; loop_pipeline = false; loop_target_ii = 1; flatten = false }

let loop_directive_attr (d : loop_directive) =
  Attr.Dict
    [
      ("dataflow", Attr.bool_ d.loop_dataflow);
      ("pipeline", Attr.bool_ d.loop_pipeline);
      ("targetII", Attr.int_ d.loop_target_ii);
      ("flatten", Attr.bool_ d.flatten);
    ]

let loop_directive_key = "hlscpp.loop_directive"

let get_loop_directive o =
  match attr o loop_directive_key with
  | None -> None
  | Some a ->
      Some
        {
          loop_dataflow = Attr.as_bool (Option.get (Attr.dict_find "dataflow" a));
          loop_pipeline = Attr.as_bool (Option.get (Attr.dict_find "pipeline" a));
          loop_target_ii = Attr.as_int (Option.get (Attr.dict_find "targetII" a));
          flatten = Attr.as_bool (Option.get (Attr.dict_find "flatten" a));
        }

let set_loop_directive o d = set_attr o loop_directive_key (loop_directive_attr d)

let is_pipelined o =
  match get_loop_directive o with Some d -> d.loop_pipeline | None -> false

(* ---- Array partition ------------------------------------------------------
   Figure 3 running example:
   (b) cyclic, factor 2, dim 0 of a 2-d array:
       (d0, d1) -> (d0 mod 2, 0, d0 floordiv 2, d1)
   (c) + block, factor 4, dim 1 of 8-wide array:
       (d0, d1) -> (d0 mod 2, d1 floordiv 2, d0 floordiv 2, d1 mod 2) *)

type partition = None_p | Cyclic of int | Block of int

let partition_factor = function None_p -> 1 | Cyclic f | Block f -> f

let pp_partition fmt = function
  | None_p -> Fmt.string fmt "none"
  | Cyclic f -> Fmt.pf fmt "cyclic(%d)" f
  | Block f -> Fmt.pf fmt "block(%d)" f

(** Build the layout map for [shape] with per-dim partitions [parts].
    Partition index expressions come first, physical index expressions last. *)
let partition_layout ~shape parts =
  if List.length shape <> List.length parts then
    invalid_arg "Hlscpp.partition_layout: rank mismatch";
  let n = List.length shape in
  let part_exprs =
    List.mapi
      (fun i p ->
        let d = A.Expr.dim i in
        match p with
        | None_p -> A.Expr.const 0
        | Cyclic f -> A.Expr.mod_ d (A.Expr.const f)
        | Block f ->
            let size = List.nth shape i in
            let blk = A.Expr.ceil_div size f in
            A.Expr.fdiv d (A.Expr.const blk))
      parts
  in
  let phys_exprs =
    List.mapi
      (fun i p ->
        let d = A.Expr.dim i in
        match p with
        | None_p -> d
        | Cyclic f -> A.Expr.fdiv d (A.Expr.const f)
        | Block f ->
            let size = List.nth shape i in
            let blk = A.Expr.ceil_div size f in
            A.Expr.mod_ d (A.Expr.const blk))
      parts
  in
  A.Map.make ~num_dims:n ~num_syms:0 (part_exprs @ phys_exprs)

(** Decode the partition spec from a layout map built by
    {!partition_layout}. *)
let partition_of_layout ~shape map =
  let n = List.length shape in
  if A.Map.num_dims map <> n || A.Map.num_results map <> 2 * n then None
  else
    let part_exprs = List.filteri (fun i _ -> i < n) (A.Map.results map) in
    let decode i e =
      match A.Expr.simplify e with
      | A.Expr.Const 0 -> Some None_p
      | A.Expr.Mod (A.Expr.Dim d, A.Expr.Const f) when d = i -> Some (Cyclic f)
      | A.Expr.Floor_div (A.Expr.Dim d, A.Expr.Const blk) when d = i ->
          let size = List.nth shape i in
          Some (Block (A.Expr.ceil_div size blk))
      | _ -> None
    in
    let decoded = List.mapi decode part_exprs in
    if List.for_all Option.is_some decoded then Some (List.map Option.get decoded)
    else None

(** Partition spec of a memref type ([None_p] per dim if unpartitioned). *)
let partitions_of_memref (m : Ty.memref) =
  match m.Ty.layout with
  | None -> List.map (fun _ -> None_p) m.Ty.shape
  | Some map -> (
      match partition_of_layout ~shape:m.Ty.shape map with
      | Some ps -> ps
      | None -> List.map (fun _ -> None_p) m.Ty.shape)

(** Total number of physical banks after partitioning. *)
let num_banks (m : Ty.memref) =
  List.fold_left (fun acc p -> acc * partition_factor p) 1 (partitions_of_memref m)

(** Apply a partition spec to a memref type. *)
let partitioned_memref (m : Ty.memref) parts =
  let layout =
    if List.for_all (fun p -> p = None_p) parts then None
    else Some (partition_layout ~shape:m.Ty.shape parts)
  in
  Ty.Memref { m with Ty.layout }

(** The bank of [m] that per-dimension partition indices [part_idx] (the
    first [rank] results of its layout map) select: the indices linearized
    row-major over the per-dimension factors. *)
let linear_bank (m : Ty.memref) part_idx =
  List.fold_left2
    (fun acc p i -> (acc * partition_factor p) + i)
    0 (partitions_of_memref m) part_idx

(* ---- Interfaces (§4.3.4) -------------------------------------------------- *)

type interface = Axi | Bram_if

(** Interface category of a top-function array argument: DRAM-resident arrays
    get AXI masters, on-chip arrays a plain BRAM interface. *)
let interface_of_memref (m : Ty.memref) =
  if m.Ty.memspace = Ty.Memspace.dram then Axi else Bram_if
