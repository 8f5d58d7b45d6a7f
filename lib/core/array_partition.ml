(** The [-array-partition] pass (§5.3.2): detects the memory access pattern of
    each on-chip array and applies cyclic/block partitions per dimension,
    encoding them into the memref layout affine map (§4.3.3).

    For array i, dimension d, the partition metric (Eq. 1) is
    [P = Accesses / (max_{m,n} (index_m - index_n + 1))] computed over the
    accesses inside pipelined regions; [P >= 1] selects cyclic and [P < 1]
    block partitioning, both with the factor set to the number of distinct
    index expressions. Inter-procedural analysis propagates partitions across
    call boundaries so the directives land in the correct function scope and
    globally consistent strategies are selected. *)

open Mir
open Dialects
open Analysis

module A = Affine

type spec = Hlscpp.partition list

(* Combine two per-dim partition choices: larger factor wins; cyclic wins a
   factor tie (cheaper addressing for unit-stride unrolled access). *)
let combine_partition a b =
  let fa = Hlscpp.partition_factor a and fb = Hlscpp.partition_factor b in
  if fa > fb then a
  else if fb > fa then b
  else match (a, b) with Hlscpp.Cyclic _, _ -> a | _, Hlscpp.Cyclic _ -> b | _ -> a

let combine_spec (a : spec) (b : spec) : spec = List.map2 combine_partition a b

(* ---- Per-dimension analysis (Eq. 1) --------------------------------------- *)

let partition_for_dim exprs =
  let exprs = List.sort_uniq compare (List.map A.Expr.simplify exprs) in
  let count = List.length exprs in
  if count <= 1 then Hlscpp.None_p
  else
    (* Max constant span over all pairs; non-constant differences make the
       span undefined — fall back to cyclic (span = count). *)
    let span = ref 1 and defined = ref true in
    List.iter
      (fun em ->
        List.iter
          (fun en ->
            match A.Expr.as_const (A.Expr.simplify (A.Expr.sub em en)) with
            | Some d -> span := max !span (d + 1)
            | None -> defined := false)
          exprs)
      exprs;
    if (not !defined) || count >= !span then Hlscpp.Cyclic count
    else Hlscpp.Block count

(** Desired partition of each memref accessed inside [region] (a pipelined
    loop body or pipelined function), with accesses normalized over [basis]
    through [table], the {!Mem_access.scope_table} of the enclosing
    function. *)
let analyze_region table ~basis region : (Ir.value * spec) list =
  let accs = Mem_access.collect_in table ~basis region in
  List.map
    (fun ((m : Ir.value), maccs) ->
      let rank = List.length (Ty.as_memref m.Ir.vty).Ty.shape in
      let spec =
        List.init rank (fun d ->
            partition_for_dim
              (List.map (fun (a : Mem_access.t) -> List.nth a.Mem_access.exprs d) maccs))
      in
      (m, spec))
    (Mem_access.by_memref accs)

(** All pipelined regions of a function, each with the basis of surviving
    enclosing induction variables. A function-pipelined function is itself a
    region with an empty basis. *)
let pipelined_regions f =
  let out = ref [] in
  let rec go basis (o : Ir.op) =
    let basis' =
      if Affine_d.is_for o then basis @ [ Affine_d.induction_var o ] else basis
    in
    if Affine_d.is_for o && Hlscpp.is_pipelined o then out := (basis', o) :: !out
    else
      List.iter
        (List.iter (fun b -> List.iter (go basis') b.Ir.bops))
        o.Ir.regions
  in
  (match Hlscpp.get_func_directive f with
  | Some d when d.Hlscpp.pipeline -> out := ([], f) :: !out
  | _ -> List.iter (go []) (Func.func_body f));
  !out

(** Desired partitions in one function, keyed by memref value id. *)
let analyze_func f : (int * (Ir.value * spec)) list =
  let table = Mem_access.scope_table f in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (basis, region) ->
      List.iter
        (fun ((m : Ir.value), spec) ->
          let cur =
            match Hashtbl.find_opt tbl m.Ir.vid with
            | Some (_, s) -> combine_spec s spec
            | None -> spec
          in
          Hashtbl.replace tbl m.Ir.vid (m, cur))
        (analyze_region table ~basis region))
    (pipelined_regions f);
  Hashtbl.fold (fun vid v acc -> (vid, v) :: acc) tbl []

(* ---- Inter-procedural aliasing --------------------------------------------
   Union-find over memref value ids: a caller's memref operand aliases the
   callee's corresponding block argument. *)

let alias_classes m =
  let parent = Ir.Vid_tbl.create 64 in
  let rec find x =
    match Ir.Vid_tbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find p in
        Ir.Vid_tbl.replace parent x r;
        r
    | Some _ -> x
    | None ->
        Ir.Vid_tbl.replace parent x x;
        x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Ir.Vid_tbl.replace parent ra rb
  in
  Walk.iter_op
    (fun o ->
      if Func.is_call o then
        match Ir.find_func m (Func.callee o) with
        | Some callee ->
            let params = Func.func_args callee in
            List.iteri
              (fun i (arg : Ir.value) ->
                if Ty.is_memref arg.Ir.vty then
                  match List.nth_opt params i with
                  | Some (p : Ir.value) -> union arg.Ir.vid p.Ir.vid
                  | None -> ())
              o.Ir.operands
        | None -> ())
    m;
  find

(* ---- Retyping --------------------------------------------------------------
   Apply new memref types to every occurrence (operands, results, block args)
   and refresh func signatures. *)

let retype_module m (new_ty : Ir.value -> Ty.t option) =
  let rv (v : Ir.value) =
    match new_ty v with Some t -> { v with Ir.vty = t } | None -> v
  in
  let rec ro (o : Ir.op) =
    let o =
      {
        o with
        Ir.operands = List.map rv o.Ir.operands;
        Ir.results = List.map rv o.Ir.results;
        Ir.regions =
          List.map
            (List.map (fun b ->
                 { Ir.bargs = List.map rv b.Ir.bargs; Ir.bops = List.map ro b.Ir.bops }))
            o.Ir.regions;
      }
    in
    if Func.is_func o then
      let args = Func.func_args o in
      let _, outputs = Ir.func_type o in
      Ir.set_attr o "function_type"
        (Attr.Ty (Ty.fn (List.map (fun (v : Ir.value) -> v.Ir.vty) args) outputs))
    else o
  in
  ro m

(* ---- The pass --------------------------------------------------------------- *)

(** Run array partitioning on a whole module. [factors] optionally pins the
    partition of specific arrays: an association list from (function name,
    argument index) to a per-dim spec — the paper's [part-factors]
    parameter. *)
let run ?(factors = []) ctx m =
  ignore ctx;
  let find = alias_classes m in
  (* Gather desired specs per alias class. *)
  let class_spec = Ir.Vid_tbl.create 32 in
  let add_spec (v : Ir.value) spec =
    if Ty.is_memref v.Ir.vty
       && (Ty.as_memref v.Ir.vty).Ty.memspace <> Ty.Memspace.dram
    then begin
      let c = find v.Ir.vid in
      let cur = Ir.Vid_tbl.find_opt class_spec c in
      Ir.Vid_tbl.replace class_spec c
        (match cur with Some s -> combine_spec s spec | None -> spec)
    end
  in
  List.iter
    (fun f -> List.iter (fun (_, (v, spec)) -> add_spec v spec) (analyze_func f))
    (Ir.module_funcs m);
  (* Explicit factors override. *)
  List.iter
    (fun ((fname, arg_idx), spec) ->
      match Ir.find_func m fname with
      | Some f -> (
          match List.nth_opt (Func.func_args f) arg_idx with
          | Some v ->
              if Ty.is_memref v.Ir.vty then
                Ir.Vid_tbl.replace class_spec (find v.Ir.vid) spec
          | None -> ())
      | None -> ())
    factors;
  (* Compute the new type of every memref value participating in a class
     with a non-trivial spec. *)
  let new_ty vid =
    let c = find vid in
    match Ir.Vid_tbl.find_opt class_spec c with
    | Some spec when List.exists (fun p -> p <> Hlscpp.None_p) spec -> Some (c, spec)
    | _ -> None
  in
  let typer (v_ty : Ty.t) spec =
    match v_ty with
    | Ty.Memref mr when List.length spec = List.length mr.Ty.shape ->
        Some (Hlscpp.partitioned_memref mr spec)
    | _ -> None
  in
  retype_module m (fun v ->
      match new_ty v.Ir.vid with Some (_, spec) -> typer v.Ir.vty spec | None -> None)

let pass = Pass.make "array-partition" (fun ctx m -> run ctx m)
