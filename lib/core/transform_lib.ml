(** The registry of the HLS transform and analysis library (§3.3, §5): every
    optimization of ScaleHLS by its command-line pass name, one row of
    Table 2 each, plus the [-multiple-level-dse] pass that applies the
    automated DSE engine. The passes' own modules ([Loop_tile],
    [Array_partition], ...) are the callable, tunable interface a
    third-party DSE algorithm would target.

    Each row also carries the pass's fuzz probe. The fuzzing subsystem
    ([lib/fuzz]) draws random-but-valid pipelines from {!fuzz_pool}: a pass
    is drawn only when its output interprets identically to its input, so
    that it can be checked against the reference interpreter, and when its
    probe finds something for it to work on in the module the previous
    stages produced. *)

open Mir
open Dialects
open Vhls

(** The [-multiple-level-dse] pass (§5.5.2): applies the DSE engine, with its
    default search settings, to every function of the module under the
    xc7z020 platform. *)
let multiple_level_dse =
  Pass.make "multiple-level-dse" (fun ctx m ->
      List.fold_left
        (fun m f ->
          (Dse.run ctx m ~top:(Ir.func_name f) ~platform:Platform.xc7z020).Dse.module_)
        m (Ir.module_funcs m))

(** A registered pass, named by its [pass_name], with its fuzz probe: [None]
    when the pass cannot be checked against the interpreter, else [Some p]
    where [p m] says whether [m] gives the pass anything to work on
    (permissive for the generic cleanups, which are always safe to run). *)
type row = { pass : Pass.t; probe : (Ir.op -> bool) option }

let untested pass = { pass; probe = None }
let tested probe pass = { pass; probe = Some probe }

(* ---- Structural probes ---------------------------------------------------- *)

let has_op_named name m = Walk.exists (fun o -> o.Ir.name = name) m
let has_prefix prefix m = Walk.exists (fun o -> String.starts_with ~prefix o.Ir.name) m

let exists_band p m =
  List.exists (fun f -> List.exists p (Analysis.Loop_utils.bands f)) (Ir.module_funcs m)

let has_tileable_band = exists_band Loop_tile.tileable

let has_memref m =
  Walk.exists
    (fun o ->
      List.exists (fun (v : Ir.value) -> Ty.is_memref v.Ir.vty) (o.Ir.operands @ o.Ir.results))
    m

let always _ = true

(* ---- The table ------------------------------------------------------------- *)

let all_passes =
  [
    (* Graph-level restructuring changes function boundaries and signatures,
       so the modules before and after are not run-for-run comparable. *)
    untested (Legalize_dataflow.pass ());
    untested (Legalize_dataflow.pass ~insert_copy:true ());
    untested Split_function.pass;
    untested Lower_graph.pass;
    tested (exists_band (fun b -> not (Affine_d.band_is_perfect b))) Loop_perfectization.pass;
    tested has_tileable_band Loop_order_opt.pass;
    tested (fun m -> List.exists Remove_var_bound.applicable (Ir.module_funcs m))
      Remove_var_bound.pass;
    tested has_tileable_band (Loop_tile.pass ~tile_size:2);
    tested (Walk.exists (fun o -> Affine_d.is_for o && Affine_d.has_const_bounds o))
      Loop_unroll.pass;
    tested (has_op_named "affine.for") Loop_fusion.pass;
    (* Directive attachment only: the computation is untouched. *)
    tested (has_op_named "affine.for") (Loop_pipeline.pass ());
    tested (has_op_named "func") Func_pipeline.pass;
    tested has_memref Array_partition.pass;
    tested (has_op_named "affine.if") Simplify_affine_if.pass;
    tested (Walk.exists Memref.is_access) Store_forward.pass;
    tested (Walk.exists Memref.is_access) Simplify_memref.pass;
    tested always Canonicalize.pass;
    tested always Cse.pass;
    tested (has_op_named "scf.for") Frontend.Raise_affine.pass;
    tested (has_prefix "affine.") Lower.affine_to_scf;
    (* Semantics-preserving, but the cf dialect is outside the reference
       interpreter's coverage. *)
    untested Lower.scf_to_cf;
    (* Runs a whole search rather than one transformation. *)
    untested multiple_level_dse;
  ]

let find_pass name =
  List.find_map
    (fun r -> if r.pass.Pass.pass_name = name then Some r.pass else None)
    all_passes

(** The passes eligible for differential fuzzing against [m], in
    registration order, so that pipeline draws are deterministic. *)
let fuzz_pool m =
  List.filter_map
    (fun r -> match r.probe with Some p when p m -> Some r.pass | _ -> None)
    all_passes
