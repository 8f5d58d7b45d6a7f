(** Pass applicability probing: which registered passes ({!Transform_lib})
    can meaningfully run on a given module, and which are eligible for
    differential semantics testing.

    The fuzzing subsystem ([lib/fuzz]) uses this to draw random-but-valid
    pass pipelines: a pipeline is valid when every stage is (a) registered,
    (b) semantics-preserving (lowering between dialect levels is fine;
    scheduling-only or graph-restructuring passes that change the calling
    convention are not differential-testable against the interpreter), and
    (c) applicable to the IR the previous stages produce. DSE-style tools can
    use the same probes to prune no-op points. *)

open Mir
open Dialects

(** Dialect level a pass operates on (Table 2's three levels; [Any] for the
    generic cleanups). *)
type level = Graph | Loop | Directive | Any

type info = {
  level : level;
  preserves_semantics : bool;
      (** Output must interpret identically to the input on all inputs. *)
  interpretable_result : bool;
      (** Output stays within {!Interp}'s dialect coverage. *)
}

(** Static classification of every registered pass name; [None] for unknown
    names and for [multiple-level-dse], which runs a whole search rather than
    one transformation, so the fuzzer never draws it. *)
let info = function
  | "legalize-dataflow" | "legalize-dataflow-copy" | "split-function"
  | "lower-graph" ->
      (* Graph-level restructuring: changes function boundaries/signatures,
         so before/after modules are not run-for-run comparable. *)
      Some { level = Graph; preserves_semantics = false; interpretable_result = true }
  | "affine-loop-perfectization" | "affine-loop-order-opt"
  | "remove-variable-bound" | "affine-loop-tile" | "affine-loop-unroll"
  | "affine-loop-fusion" ->
      Some { level = Loop; preserves_semantics = true; interpretable_result = true }
  | "loop-pipelining" | "func-pipelining" | "array-partition" ->
      (* Directive attachment only: the computation is untouched. *)
      Some { level = Directive; preserves_semantics = true; interpretable_result = true }
  | "simplify-affine-if" | "affine-store-forward" | "simplify-memref-access"
  | "canonicalize" | "cse" ->
      Some { level = Any; preserves_semantics = true; interpretable_result = true }
  | "raise-scf-to-affine" | "lower-affine-to-scf" ->
      Some { level = Loop; preserves_semantics = true; interpretable_result = true }
  | "lower-scf-to-cf" ->
      (* Semantics-preserving, but the cf dialect is outside the reference
         interpreter's coverage. *)
      Some { level = Loop; preserves_semantics = true; interpretable_result = false }
  | _ -> None

(* ---- Structural probes ---------------------------------------------------- *)

let has_op_pred p m = Walk.exists p m
let has_op_named name m = has_op_pred (fun o -> o.Ir.name = name) m
let has_prefix prefix m =
  has_op_pred
    (fun o ->
      String.length o.Ir.name >= String.length prefix
      && String.sub o.Ir.name 0 (String.length prefix) = prefix)
    m

let exists_band p m =
  List.exists (fun f -> List.exists p (Analysis.Loop_utils.bands f)) (Ir.module_funcs m)

let has_perfect_const_band m =
  exists_band
    (fun b -> Affine_d.band_is_perfect b && List.for_all Affine_d.has_const_bounds b)
    m

let has_const_bound_loop m =
  has_op_pred (fun o -> Affine_d.is_for o && Affine_d.has_const_bounds o) m

let has_variable_bound_loop m =
  has_op_pred (fun o -> Affine_d.is_for o && not (Affine_d.has_const_bounds o)) m

let has_imperfect_band m = exists_band (fun b -> not (Affine_d.band_is_perfect b)) m

let has_memref m =
  has_op_pred
    (fun o ->
      List.exists (fun (v : Ir.value) -> Ty.is_memref v.Ir.vty) (o.Ir.operands @ o.Ir.results))
    m

(** Would running [name] on [m] have anything to work on? Conservative in the
    permissive direction for the generic cleanups (they are always safe to
    run); precise for the structural passes. Unknown names are never
    applicable. *)
let applicable m name =
  match info name with
  | None -> false
  | Some _ -> (
      match name with
      | "legalize-dataflow" | "legalize-dataflow-copy" | "split-function"
      | "lower-graph" -> has_prefix "graph." m
      | "affine-loop-perfectization" -> has_imperfect_band m
      | "affine-loop-order-opt" -> has_perfect_const_band m
      | "remove-variable-bound" -> has_variable_bound_loop m
      | "affine-loop-tile" -> has_perfect_const_band m
      | "affine-loop-unroll" -> has_const_bound_loop m
      | "affine-loop-fusion" | "loop-pipelining" -> has_op_named "affine.for" m
      | "func-pipelining" -> has_op_named "func" m
      | "array-partition" -> has_memref m
      | "simplify-affine-if" -> has_op_named "affine.if" m
      | "affine-store-forward" | "simplify-memref-access" ->
          has_op_pred (fun o -> Memref.is_access o) m
      | "raise-scf-to-affine" -> has_op_named "scf.for" m
      | "lower-affine-to-scf" -> has_prefix "affine." m
      | "lower-scf-to-cf" -> has_prefix "scf." m || has_prefix "affine." m
      | _ -> true)

(** Registered pass names eligible for differential fuzzing against [m]:
    semantics-preserving, interpreter-coverable output, and applicable. The
    order is the (stable) registration order of {!Transform_lib.all_passes},
    so pipeline draws are deterministic. *)
let fuzz_pool m =
  List.filter
    (fun name ->
      match info name with
      | Some i -> i.preserves_semantics && i.interpretable_result && applicable m name
      | None -> false)
    (List.map fst Transform_lib.all_passes)
