(** The registry of the HLS transform and analysis library (§3.3, §5): every
    optimization of ScaleHLS by its command-line pass name, one row of
    Table 2 each, plus the [-multiple-level-dse] pass that applies the
    automated DSE engine. The passes' own modules ([Loop_tile],
    [Array_partition], ...) are the callable, tunable interface a
    third-party DSE algorithm would target. *)

open Mir
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

let all_passes =
  [
    ("legalize-dataflow", Legalize_dataflow.pass ());
    ("legalize-dataflow-copy", Legalize_dataflow.pass ~insert_copy:true ());
    ("split-function", Split_function.pass);
    ("lower-graph", Lower_graph.pass);
    ("affine-loop-perfectization", Loop_perfectization.pass);
    ("affine-loop-order-opt", Loop_order_opt.pass);
    ("remove-variable-bound", Remove_var_bound.pass);
    ("affine-loop-tile", Loop_tile.pass ~tile_size:2);
    ("affine-loop-unroll", Loop_unroll.pass ());
    ("affine-loop-fusion", Loop_fusion.pass);
    ("loop-pipelining", Loop_pipeline.pass ());
    ("func-pipelining", Func_pipeline.pass);
    ("array-partition", Array_partition.pass);
    ("simplify-affine-if", Simplify_affine_if.pass);
    ("affine-store-forward", Store_forward.pass);
    ("simplify-memref-access", Simplify_memref.pass);
    ("canonicalize", Canonicalize.pass);
    ("cse", Cse.pass);
    ("raise-scf-to-affine", Frontend.Raise_affine.pass);
    ("lower-affine-to-scf", Lower.affine_to_scf);
    ("lower-scf-to-cf", Lower.scf_to_cf);
    ("multiple-level-dse", multiple_level_dse);
  ]

let find_pass name = List.assoc_opt name all_passes
