(** Prebuilt compilation flows — the "single line of command" entry points:
    - {!compile_c}: HLS-C source → affine-level module (front-end + raising);
    - {!dnn_flow}: the DNN flow of §7.2, parameterized by the ablation knobs
      of Figure 7 — graph level [g] (dataflow granularity; 0 disables graph
      optimization), loop level [l] (unroll factor 2^(l-1); 0 disables loop
      optimization), and the directive level (pipelining + array
      partitioning) on/off. *)

open Mir
open Dialects
open Vhls

let cleanup = Dse.cleanup_passes

(** C source to the cleaned affine-level module. *)
let compile_c ctx src =
  let m = Frontend.Codegen.compile_source ctx src in
  Pass.run_pipeline
    [ Frontend.Raise_affine.pass; Canonicalize.pass; Store_forward.pass; Cse.pass ]
    ctx m

(* ---- DNN flow ---------------------------------------------------------------- *)

(* Tile sizes reaching a total unroll of [u]: innermost loops first, each
   taking its largest divisor not exceeding what remains. *)
let greedy_tile_sizes band ~u =
  let trips =
    List.map (fun l -> Option.value ~default:1 (Affine_d.const_trip_count l)) band
  in
  let remaining = ref u in
  let sizes_innermost_first =
    List.fold_left
      (fun acc trip ->
        let divs = List.rev (Affine.Solve.divisors trip) in
        let s =
          match List.find_opt (fun d -> d <= !remaining) divs with
          | Some d -> d
          | None -> 1
        in
        remaining := !remaining / max 1 s;
        s :: acc)
      [] (List.rev trips)
  in
  sizes_innermost_first

(* Loop + directive optimization of one lowered function. *)
let optimize_stage_func ctx ~loop_level ~directive f =
  let u = if loop_level > 0 then 1 lsl (loop_level - 1) else 1 in
  let f =
    if loop_level > 0 then
      let f = Loop_perfectization.run_on_func ctx f in
      Loop_order_opt.run_on_func ctx f
    else f
  in
  if not directive then f
  else
    Analysis.Loop_utils.map_bands f (fun band ->
        let root = List.hd band in
        let root =
          if u > 1 then
            Option.value ~default:root
              (Loop_tile.tile_band ctx band ~sizes:(greedy_tile_sizes band ~u))
          else root
        in
        Option.value ~default:root
          (Loop_pipeline.pipeline_band ctx ~target_ii:1
             ~depth:(List.length band - 1) root))

type dnn_config = { graph_level : int; loop_level : int; directive : bool }

let baseline_config = { graph_level = 0; loop_level = 0; directive = false }
let best_config = { graph_level = 7; loop_level = 7; directive = true }

let pp_config fmt c =
  let parts =
    (if c.graph_level > 0 then [ Printf.sprintf "G%d" c.graph_level ] else [])
    @ (if c.loop_level > 0 then [ Printf.sprintf "L%d" c.loop_level ] else [])
    @ if c.directive then [ "D" ] else []
  in
  Fmt.string fmt (if parts = [] then "baseline" else String.concat "+" parts)

(** Dataflow granularity of graph level [g]: larger [g] means finer stages
    (Figure 7): min-gran = 2^(7-g) adjacent stages merged per sub-function. *)
let min_gran_of_level g = if g <= 0 then max_int else 1 lsl (7 - min 7 g)

(** Compile a graph-level module (a [forward] function of graph ops) into an
    optimized loop/directive-level module. *)
let dnn_flow ctx m ~config ~platform =
  let { graph_level; loop_level; directive } = config in
  (* Graph level: dataflow legalization + function splitting. *)
  let m =
    if graph_level > 0 then begin
      let m = Pass.run_one (Legalize_dataflow.pass ~insert_copy:true ()) ctx m in
      Split_function.split ~min_gran:(min_gran_of_level graph_level) ctx m
        ~func_name:"forward"
    end
    else m
  in
  (* Lower to affine loops over buffers, place weights. *)
  let m = Lower_graph.run ctx m in
  let m = Resource_alloc.place_weights ~platform ctx m in
  (* Loop + directive levels per function. *)
  let m =
    Ir.module_map_funcs
      (fun f ->
        match Hlscpp.get_func_directive f with
        | Some d when d.Hlscpp.dataflow -> f
        | _ -> optimize_stage_func ctx ~loop_level ~directive f)
      m
  in
  let m = Pass.run_pipeline cleanup ctx m in
  let m = if directive then Array_partition.run ctx m else m in
  Pass.run_pipeline [ Canonicalize.pass ] ctx m

(** Convenience: compile and synthesize, returning the virtual-tool report
    plus the transformed module. *)
let dnn_synth ctx m ~config ~platform =
  let m' = dnn_flow ctx m ~config ~platform in
  (Synth.synthesize m' ~top:"forward", m')
