(* Graph-level tests: dataflow legalization (Figure 4), function splitting,
   graph-to-loop lowering semantics, and the end-to-end DNN flow. *)

open Mir
open Dialects
open Scalehls
open Helpers

(* The Figure 4 five-procedure dataflow with a bypass Proc0 -> Proc3. *)
let figure4 ctx =
  Models.Nn.build ctx ~input_shape:[ 1; 2; 4; 4 ] (fun b input ->
      let p0 = Models.Nn.relu b input in
      let p1 = Models.Nn.relu b p0 in
      let p2 = Models.Nn.relu b p1 in
      let p3 = Models.Nn.add b p2 p0 in
      Models.Nn.relu b p3)

let stages_of f =
  List.filter_map Legalize_dataflow.stage_of (Func.func_body f)

(* ---- Legalize dataflow -------------------------------------------------------------- *)

let test_conservative_matches_fig4b () =
  let ctx = Ir.Ctx.create () in
  let f = Ir.find_func_exn (figure4 ctx) "forward" in
  let f' = Legalize_dataflow.legalize ctx f in
  Alcotest.(check int) "3 stages" 3 (Legalize_dataflow.num_stages f');
  (* Proc1, Proc2, Proc3 share the middle stage *)
  Alcotest.(check (list int)) "stage assignment" [ 0; 1; 1; 1; 2 ] (stages_of f')

let test_aggressive_matches_fig4c () =
  let ctx = Ir.Ctx.create () in
  let f = Ir.find_func_exn (figure4 ctx) "forward" in
  let f' = Legalize_dataflow.legalize ~insert_copy:true ctx f in
  Alcotest.(check int) "5 stages" 5 (Legalize_dataflow.num_stages f');
  Alcotest.(check int) "2 copies inserted" 2
    (Walk.count (fun o -> o.Ir.name = "graph.copy") f')

let test_legalized_edges_adjacent () =
  (* after legalization every producer-consumer edge spans adjacent stages *)
  let check_adjacent f =
    let body = Func.func_body f in
    let stage_of_value = Hashtbl.create 16 in
    List.iter
      (fun (o : Ir.op) ->
        match Legalize_dataflow.stage_of o with
        | Some s -> List.iter (fun (r : Ir.value) -> Hashtbl.replace stage_of_value r.Ir.vid s) o.Ir.results
        | None -> ())
      body;
    List.for_all
      (fun (o : Ir.op) ->
        match Legalize_dataflow.stage_of o with
        | None -> true
        | Some s ->
            List.for_all
              (fun (v : Ir.value) ->
                match Hashtbl.find_opt stage_of_value v.Ir.vid with
                | Some sp -> s - sp <= 1
                | None -> true)
              o.Ir.operands)
      body
  in
  let ctx = Ir.Ctx.create () in
  let f = Ir.find_func_exn (figure4 ctx) "forward" in
  Alcotest.(check bool) "conservative adjacent" true
    (check_adjacent (Legalize_dataflow.legalize ctx f));
  Alcotest.(check bool) "aggressive adjacent" true
    (check_adjacent (Legalize_dataflow.legalize ~insert_copy:true ctx f))

let prop_random_dags_legalize =
  (* random layered chains with random skip edges always legalize to
     adjacent-stage form *)
  let gen = QCheck.Gen.(pair (int_range 3 8) (int_range 0 3)) in
  qtest ~count:50 "random skip-graphs legalize"
    (QCheck.make ~print:(fun (n, k) -> Fmt.str "chain %d skip %d" n k) gen)
    (fun (n, skip) ->
      let ctx = Ir.Ctx.create () in
      let m =
        Models.Nn.build ctx ~input_shape:[ 1; 2; 4; 4 ] (fun b input ->
            let nodes = ref [ input ] in
            let cur = ref input in
            for i = 1 to n do
              let x =
                if i mod 3 = 0 && skip > 0 && List.length !nodes > skip then
                  Models.Nn.add b !cur (List.nth !nodes skip)
                else Models.Nn.relu b !cur
              in
              nodes := x :: !nodes;
              cur := x
            done;
            !cur)
      in
      let f = Ir.find_func_exn m "forward" in
      let check f' =
        let body = Func.func_body f' in
        let stage_of_value = Hashtbl.create 16 in
        List.iter
          (fun (o : Ir.op) ->
            match Legalize_dataflow.stage_of o with
            | Some s ->
                List.iter (fun (r : Ir.value) -> Hashtbl.replace stage_of_value r.Ir.vid s) o.Ir.results
            | None -> ())
          body;
        List.for_all
          (fun (o : Ir.op) ->
            match Legalize_dataflow.stage_of o with
            | None -> true
            | Some s ->
                List.for_all
                  (fun (v : Ir.value) ->
                    match Hashtbl.find_opt stage_of_value v.Ir.vid with
                    | Some sp -> s - sp <= 1 && s - sp >= 0
                    | None -> true)
                  o.Ir.operands)
          body
      in
      check (Legalize_dataflow.legalize ctx f)
      && check (Legalize_dataflow.legalize ~insert_copy:true ctx f))

(* ---- Split function ------------------------------------------------------------------ *)

let test_split_structure () =
  let ctx = Ir.Ctx.create () in
  let m = figure4 ctx in
  let f = Ir.find_func_exn m "forward" in
  let m = Ir.replace_func m (Legalize_dataflow.legalize ~insert_copy:true ctx f) in
  let m' = Split_function.split ~min_gran:1 ctx m ~func_name:"forward" in
  Alcotest.(check int) "top + 5 stages" 6 (List.length (Ir.module_funcs m'));
  let top = Ir.find_func_exn m' "forward" in
  (match Hlscpp.get_func_directive top with
  | Some d -> Alcotest.(check bool) "dataflow set" true d.Hlscpp.dataflow
  | None -> Alcotest.fail "no dataflow directive");
  Alcotest.(check int) "top is all calls" 5 (List.length (List.filter Func.is_call (Func.func_body top)));
  check_verifies ~msg:"split module" m'

let test_split_min_gran () =
  let ctx = Ir.Ctx.create () in
  let m = figure4 ctx in
  let f = Ir.find_func_exn m "forward" in
  let m = Ir.replace_func m (Legalize_dataflow.legalize ~insert_copy:true ctx f) in
  let m' = Split_function.split ~min_gran:2 ctx m ~func_name:"forward" in
  (* 5 stages at gran 2 -> 3 sub-functions *)
  Alcotest.(check int) "top + 3 stages" 4 (List.length (Ir.module_funcs m'))

(* ---- Lowering semantics ---------------------------------------------------------------- *)

(* Run the lowered module on a pattern input and return the output buffer. *)
let run_lowered m ~in_shape ~out_shape =
  let input = Interp.buffer_init in_shape Ty.I8 (fun i -> float_of_int ((i mod 5) - 2)) in
  let output = Interp.alloc_buffer out_shape Ty.I8 in
  ignore (Interp.run_func m "forward" [ Interp.VBuf input; Interp.VBuf output ]);
  (input, output)

let test_lower_relu () =
  let ctx = Ir.Ctx.create () in
  let m = Models.Nn.build ctx ~input_shape:[ 1; 2; 3; 3 ] (fun b x -> Models.Nn.relu b x) in
  let m' = Lower_graph.run ctx m in
  check_verifies ~msg:"lowered relu" m';
  let input, output = run_lowered m' ~in_shape:[ 2; 3; 3 ] ~out_shape:[ 2; 3; 3 ] in
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 1e-9)) "relu" (Float.max 0. input.Interp.data.(i)) x)
    output.Interp.data

let test_lower_conv_vs_reference () =
  let ctx = Ir.Ctx.create () in
  let m =
    Models.Nn.build ctx ~input_shape:[ 1; 2; 4; 4 ] (fun b x ->
        Models.Nn.conv2d b ~stride:1 ~pad:1 ~oc:3 ~k:3 x)
  in
  let m' = Lower_graph.run ctx m in
  check_verifies ~msg:"lowered conv" m';
  let input, output = run_lowered m' ~in_shape:[ 2; 4; 4 ] ~out_shape:[ 3; 4; 4 ] in
  (* reference conv with the same deterministic weights *)
  let weight_alloc =
    List.hd (Walk.collect (fun o -> Ir.has_attr o "weight") m')
  in
  let seed = Ir.int_attr weight_alloc "init_seed" in
  let w i = float_of_int ((((i * 131) + seed) mod 7) - 3) in
  let at (b : Interp.buffer) idxs = b.Interp.data.(Interp.linearize b.Interp.shape idxs) in
  let reference oc oy ox =
    let acc = ref 0. in
    for ic = 0 to 1 do
      for kh = 0 to 2 do
        for kw = 0 to 2 do
          let iy = oy + kh - 1 and ix = ox + kw - 1 in
          if iy >= 0 && iy < 4 && ix >= 0 && ix < 4 then
            acc :=
              !acc
              +. at input [ ic; iy; ix ]
                 *. w ((((((oc * 2) + ic) * 3) + kh) * 3) + kw)
        done
      done
    done;
    !acc
  in
  for oc = 0 to 2 do
    for oy = 0 to 3 do
      for ox = 0 to 3 do
        Alcotest.(check (float 1e-6))
          (Fmt.str "conv[%d][%d][%d]" oc oy ox)
          (reference oc oy ox)
          (at output [ oc; oy; ox ])
      done
    done
  done

let test_lower_maxpool () =
  let ctx = Ir.Ctx.create () in
  let m =
    Models.Nn.build ctx ~input_shape:[ 1; 1; 4; 4 ] (fun b x ->
        Models.Nn.maxpool b ~kernel:2 ~stride:2 x)
  in
  let m' = Lower_graph.run ctx m in
  let input, output = run_lowered m' ~in_shape:[ 1; 4; 4 ] ~out_shape:[ 1; 2; 2 ] in
  let at (b : Interp.buffer) idxs = b.Interp.data.(Interp.linearize b.Interp.shape idxs) in
  let want =
    Float.max
      (Float.max (at input [ 0; 0; 0 ]) (at input [ 0; 0; 1 ]))
      (Float.max (at input [ 0; 1; 0 ]) (at input [ 0; 1; 1 ]))
  in
  Alcotest.(check (float 1e-9)) "pool window max" want (at output [ 0; 0; 0 ])

let test_lower_dense () =
  let ctx = Ir.Ctx.create () in
  let m =
    Models.Nn.build ctx ~input_shape:[ 1; 2; 2; 2 ] (fun b x ->
        Models.Nn.dense b ~oc:3 (Models.Nn.flatten b x))
  in
  let m' = Lower_graph.run ctx m in
  check_verifies ~msg:"lowered dense" m';
  let _, output = run_lowered m' ~in_shape:[ 2; 2; 2 ] ~out_shape:[ 3 ] in
  Alcotest.(check int) "output length" 3 (Array.length output.Interp.data)

(* Split + lowered pipeline computes the same as unsplit + lowered. *)
let test_split_preserves_semantics () =
  let ctx = Ir.Ctx.create () in
  let m = figure4 ctx in
  let lowered_plain = Lower_graph.run ctx m in
  let f = Ir.find_func_exn m "forward" in
  let m2 = Ir.replace_func m (Legalize_dataflow.legalize ~insert_copy:true ctx f) in
  let m2 = Split_function.split ~min_gran:1 ctx m2 ~func_name:"forward" in
  let lowered_split = Lower_graph.run ctx m2 in
  check_verifies ~msg:"split+lowered" lowered_split;
  let _, out1 = run_lowered lowered_plain ~in_shape:[ 2; 4; 4 ] ~out_shape:[ 2; 4; 4 ] in
  let _, out2 = run_lowered lowered_split ~in_shape:[ 2; 4; 4 ] ~out_shape:[ 2; 4; 4 ] in
  Alcotest.(check bool) "same result" true (arrays_close out1.Interp.data out2.Interp.data)

(* The full DNN flow (graph + loop + directive) preserves semantics. *)
let test_dnn_flow_semantics () =
  let build ctx =
    Models.Nn.build ctx ~input_shape:[ 1; 2; 4; 4 ] (fun b x ->
        let y = Models.Nn.relu b (Models.Nn.conv2d b ~stride:1 ~pad:1 ~oc:4 ~k:3 x) in
        let z = Models.Nn.add b y (Models.Nn.conv2d b ~stride:1 ~pad:1 ~oc:4 ~k:3 x) in
        Models.Nn.relu b z)
  in
  let platform = Vhls.Platform.vu9p_slr in
  let ctx = Ir.Ctx.create () in
  let m = build ctx in
  let base = Pipeline.dnn_flow ctx m ~config:Pipeline.baseline_config ~platform in
  let opt =
    Pipeline.dnn_flow ctx m
      ~config:{ Pipeline.graph_level = 7; loop_level = 3; directive = true }
      ~platform
  in
  check_verifies ~msg:"optimized dnn" opt;
  let _, out1 = run_lowered base ~in_shape:[ 2; 4; 4 ] ~out_shape:[ 4; 4; 4 ] in
  let _, out2 = run_lowered opt ~in_shape:[ 2; 4; 4 ] ~out_shape:[ 4; 4; 4 ] in
  Alcotest.(check bool) "optimized = baseline output" true
    (arrays_close out1.Interp.data out2.Interp.data)

let test_dnn_flow_improves_throughput () =
  let ctx = Ir.Ctx.create () in
  let m =
    Models.Nn.build ctx ~input_shape:[ 1; 2; 8; 8 ] (fun b x ->
        let y = Models.Nn.relu b (Models.Nn.conv2d b ~stride:1 ~pad:1 ~oc:4 ~k:3 x) in
        Models.Nn.conv2d b ~stride:1 ~pad:1 ~oc:4 ~k:3 y)
  in
  let platform = Vhls.Platform.vu9p_slr in
  let base, _ = Pipeline.dnn_synth ctx m ~config:Pipeline.baseline_config ~platform in
  let opt, _ =
    Pipeline.dnn_synth ctx m
      ~config:{ Pipeline.graph_level = 7; loop_level = 5; directive = true }
      ~platform
  in
  Alcotest.(check bool) "at least 10x throughput" true
    (base.Vhls.Synth.interval > 10 * opt.Vhls.Synth.interval)

(* ---- Models ------------------------------------------------------------------------------ *)

let test_model_parameter_counts () =
  let ctx = Ir.Ctx.create () in
  let resnet = Models.Resnet.build ctx in
  let p = num_params resnet in
  (* ResNet-18 CIFAR: ~11.2M parameters *)
  Alcotest.(check bool) "resnet params ~11M" true (p > 10_500_000 && p < 11_500_000);
  let vgg = Models.Vgg.build ctx in
  let pv = num_params vgg in
  Alcotest.(check bool) "vgg params ~15M" true (pv > 14_000_000 && pv < 16_000_000);
  let mob = Models.Mobilenet.build ctx in
  let pm = num_params mob in
  Alcotest.(check bool) "mobilenet params ~3.2M" true (pm > 3_000_000 && pm < 3_500_000)

let test_weight_placement_budget () =
  let ctx = Ir.Ctx.create () in
  let m = Lower_graph.run ctx (Models.Resnet.build ctx) in
  let m = Resource_alloc.place_weights ~platform:Vhls.Platform.vu9p_slr ctx m in
  let on_chip, off_chip = weight_footprint m in
  Alcotest.(check bool) "some weights on chip" true (on_chip > 0);
  Alcotest.(check bool) "fits the budget fraction" true
    (on_chip <= int_of_float (0.56 *. float_of_int Vhls.Platform.vu9p_slr.Vhls.Platform.memory_bits));
  Alcotest.(check bool) "spill covers the rest" true (off_chip > 0)

let suite =
  ( "graph",
    [
      Alcotest.test_case "Figure 4(b): conservative" `Quick test_conservative_matches_fig4b;
      Alcotest.test_case "Figure 4(c): copy insertion" `Quick test_aggressive_matches_fig4c;
      Alcotest.test_case "legalized edges adjacent" `Quick test_legalized_edges_adjacent;
      prop_random_dags_legalize;
      Alcotest.test_case "split: structure + dataflow" `Quick test_split_structure;
      Alcotest.test_case "split: min-gran merging" `Quick test_split_min_gran;
      Alcotest.test_case "lower: relu" `Quick test_lower_relu;
      Alcotest.test_case "lower: conv vs reference" `Quick test_lower_conv_vs_reference;
      Alcotest.test_case "lower: maxpool" `Quick test_lower_maxpool;
      Alcotest.test_case "lower: flatten+dense" `Quick test_lower_dense;
      Alcotest.test_case "split preserves semantics" `Quick test_split_preserves_semantics;
      Alcotest.test_case "dnn flow preserves semantics" `Slow test_dnn_flow_semantics;
      Alcotest.test_case "dnn flow improves throughput" `Slow test_dnn_flow_improves_throughput;
      Alcotest.test_case "model parameter counts" `Quick test_model_parameter_counts;
      Alcotest.test_case "weight placement budget" `Quick test_weight_placement_budget;
    ] )
