(** The graph-level dialect (§4.1): tensor operations standing in for the
    onnx/aten dialects the paper imports from ONNX-MLIR and NPComp. All
    operands and results are tensor-typed, so define–use analysis suffices
    for graph optimization. Weights appear as [graph.weight] ops (compile-time
    parameters bufferized to on-chip memories). *)

open Mir
open Ir

let tensor_shape v = fst (Ty.as_tensor v.vty)

let weight ctx ~name ~shape =
  let o, rs =
    mk_fresh ctx "graph.weight"
      ~attrs:[ ("name", Attr.Str name) ]
      ~operands:[]
      ~result_tys:[ Ty.tensor shape Ty.I8 ]
  in
  (o, List.hd rs)

(** 2-D convolution, NCHW / OIHW. Output spatial size:
    [(h + 2*pad - kh) / stride + 1]. *)
let conv2d ctx ?(stride = 1) ?(pad = 0) ~input ~weight () =
  match (tensor_shape input, tensor_shape weight) with
  | [ n; _c; h; w ], [ oc; _ic; kh; kw ] ->
      let oh = ((h + (2 * pad) - kh) / stride) + 1 in
      let ow = ((w + (2 * pad) - kw) / stride) + 1 in
      let o, rs =
        mk_fresh ctx "graph.conv2d"
          ~attrs:[ ("stride", Attr.Int stride); ("pad", Attr.Int pad) ]
          ~operands:[ input; weight ]
          ~result_tys:[ Ty.tensor [ n; oc; oh; ow ] Ty.F32 ]
      in
      (o, List.hd rs)
  | _ -> invalid_arg "Graph.conv2d: expected 4-d input and weight"

(** Depthwise 2-D convolution (MobileNet): weight [C;1;KH;KW]. *)
let dwconv2d ctx ?(stride = 1) ?(pad = 0) ~input ~weight () =
  match (tensor_shape input, tensor_shape weight) with
  | [ n; c; h; w ], [ _c; 1; kh; kw ] ->
      let oh = ((h + (2 * pad) - kh) / stride) + 1 in
      let ow = ((w + (2 * pad) - kw) / stride) + 1 in
      let o, rs =
        mk_fresh ctx "graph.dwconv2d"
          ~attrs:[ ("stride", Attr.Int stride); ("pad", Attr.Int pad) ]
          ~operands:[ input; weight ]
          ~result_tys:[ Ty.tensor [ n; c; oh; ow ] Ty.F32 ]
      in
      (o, List.hd rs)
  | _ -> invalid_arg "Graph.dwconv2d: expected 4-d input and [C;1;KH;KW] weight"

(** Fully-connected layer: input [N;I], weight [O;I]. *)
let dense ctx ~input ~weight () =
  match (tensor_shape input, tensor_shape weight) with
  | [ n; _i ], [ oc; _i2 ] ->
      let o, rs =
        mk_fresh ctx "graph.dense" ~operands:[ input; weight ]
          ~result_tys:[ Ty.tensor [ n; oc ] Ty.F32 ]
      in
      (o, List.hd rs)
  | _ -> invalid_arg "Graph.dense: expected 2-d input and weight"

let unary ctx name input =
  let o, rs = mk_fresh ctx name ~operands:[ input ] ~result_tys:[ input.vty ] in
  (o, List.hd rs)

let relu ctx input = unary ctx "graph.relu" input

(** Elementwise add (residual connections). *)
let add ctx a b =
  let o, rs = mk_fresh ctx "graph.add" ~operands:[ a; b ] ~result_tys:[ a.vty ] in
  (o, List.hd rs)

let pool ctx kind ~kernel ~stride input =
  match tensor_shape input with
  | [ n; c; h; w ] ->
      let oh = ((h - kernel) / stride) + 1 in
      let ow = ((w - kernel) / stride) + 1 in
      let name = match kind with `Max -> "graph.maxpool" | `Avg -> "graph.avgpool" in
      let o, rs =
        mk_fresh ctx name
          ~attrs:[ ("kernel", Attr.Int kernel); ("stride", Attr.Int stride) ]
          ~operands:[ input ]
          ~result_tys:[ Ty.tensor [ n; c; oh; ow ] Ty.F32 ]
      in
      (o, List.hd rs)
  | _ -> invalid_arg "Graph.pool: expected 4-d input"

let maxpool ctx ~kernel ~stride input = pool ctx `Max ~kernel ~stride input
let avgpool ctx ~kernel ~stride input = pool ctx `Avg ~kernel ~stride input

(** Flatten to [N; rest]. *)
let flatten ctx input =
  match tensor_shape input with
  | n :: rest ->
      let o, rs =
        mk_fresh ctx "graph.flatten" ~operands:[ input ]
          ~result_tys:[ Ty.tensor [ n; Ty.num_elements rest ] Ty.F32 ]
      in
      (o, List.hd rs)
  | _ -> invalid_arg "Graph.flatten"

(** Copy node inserted by aggressive dataflow legalization (Figure 4c). *)
let copy ctx input = unary ctx "graph.copy" input

let is_graph_op o =
  String.length o.name > 6 && String.sub o.name 0 6 = "graph."

let is_weight o = o.name = "graph.weight"

(** A dataflow "procedure" node: a compute graph op (weights are parameters,
    not procedures). *)
let is_proc o = is_graph_op o && not (is_weight o)

(** Rough multiply-accumulate count of a graph op (2 OPs per MAC), used for
    the DSP-efficiency metric of Table 4. *)
let flops o =
  let shape v = tensor_shape v in
  match o.name with
  | "graph.conv2d" ->
      let out = shape (result o) in
      let w = shape (List.nth o.operands 1) in
      (match (out, w) with
      | [ n; oc; oh; ow ], [ _; ic; kh; kw ] -> 2 * n * oc * oh * ow * ic * kh * kw
      | _ -> 0)
  | "graph.dwconv2d" ->
      let out = shape (result o) in
      let w = shape (List.nth o.operands 1) in
      (match (out, w) with
      | [ n; c; oh; ow ], [ _; _; kh; kw ] -> 2 * n * c * oh * ow * kh * kw
      | _ -> 0)
  | "graph.dense" ->
      let out = shape (result o) in
      let w = shape (List.nth o.operands 1) in
      (match (out, w) with
      | [ n; oc ], [ _; ic ] -> 2 * n * oc * ic
      | _ -> 0)
  | "graph.relu" | "graph.add" | "graph.copy" ->
      Ty.num_elements (shape (result o))
  | "graph.maxpool" | "graph.avgpool" ->
      let k = int_attr o "kernel" in
      Ty.num_elements (shape (result o)) * k * k
  | _ -> 0
