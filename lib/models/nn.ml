(** A tiny PyTorch-like model builder producing graph-level IR — the stand-in
    for the NPComp/ONNX-MLIR front-ends (§2.3): models are described as
    OCaml functions over tensor values and materialize as a [forward]
    function of graph-dialect ops. Weights are int8 (the paper's DNN memory
    footprints match 8-bit quantized parameters). *)

open Mir
open Dialects

type t = {
  ctx : Ir.Ctx.t;
  mutable ops : Ir.op list;  (** reversed *)
  mutable n_weights : int;
}

let create ctx = { ctx; ops = []; n_weights = 0 }

let emit b (op, r) =
  b.ops <- op :: b.ops;
  r

let weight b shape =
  b.n_weights <- b.n_weights + 1;
  emit b
    (Graph.weight b.ctx
       ~name:(Printf.sprintf "w%d" b.n_weights)
       ~shape)

(** 2-D convolution [ic -> oc] with a [k]x[k] kernel. *)
let conv2d b ?(stride = 1) ?(pad = 0) ~oc ~k x =
  let ic = match Graph.tensor_shape x with [ _; c; _; _ ] -> c | _ -> invalid_arg "conv2d" in
  let w = weight b [ oc; ic; k; k ] in
  emit b (Graph.conv2d b.ctx ~stride ~pad ~input:x ~weight:w ())

let dwconv2d b ?(stride = 1) ?(pad = 0) ~k x =
  let c = match Graph.tensor_shape x with [ _; c; _; _ ] -> c | _ -> invalid_arg "dwconv2d" in
  let w = weight b [ c; 1; k; k ] in
  emit b (Graph.dwconv2d b.ctx ~stride ~pad ~input:x ~weight:w ())

let dense b ~oc x =
  let ic = match Graph.tensor_shape x with [ _; i ] -> i | _ -> invalid_arg "dense" in
  let w = weight b [ oc; ic ] in
  emit b (Graph.dense b.ctx ~input:x ~weight:w ())

let relu b x = emit b (Graph.relu b.ctx x)
let add b x y = emit b (Graph.add b.ctx x y)
let maxpool b ~kernel ~stride x = emit b (Graph.maxpool b.ctx ~kernel ~stride x)
let avgpool b ~kernel ~stride x = emit b (Graph.avgpool b.ctx ~kernel ~stride x)
let flatten b x = emit b (Graph.flatten b.ctx x)

(** Finish the model: build a module with a single [forward] function from
    input shape to the produced output tensor. *)
let build ctx ~input_shape f =
  let b = create ctx in
  let input = Ir.Ctx.fresh ctx (Ty.tensor input_shape Ty.F32) in
  let output = f b input in
  let body = List.rev b.ops @ [ Func.return_ [ output ] ] in
  Ir.module_
    [ Func.func_raw ~name:"forward" ~args:[ input ] ~outputs:[ output.Ir.vty ] body ]

(** Total MAC-based operation count (2 OP per MAC), the numerator of the
    DSP-efficiency metric (Eq. 5). *)
let num_ops m = Walk.fold_ops (fun acc o -> acc + Graph.flops o) 0 m
