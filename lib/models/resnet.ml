(** ResNet-18 for CIFAR-10 (He et al. [16]): 3x3 stem, four groups of two
    basic blocks (64/128/256/512 channels, stride-2 downsampling between
    groups), global average pooling and a 10-way classifier. The residual
    connections create exactly the bypass paths that the graph-level
    dataflow legalization (§5.1.1) must handle. *)

let basic_block b ~oc ~stride x =
  let identity =
    if stride = 1 then x
    else
      (* 1x1 strided projection shortcut *)
      Nn.conv2d b ~stride ~pad:0 ~oc ~k:1 x
  in
  let y = Nn.relu b (Nn.conv2d b ~stride ~pad:1 ~oc ~k:3 x) in
  let y = Nn.conv2d b ~stride:1 ~pad:1 ~oc ~k:3 y in
  Nn.relu b (Nn.add b y identity)

(** Build the graph-level module (input 1x3x32x32). *)
let build ctx =
  Nn.build ctx ~input_shape:[ 1; 3; 32; 32 ] (fun b input ->
      let x = Nn.relu b (Nn.conv2d b ~stride:1 ~pad:1 ~oc:64 ~k:3 input) in
      let x = basic_block b ~oc:64 ~stride:1 x in
      let x = basic_block b ~oc:64 ~stride:1 x in
      let x = basic_block b ~oc:128 ~stride:2 x in
      let x = basic_block b ~oc:128 ~stride:1 x in
      let x = basic_block b ~oc:256 ~stride:2 x in
      let x = basic_block b ~oc:256 ~stride:1 x in
      let x = basic_block b ~oc:512 ~stride:2 x in
      let x = basic_block b ~oc:512 ~stride:1 x in
      let x = Nn.avgpool b ~kernel:4 ~stride:4 x in
      let x = Nn.flatten b x in
      Nn.dense b ~oc:10 x)
