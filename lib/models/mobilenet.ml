(** MobileNet-v1 for CIFAR-10 (Howard et al. [17]): a 3x3 stem followed by
    thirteen depthwise-separable blocks (depthwise 3x3 + pointwise 1x1),
    global average pooling and a 10-way classifier. Exercises the depthwise
    convolution lowering. *)

let dw_pw b ~oc ~stride x =
  let x = Nn.relu b (Nn.dwconv2d b ~stride ~pad:1 ~k:3 x) in
  Nn.relu b (Nn.conv2d b ~stride:1 ~pad:0 ~oc ~k:1 x)

let build ctx =
  Nn.build ctx ~input_shape:[ 1; 3; 32; 32 ] (fun b input ->
      let x = Nn.relu b (Nn.conv2d b ~stride:1 ~pad:1 ~oc:32 ~k:3 input) in
      let x = dw_pw b ~oc:64 ~stride:1 x in
      let x = dw_pw b ~oc:128 ~stride:2 x in
      let x = dw_pw b ~oc:128 ~stride:1 x in
      let x = dw_pw b ~oc:256 ~stride:2 x in
      let x = dw_pw b ~oc:256 ~stride:1 x in
      let x = dw_pw b ~oc:512 ~stride:2 x in
      let x = dw_pw b ~oc:512 ~stride:1 x in
      let x = dw_pw b ~oc:512 ~stride:1 x in
      let x = dw_pw b ~oc:512 ~stride:1 x in
      let x = dw_pw b ~oc:512 ~stride:1 x in
      let x = dw_pw b ~oc:512 ~stride:1 x in
      let x = dw_pw b ~oc:1024 ~stride:2 x in
      let x = dw_pw b ~oc:1024 ~stride:1 x in
      let x = Nn.avgpool b ~kernel:2 ~stride:2 x in
      let x = Nn.flatten b x in
      Nn.dense b ~oc:10 x)
