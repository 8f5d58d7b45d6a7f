(** VGG-16 for CIFAR-10 (Simonyan & Zisserman [45]): thirteen 3x3
    convolutions in five max-pooled groups, followed by the CIFAR classifier
    head (512 -> 512 -> 10). A pure feed-forward chain — the easy case for
    dataflow legalization (no bypass paths). *)

let conv_relu b ~oc x = Nn.relu b (Nn.conv2d b ~stride:1 ~pad:1 ~oc ~k:3 x)

let build ctx =
  Nn.build ctx ~input_shape:[ 1; 3; 32; 32 ] (fun b input ->
      let pool = Nn.maxpool b ~kernel:2 ~stride:2 in
      let x = conv_relu b ~oc:64 input in
      let x = conv_relu b ~oc:64 x in
      let x = pool x in
      let x = conv_relu b ~oc:128 x in
      let x = conv_relu b ~oc:128 x in
      let x = pool x in
      let x = conv_relu b ~oc:256 x in
      let x = conv_relu b ~oc:256 x in
      let x = conv_relu b ~oc:256 x in
      let x = pool x in
      let x = conv_relu b ~oc:512 x in
      let x = conv_relu b ~oc:512 x in
      let x = conv_relu b ~oc:512 x in
      let x = pool x in
      let x = conv_relu b ~oc:512 x in
      let x = conv_relu b ~oc:512 x in
      let x = conv_relu b ~oc:512 x in
      let x = pool x in
      let x = Nn.flatten b x in
      let x = Nn.relu b (Nn.dense b ~oc:512 x) in
      Nn.dense b ~oc:10 x)
