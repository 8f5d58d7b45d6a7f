(** Functional-unit characterization of the virtual downstream HLS tool: per
    operation latency (cycles at a 10 ns clock) and resource cost, modelled
    after Vivado HLS 2019.1 floating-point/integer IP characteristics. Both
    the in-flow QoR estimator and the virtual synthesizer read this table, so
    calibration lives in exactly one place. *)

type cost = { delay : int; dsp : int; lut : int; ff : int }

let zero = { delay = 0; dsp = 0; lut = 0; ff = 0 }

(** Cost of one operation instance. Unknown ops are treated as free (they are
    structural: yields, constants, etc.). *)
let op_cost name =
  match name with
  | "arith.addf" | "arith.subf" -> { delay = 5; dsp = 2; lut = 214; ff = 324 }
  | "arith.mulf" -> { delay = 4; dsp = 3; lut = 135; ff = 128 }
  | "arith.divf" -> { delay = 16; dsp = 0; lut = 802; ff = 1446 }
  | "arith.negf" -> { delay = 1; dsp = 0; lut = 32; ff = 32 }
  | "arith.maxf" | "arith.minf" | "arith.cmpf" -> { delay = 2; dsp = 0; lut = 66; ff = 66 }
  | "arith.muli" -> { delay = 3; dsp = 1; lut = 20; ff = 20 } (* narrow int8 MAC: one DSP48 *)
  | "arith.divi" | "arith.remi" | "arith.floordivi" | "arith.ceildivi" ->
      { delay = 18; dsp = 0; lut = 650; ff = 750 }
  | "arith.addi" | "arith.subi" | "arith.cmpi" | "arith.maxi" | "arith.mini"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.shli" | "arith.shri" ->
      { delay = 1; dsp = 0; lut = 32; ff = 16 }
  | "arith.select" -> { delay = 1; dsp = 0; lut = 32; ff = 0 }
  | "arith.index_cast" | "arith.extf" | "arith.truncf" | "arith.sitofp" | "arith.fptosi"
    -> { delay = 1; dsp = 0; lut = 40; ff = 40 }
  | "math.exp" | "math.log" -> { delay = 20; dsp = 7; lut = 1500; ff = 1800 }
  | "math.sqrt" -> { delay = 16; dsp = 0; lut = 800; ff = 1200 }
  | "math.tanh" -> { delay = 24; dsp = 9; lut = 2000; ff = 2400 }
  | "affine.load" | "memref.load" -> { delay = 2; dsp = 0; lut = 12; ff = 8 }
  | "affine.store" | "memref.store" -> { delay = 1; dsp = 0; lut = 12; ff = 8 }
  | "affine.apply" -> { delay = 0; dsp = 0; lut = 16; ff = 0 }
  | _ -> zero

let op_delay name = (op_cost name).delay

(** Resources of [units] functional units for op [name]. *)
let usage name ~units =
  let c = op_cost name in
  {
    Platform.usage_zero with
    Platform.u_dsp = units * c.dsp;
    u_lut = units * c.lut;
    u_ff = units * c.ff;
  }

(** Cycles of loop entry/exit control overhead for a non-pipelined loop. *)
let loop_overhead = 1

(** Extra iteration-latency cycle for the exit check of non-pipelined
    bodies. *)
let iter_overhead = 1

(** Is this op a compute op occupying a shareable functional unit? *)
let is_fu_op name =
  match name with
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.muli"
  | "arith.divi" | "arith.remi" | "arith.floordivi" | "arith.ceildivi"
  | "math.exp" | "math.log" | "math.sqrt" | "math.tanh" -> true
  | _ -> false

(** BRAM-18K blocks for one physical bank holding [bits] of data. A bank
    always costs at least one block. *)
let bram18_for_bits bits = max 1 ((bits + (18 * 1024) - 1) / (18 * 1024))
