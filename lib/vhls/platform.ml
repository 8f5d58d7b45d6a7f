(** FPGA platform resource budgets used as DSE constraints and utilization
    denominators (the paper's §7 targets). *)

type t = {
  name : string;
  bram18 : int;  (** BRAM-18K blocks *)
  uram : int;
  dsp : int;
  lut : int;
  ff : int;
  memory_bits : int;  (** total on-chip memory bits (BRAM + URAM) *)
}

(** Xilinx XC7Z020 (Zynq-7020): the edge FPGA of §7.1 — 4.9 Mb memory,
    220 DSPs, 53,200 LUTs. *)
let xc7z020 =
  {
    name = "xc7z020";
    bram18 = 280;
    uram = 0;
    dsp = 220;
    lut = 53_200;
    ff = 106_400;
    memory_bits = 280 * 18 * 1024;
  }

(** One SLR (super logic region) of a Xilinx VU9P: the large FPGA of §7.2 —
    115.3 Mb memories, 2280 DSPs, 394,080 LUTs per SLR. *)
let vu9p_slr =
  {
    name = "vu9p-slr";
    bram18 = 1440;
    uram = 320;
    dsp = 2280;
    lut = 394_080;
    ff = 788_160;
    memory_bits = (1440 * 18 * 1024) + (320 * 288 * 1024);
  }

(** The platform a CLI or protocol name denotes: a platform's own [name],
    or ["vu9p"] for {!vu9p_slr}. *)
let of_name = function
  | "xc7z020" -> Some xc7z020
  | "vu9p" | "vu9p-slr" -> Some vu9p_slr
  | _ -> None

type usage = { u_bram18 : int; u_dsp : int; u_lut : int; u_ff : int; u_bits : int }

let usage_zero = { u_bram18 = 0; u_dsp = 0; u_lut = 0; u_ff = 0; u_bits = 0 }

let usage_add a b =
  {
    u_bram18 = a.u_bram18 + b.u_bram18;
    u_dsp = a.u_dsp + b.u_dsp;
    u_lut = a.u_lut + b.u_lut;
    u_ff = a.u_ff + b.u_ff;
    u_bits = a.u_bits + b.u_bits;
  }

let usage_max a b =
  {
    u_bram18 = max a.u_bram18 b.u_bram18;
    u_dsp = max a.u_dsp b.u_dsp;
    u_lut = max a.u_lut b.u_lut;
    u_ff = max a.u_ff b.u_ff;
    u_bits = max a.u_bits b.u_bits;
  }

(** Does the usage fit within the platform budget? Memory is checked against
    total bits; DSP/LUT against their budgets. *)
let fits p u =
  u.u_dsp <= p.dsp && u.u_lut <= p.lut && u.u_bits <= p.memory_bits
  && u.u_ff <= p.ff

let pp_usage fmt u =
  Fmt.pf fmt "dsp=%d lut=%d ff=%d bram18=%d mem=%.1fMb" u.u_dsp u.u_lut u.u_ff
    u.u_bram18
    (float_of_int u.u_bits /. 1024. /. 1024.)
