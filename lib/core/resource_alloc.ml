(** Memory resource allocation (the array [resource] directive, §4.3.4):
    weight arrays are kept on-chip while the cumulative footprint stays under
    {!budget_fraction} of the platform's memory bits; the largest remaining
    arrays are spilled to DRAM (served through an AXI interface, one
    outstanding access per cycle). Large on-chip arrays beyond the BRAM
    sweet spot are placed in URAM when the platform has it. *)

open Mir
open Vhls

(** Share of the platform's on-chip memory bits that weights may occupy. *)
let budget_fraction = 0.55

(** Assign memory spaces to weight allocations of the module. *)
let place_weights ~platform ctx m =
  ignore ctx;
  (* Collect weight allocs with their sizes. *)
  let weights =
    Walk.fold_ops
      (fun acc o ->
        if o.Ir.name = "memref.alloc" && Ir.has_attr o "weight" then
          (Ir.result o, Ty.storage_bits (Ir.result o).Ir.vty) :: acc
        else acc)
      [] m
  in
  let weights = List.sort (fun (_, a) (_, b) -> compare b a) weights in
  let budget =
    int_of_float (budget_fraction *. float_of_int platform.Platform.memory_bits)
  in
  let spill = Ir.Vid_tbl.create 8 and uram = Ir.Vid_tbl.create 8 in
  let used = ref 0 in
  (* Greedy: biggest first; spill to DRAM once over budget. Arrays larger
     than 1 Mb that still fit go to URAM when available. *)
  List.iter
    (fun ((v : Ir.value), bits) ->
      if !used + bits <= budget then begin
        used := !used + bits;
        if platform.Platform.uram > 0 && bits > 1024 * 1024 then
          Ir.Vid_tbl.replace uram v.Ir.vid ()
      end
      else Ir.Vid_tbl.replace spill v.Ir.vid ())
    weights;
  Array_partition.retype_module m (fun v ->
      let respace space =
        match v.Ir.vty with
        | Ty.Memref mr -> Some (Ty.Memref { mr with Ty.memspace = space })
        | _ -> None
      in
      if Ir.Vid_tbl.mem spill v.Ir.vid then respace Ty.Memspace.dram
      else if Ir.Vid_tbl.mem uram v.Ir.vid then respace Ty.Memspace.uram
      else None)
