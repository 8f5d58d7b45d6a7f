(** The [memref] dialect: allocation and non-affine memory accesses. *)

open Mir
open Ir

let alloc ctx shape elt =
  let ty = Ty.memref shape elt in
  let o, rs = mk_fresh ctx "memref.alloc" ~operands:[] ~result_tys:[ ty ] in
  (o, List.hd rs)

let load ctx mem idxs =
  let m = Ty.as_memref mem.vty in
  let o, rs = mk_fresh ctx "memref.load" ~operands:(mem :: idxs) ~result_tys:[ m.Ty.elt ] in
  (o, List.hd rs)

let store value mem idxs =
  mk "memref.store" ~operands:(value :: mem :: idxs) ~results:[]

let is_load o = o.name = "memref.load" || o.name = "affine.load"
let is_store o = o.name = "memref.store" || o.name = "affine.store"
let is_access o = is_load o || is_store o

(** The memref value accessed by a load/store (affine or plain). *)
let accessed_memref o =
  match o.name with
  | "memref.load" | "affine.load" -> List.hd o.operands
  | "memref.store" | "affine.store" -> List.nth o.operands 1
  | _ -> invalid_arg "Memref.accessed_memref: not a memory access"

(** Index operand values of a load/store. *)
let access_indices o =
  match o.name with
  | "memref.load" | "affine.load" -> List.tl o.operands
  | "memref.store" | "affine.store" -> List.tl (List.tl o.operands)
  | _ -> invalid_arg "Memref.access_indices: not a memory access"

(** Stored value of a store op. *)
let stored_value o =
  match o.name with
  | "memref.store" | "affine.store" -> List.hd o.operands
  | _ -> invalid_arg "Memref.stored_value: not a store"
