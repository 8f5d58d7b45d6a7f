(** The [arith] (and small [math]) dialect: constants, integer/float
    arithmetic, comparisons, casts. Builders return [op * result]. *)

open Mir
open Ir

let constant_i ctx ?(ty = Ty.Index) i =
  mk_fresh ctx "arith.constant" ~attrs:[ ("value", Attr.Int i) ] ~operands:[]
    ~result_tys:[ ty ]
  |> fun (o, rs) -> (o, List.hd rs)

let constant_f ctx f =
  mk_fresh ctx "arith.constant" ~attrs:[ ("value", Attr.Float f) ] ~operands:[]
    ~result_tys:[ Ty.F32 ]
  |> fun (o, rs) -> (o, List.hd rs)

let binary ctx name a b ~ty =
  let o, rs = mk_fresh ctx name ~operands:[ a; b ] ~result_tys:[ ty ] in
  (o, List.hd rs)

let addf ctx a b = binary ctx "arith.addf" a b ~ty:a.vty
let subf ctx a b = binary ctx "arith.subf" a b ~ty:a.vty
let mulf ctx a b = binary ctx "arith.mulf" a b ~ty:a.vty
let divf ctx a b = binary ctx "arith.divf" a b ~ty:a.vty
let maxf ctx a b = binary ctx "arith.maxf" a b ~ty:a.vty
let minf ctx a b = binary ctx "arith.minf" a b ~ty:a.vty
let addi ctx a b = binary ctx "arith.addi" a b ~ty:a.vty
let subi ctx a b = binary ctx "arith.subi" a b ~ty:a.vty
let muli ctx a b = binary ctx "arith.muli" a b ~ty:a.vty
let divi ctx a b = binary ctx "arith.divi" a b ~ty:a.vty
let remi ctx a b = binary ctx "arith.remi" a b ~ty:a.vty
let floordivi ctx a b = binary ctx "arith.floordivi" a b ~ty:a.vty
let ceildivi ctx a b = binary ctx "arith.ceildivi" a b ~ty:a.vty
let maxi ctx a b = binary ctx "arith.maxi" a b ~ty:a.vty
let mini ctx a b = binary ctx "arith.mini" a b ~ty:a.vty

let negf ctx a =
  let o, rs = mk_fresh ctx "arith.negf" ~operands:[ a ] ~result_tys:[ a.vty ] in
  (o, List.hd rs)

let cmpi ctx pred a b =
  let o, rs =
    mk_fresh ctx "arith.cmpi"
      ~attrs:[ ("predicate", Attr.Str pred) ]
      ~operands:[ a; b ] ~result_tys:[ Ty.I1 ]
  in
  (o, List.hd rs)

let cmpf ctx pred a b =
  let o, rs =
    mk_fresh ctx "arith.cmpf"
      ~attrs:[ ("predicate", Attr.Str pred) ]
      ~operands:[ a; b ] ~result_tys:[ Ty.I1 ]
  in
  (o, List.hd rs)

let select ctx c a b =
  let o, rs = mk_fresh ctx "arith.select" ~operands:[ c; a; b ] ~result_tys:[ a.vty ] in
  (o, List.hd rs)

let index_cast ctx v ~ty =
  let o, rs = mk_fresh ctx "arith.index_cast" ~operands:[ v ] ~result_tys:[ ty ] in
  (o, List.hd rs)

let sitofp ctx v ~ty =
  let o, rs = mk_fresh ctx "arith.sitofp" ~operands:[ v ] ~result_tys:[ ty ] in
  (o, List.hd rs)

let is_constant o = o.name = "arith.constant"

let constant_value o =
  if is_constant o then
    match attr_exn o "value" with
    | Attr.Int i -> Some (`Int i)
    | Attr.Float f -> Some (`Float f)
    | _ -> None
  else None

let constant_int_value o =
  match constant_value o with Some (`Int i) -> Some i | _ -> None

(** True for side-effect-free scalar compute ops (CSE / canonicalize fodder). *)
let is_pure o =
  match o.name with
  | "arith.constant" | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.negf" | "arith.maxf" | "arith.minf" | "arith.addi" | "arith.subi"
  | "arith.muli" | "arith.divi" | "arith.remi" | "arith.floordivi"
  | "arith.ceildivi" | "arith.maxi" | "arith.mini"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.shli" | "arith.shri"
  | "arith.cmpi" | "arith.cmpf" | "arith.select" | "arith.index_cast"
  | "arith.sitofp" | "arith.fptosi" | "arith.extf" | "arith.truncf"
  | "math.exp" | "math.log" | "math.sqrt" | "math.tanh" | "affine.apply" -> true
  | _ -> false
