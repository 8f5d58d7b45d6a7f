(** Operation attributes: compile-time-constant parameters of operations,
    mirroring MLIR attributes. Directive-level information (the hlscpp dialect)
    is stored as structured [Dict] attributes. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Ty of Ty.t
  | Arr of t list
  | Map of Affine.Map.t
  | Set of Affine.Set_.t
  | Dict of (string * t) list

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | Ty x, Ty y -> Ty.equal x y
  | Arr x, Arr y -> List.length x = List.length y && List.for_all2 equal x y
  | Map x, Map y -> Affine.Map.equal x y
  | Set x, Set y -> x = y
  | Dict x, Dict y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Unit | Bool _ | Int _ | Float _ | Str _ | Ty _ | Arr _ | Map _ | Set _ | Dict _), _
    -> false

(* ---- Interning ----------------------------------------------------------- *)

(** Interned attribute keys. Attribute lists are tiny assoc lists scanned on
    every directive or map lookup; sharing one physical string per well-known
    key lets {!Ir.attr} shortcut the comparison with physical equality before
    falling back to [String.equal]. [Key.intern] registers ad-hoc keys into
    the same pool (idempotent, returns the canonical representative). *)
module Key = struct
  let pool : (string, string) Hashtbl.t = Hashtbl.create 64

  let intern s =
    match Hashtbl.find_opt pool s with
    | Some k -> k
    | None ->
        Hashtbl.add pool s s;
        s

  let map = intern "map"
  let set = intern "set"
  let value = intern "value"
  let lb_map = intern "lb_map"
  let ub_map = intern "ub_map"
  let step = intern "step"
  let sym_name = intern "sym_name"
  let function_type = intern "function_type"
  let callee = intern "callee"
  let loop_directive = intern "hlscpp.loop_directive"
  let func_directive = intern "hlscpp.func_directive"
end

(* Common attribute values, preallocated: booleans and the small integers
   that dominate directive dictionaries (pipeline flags, target IIs, steps,
   unroll factors). Constructing via {!bool_} / {!int_} makes the hot
   directive-building paths allocation-free. *)
let true_ = Bool true
let false_ = Bool false
let bool_ b = if b then true_ else false_
let unit_ = Unit

let small_ints = Array.init 257 (fun i -> Int (i - 128))
let int_ i = if i >= -128 && i <= 128 then small_ints.(i + 128) else Int i

let as_int = function Int i -> i | _ -> invalid_arg "Attr.as_int"
let as_bool = function Bool b -> b | _ -> invalid_arg "Attr.as_bool"
let as_str = function Str s -> s | _ -> invalid_arg "Attr.as_str"
let as_float = function Float f -> f | _ -> invalid_arg "Attr.as_float"
let as_ty = function Ty t -> t | _ -> invalid_arg "Attr.as_ty"
let as_map = function Map m -> m | _ -> invalid_arg "Attr.as_map"
let as_set = function Set s -> s | _ -> invalid_arg "Attr.as_set"

let dict_find key = function
  | Dict d -> List.assoc_opt key d
  | _ -> invalid_arg "Attr.dict_find"

let rec pp fmt = function
  | Unit -> Fmt.string fmt "unit"
  | Bool b -> Fmt.bool fmt b
  | Int i -> Fmt.int fmt i
  | Float f -> Fmt.pf fmt "%g" f
  | Str s -> Fmt.pf fmt "%S" s
  | Ty t -> Ty.pp fmt t
  | Arr xs -> Fmt.pf fmt "[%a]" Fmt.(list ~sep:comma pp) xs
  | Map m -> Fmt.pf fmt "affine_map<%a>" Affine.Map.pp m
  | Set s -> Fmt.pf fmt "affine_set<%a>" Affine.Set_.pp s
  | Dict d ->
      let pp_kv fmt (k, v) = Fmt.pf fmt "%s = %a" k pp v in
      Fmt.pf fmt "{%a}" Fmt.(list ~sep:comma pp_kv) d

let to_string a = Fmt.str "%a" pp a
