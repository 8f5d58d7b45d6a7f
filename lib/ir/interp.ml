(** A reference interpreter for the loop/directive-level IR (arith, memref,
    affine, scf, func). Used throughout the test suite — and by the
    differential fuzzing oracle ({!Fuzz.Oracle}) — to prove that transform
    passes preserve program semantics: run a function before and after a
    transformation on the same inputs and compare the output memrefs.

    Runtime value model: buffers store every element as a [float]; integer
    memrefs hold integral floats and loads convert back through the result
    type ({!scalar_of_ty}). That buffer-side conversion is the only implicit
    coercion — scalar SSA values are strictly kinded, and using an integer
    where a float is required (or vice versa) raises a typed
    {!Interp_error}. *)

open Ir

type rvalue =
  | VInt of int
  | VFloat of float
  | VBuf of buffer
  | VUnit

and buffer = { shape : int list; data : float array; belt : Ty.t }

(** What went wrong, machine-checkably: oracles and tests dispatch on the
    kind, messages carry the details. *)
type error_kind =
  | Type_error  (** a value had the wrong runtime kind for the op *)
  | Bounds_error  (** memory access outside the buffer *)
  | Div_by_zero  (** integer division/remainder by zero *)
  | Unbound_value  (** use of an SSA value with no binding *)
  | Malformed_op  (** op structure violates the dialect encoding *)
  | Unsupported_op  (** operation outside the interpreter's coverage *)

let error_kind_to_string = function
  | Type_error -> "type error"
  | Bounds_error -> "out of bounds"
  | Div_by_zero -> "division by zero"
  | Unbound_value -> "unbound value"
  | Malformed_op -> "malformed op"
  | Unsupported_op -> "unsupported op"

exception Interp_error of error_kind * string

let () =
  Printexc.register_printer (function
    | Interp_error (k, msg) ->
        Some (Printf.sprintf "Interp_error(%s: %s)" (error_kind_to_string k) msg)
    | _ -> None)

let error kind fmt = Fmt.kstr (fun s -> raise (Interp_error (kind, s))) fmt

let alloc_buffer shape belt =
  { shape; data = Array.make (max 1 (Ty.num_elements shape)) 0.; belt }

(* Row-major linearization. *)
let linearize shape idxs =
  let rec go shape idxs acc =
    match (shape, idxs) with
    | [], [] -> acc
    | s :: shape, i :: idxs ->
        if i < 0 || i >= s then
          error Bounds_error "index %d out of bounds (dim size %d)" i s;
        go shape idxs ((acc * s) + i)
    | _ -> error Malformed_op "rank mismatch in memory access"
  in
  go shape idxs 0

let kind_of_rvalue = function
  | VInt _ -> "int"
  | VFloat _ -> "float"
  | VBuf _ -> "memref"
  | VUnit -> "unit"

(* Strict projections: no implicit int<->float coercion of SSA values. A
   float where an integer is required (or vice versa) indicates a
   miscompiled/ill-typed program, exactly what the fuzzing oracle wants
   surfaced as a typed error rather than silently rounded away. *)
let as_int = function
  | VInt i -> i
  | v -> error Type_error "expected an integer value, got %s" (kind_of_rvalue v)

let as_float = function
  | VFloat f -> f
  | v -> error Type_error "expected a float value, got %s" (kind_of_rvalue v)

let as_buf = function
  | VBuf b -> b
  | v -> error Type_error "expected a memref value, got %s" (kind_of_rvalue v)

type t = {
  env : (int, rvalue) Hashtbl.t;
  module_ : op;  (** for resolving func.call *)
}

let create module_ = { env = Hashtbl.create 256; module_ }

let bind st v rv = Hashtbl.replace st.env v.vid rv

let lookup st v =
  match Hashtbl.find_opt st.env v.vid with
  | Some rv -> rv
  | None -> error Unbound_value "unbound value %%%d" v.vid

(* Buffer-side conversions (the documented exception to strictness): buffers
   physically store floats, so loads re-type through the result type and
   stores flatten scalars to float. *)
let scalar_of_ty ty f =
  if Ty.is_float ty then VFloat f
  else VInt (int_of_float f)

let float_of_scalar = function
  | VFloat f -> f
  | VInt i -> float_of_int i
  | (VBuf _ | VUnit) as v ->
      error Type_error "expected a scalar to store, got %s" (kind_of_rvalue v)

(* Evaluate affine map operands: all must be integers (index values). *)
let eval_map st map operands =
  let vals = Array.of_list (List.map (fun v -> as_int (lookup st v)) operands) in
  let nd = Affine.Map.num_dims map in
  let dims = Array.sub vals 0 nd in
  let syms = Array.sub vals nd (Array.length vals - nd) in
  Affine.Map.eval map ~dims ~syms

exception Returned of rvalue list

let cmp_int pred a b =
  match pred with
  | "eq" -> a = b
  | "ne" -> a <> b
  | "slt" | "ult" -> a < b
  | "sle" | "ule" -> a <= b
  | "sgt" | "ugt" -> a > b
  | "sge" | "uge" -> a >= b
  | p -> error Unsupported_op "unknown cmpi predicate %s" p

let cmp_float pred a b =
  match pred with
  | "oeq" | "ueq" -> a = b
  | "one" | "une" -> a <> b
  | "olt" | "ult" -> a < b
  | "ole" | "ule" -> a <= b
  | "ogt" | "ugt" -> a > b
  | "oge" | "uge" -> a >= b
  | p -> error Unsupported_op "unknown cmpf predicate %s" p

let rec exec_op st (o : op) : unit =
  let opnd i = List.nth o.operands i in
  let v i = lookup st (opnd i) in
  let bind_result rv = bind st (result o) rv in
  let binf f = bind_result (VFloat (f (as_float (v 0)) (as_float (v 1)))) in
  let bini f = bind_result (VInt (f (as_int (v 0)) (as_int (v 1)))) in
  match o.name with
  | "arith.constant" -> (
      match attr_exn o "value" with
      | Attr.Int i ->
          bind_result (if Ty.is_float (result o).vty then VFloat (float_of_int i) else VInt i)
      | Attr.Float f -> bind_result (VFloat f)
      | _ -> error Malformed_op "arith.constant: bad value attr")
  | "arith.addf" -> binf ( +. )
  | "arith.subf" -> binf ( -. )
  | "arith.mulf" -> binf ( *. )
  | "arith.divf" -> binf ( /. )
  | "arith.negf" -> bind_result (VFloat (-.as_float (v 0)))
  | "arith.maxf" -> binf Float.max
  | "arith.minf" -> binf Float.min
  | "arith.addi" -> bini ( + )
  | "arith.subi" -> bini ( - )
  | "arith.muli" -> bini ( * )
  (* Integer division semantics (documented, matching MLIR):
     - [arith.divi]  = signed division rounding toward zero (arith.divsi);
     - [arith.remi]  = signed remainder taking the sign of the dividend
       (arith.remsi) — OCaml's [(/)] and [(mod)];
     - [arith.floordivi] / [arith.ceildivi] = signed division rounding toward
       -inf / +inf (arith.floordivsi / arith.ceildivsi), the forms affine
       lowering produces.
     A zero divisor raises a typed [Div_by_zero] error in all four. *)
  | "arith.divi" ->
      bini (fun a b -> if b = 0 then error Div_by_zero "arith.divi: %d / 0" a else a / b)
  | "arith.remi" ->
      bini (fun a b -> if b = 0 then error Div_by_zero "arith.remi: %d mod 0" a else a mod b)
  | "arith.floordivi" ->
      bini (fun a b ->
          if b = 0 then error Div_by_zero "arith.floordivi: %d / 0" a
          else Affine.Expr.floor_div a b)
  | "arith.ceildivi" ->
      bini (fun a b ->
          if b = 0 then error Div_by_zero "arith.ceildivi: %d / 0" a
          else Affine.Expr.ceil_div a b)
  | "arith.maxi" -> bini max
  | "arith.mini" -> bini min
  | "arith.andi" -> bini ( land )
  | "arith.ori" -> bini ( lor )
  | "arith.xori" -> bini ( lxor )
  | "arith.shli" -> bini ( lsl )
  | "arith.shri" -> bini ( asr )
  | "arith.cmpi" ->
      bind_result (VInt (if cmp_int (str_attr o "predicate") (as_int (v 0)) (as_int (v 1)) then 1 else 0))
  | "arith.cmpf" ->
      bind_result (VInt (if cmp_float (str_attr o "predicate") (as_float (v 0)) (as_float (v 1)) then 1 else 0))
  | "arith.select" -> bind_result (if as_int (v 0) <> 0 then v 1 else v 2)
  | "arith.index_cast" | "arith.extf" | "arith.truncf" -> bind_result (v 0)
  | "arith.sitofp" -> bind_result (VFloat (float_of_int (as_int (v 0))))
  | "arith.fptosi" -> bind_result (VInt (int_of_float (as_float (v 0))))
  | "math.exp" -> bind_result (VFloat (exp (as_float (v 0))))
  | "math.log" -> bind_result (VFloat (log (as_float (v 0))))
  | "math.sqrt" -> bind_result (VFloat (sqrt (as_float (v 0))))
  | "math.tanh" -> bind_result (VFloat (tanh (as_float (v 0))))
  | "memref.alloc" | "memref.alloca" ->
      let m = Ty.as_memref (result o).vty in
      let buf = alloc_buffer m.Ty.shape m.Ty.elt in
      (* Weight buffers carry an [init_seed] attribute: fill with a
         deterministic pseudo-random pattern of small integers (the values a
         quantized model would be configured with). *)
      (match attr o "init_seed" with
      | Some (Attr.Int seed) ->
          Array.iteri
            (fun i _ ->
              buf.data.(i) <- float_of_int ((((i * 131) + seed) mod 7) - 3))
            buf.data
      | _ -> ());
      bind_result (VBuf buf)
  | "memref.dealloc" -> ()
  | "memref.copy" ->
      let src = as_buf (v 0) and dst = as_buf (v 1) in
      Array.blit src.data 0 dst.data 0 (Array.length src.data)
  | "memref.load" ->
      let buf = as_buf (v 0) in
      let idxs = List.map (fun v -> as_int (lookup st v)) (List.tl o.operands) in
      let f = buf.data.(linearize buf.shape idxs) in
      bind_result (scalar_of_ty (result o).vty f)
  | "memref.store" ->
      (* operands: value, memref, indices *)
      let value = v 0 and buf = as_buf (v 1) in
      let idxs = List.map (fun v -> as_int (lookup st v)) (List.tl (List.tl o.operands)) in
      buf.data.(linearize buf.shape idxs) <- float_of_scalar value
  | "affine.load" ->
      let buf = as_buf (v 0) in
      let idxs = eval_map st (map_attr o "map") (List.tl o.operands) in
      let f = buf.data.(linearize buf.shape idxs) in
      bind_result (scalar_of_ty (result o).vty f)
  | "affine.store" ->
      let value = v 0 and buf = as_buf (v 1) in
      let idxs = eval_map st (map_attr o "map") (List.tl (List.tl o.operands)) in
      buf.data.(linearize buf.shape idxs) <- float_of_scalar value
  | "affine.apply" -> (
      match eval_map st (map_attr o "map") o.operands with
      | [ r ] -> bind_result (VInt r)
      | _ -> error Malformed_op "affine.apply: map must have one result")
  | "affine.min" ->
      let rs = eval_map st (map_attr o "map") o.operands in
      bind_result (VInt (List.fold_left min max_int rs))
  | "affine.max" ->
      let rs = eval_map st (map_attr o "map") o.operands in
      bind_result (VInt (List.fold_left max min_int rs))
  | "affine.for" ->
      (* Bound maps: lb = max over lb-map results, ub = min over ub-map
         results (MLIR semantics). Operands: lb operands then ub operands,
         split by attr "lb_operands_count". *)
      let lb_map = map_attr o "lower_bound" and ub_map = map_attr o "upper_bound" in
      let n_lb = int_attr o "lb_operands" in
      let lb_opnds = List.filteri (fun i _ -> i < n_lb) o.operands in
      let ub_opnds = List.filteri (fun i _ -> i >= n_lb) o.operands in
      let lb = List.fold_left max min_int (eval_map st lb_map lb_opnds) in
      let ub = List.fold_left min max_int (eval_map st ub_map ub_opnds) in
      let step = int_attr o "step" in
      let body = body_block o in
      let iv = match body.bargs with [ iv ] -> iv | _ -> error Malformed_op "affine.for: bad body args" in
      let i = ref lb in
      while !i < ub do
        bind st iv (VInt !i);
        List.iter (exec_op st) body.bops;
        i := !i + step
      done
  | "scf.for" ->
      let lb = as_int (v 0) and ub = as_int (v 1) and step = as_int (v 2) in
      let body = body_block o in
      let iv = match body.bargs with [ iv ] -> iv | _ -> error Malformed_op "scf.for: bad body args" in
      let i = ref lb in
      while !i < ub do
        bind st iv (VInt !i);
        List.iter (exec_op st) body.bops;
        i := !i + step
      done
  | "affine.if" ->
      let set = Attr.as_set (attr_exn o "set") in
      let vals = Array.of_list (List.map (fun v -> as_int (lookup st v)) o.operands) in
      let nd = Affine.Set_.num_dims set in
      let dims = Array.sub vals 0 nd in
      let syms = Array.sub vals nd (Array.length vals - nd) in
      let taken = Affine.Set_.contains set ~dims ~syms in
      let region = if taken then region o 0 else region o 1 in
      List.iter (fun b -> List.iter (exec_op st) b.bops) region
  | "scf.if" ->
      let region = if as_int (v 0) <> 0 then region o 0 else region o 1 in
      List.iter (fun b -> List.iter (exec_op st) b.bops) region
  | "func.call" ->
      let callee = str_attr o "callee" in
      let f =
        match find_func st.module_ callee with
        | Some f -> f
        | None -> error Malformed_op "call to unknown function %s" callee
      in
      let args = List.map (lookup st) o.operands in
      let rets = call_func st f args in
      List.iter2 (bind st) o.results rets
  | "func.return" -> raise (Returned (List.map (lookup st) o.operands))
  | "affine.yield" | "scf.yield" -> ()
  | name -> error Unsupported_op "interp: unsupported operation %s" name

and call_func st f args =
  let body =
    match f.regions with
    | [ [ b ] ] -> b
    | _ -> error Malformed_op "func %s: expected single-block body" (func_name f)
  in
  (if List.length body.bargs <> List.length args then
     error Malformed_op "func %s: arity mismatch" (func_name f));
  List.iter2 (bind st) body.bargs args;
  try
    List.iter (exec_op st) body.bops;
    []
  with Returned vs -> vs

(** Run function [name] of [module_] on [args]. Buffers are shared by
    reference, so callers observe stores into argument memrefs. *)
let run_func module_ name args =
  let st = create module_ in
  let f =
    match find_func module_ name with
    | Some f -> f
    | None -> error Malformed_op "no function named %s" name
  in
  call_func st f args

(** Convenience: make a buffer argument filled by [f] at each linear index. *)
let buffer_init shape belt f =
  let b = alloc_buffer shape belt in
  Array.iteri (fun i _ -> b.data.(i) <- f i) b.data;
  b
