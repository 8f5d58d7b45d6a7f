(** Lowering of the C AST to the scf-level IR (§6.1): [for] loops become
    [scf.for], conditionals [scf.if], arrays become fixed-size memrefs, and
    mutable scalar locals become 1-element memref slots (cleaned up later by
    store-forwarding). The result is then raised into the affine dialect by
    {!Raise_affine}. *)

open Mir
open Dialects
open Cast

exception Codegen_error of string

let error fmt = Fmt.kstr (fun s -> raise (Codegen_error s)) fmt

let scalar_ty = function
  | Cint -> Ty.Index
  | Cfloat -> Ty.F32
  | Cdouble -> Ty.F64
  | Carr _ -> error "array type where scalar expected"

let ir_ty = function
  | Carr (base, dims) -> Ty.memref dims (scalar_ty base)
  | t -> scalar_ty t

type binding =
  | Scalar of Ir.value  (** immutable SSA scalar: parameters, loop ivs *)
  | Slot of Ir.value  (** 1-element memref holding a mutable scalar *)
  | Array of Ir.value

type env = {
  ctx : Ir.Ctx.t;
  mutable vars : (string * binding) list;
  mutable ops : Ir.op list;  (** reversed *)
  module_fns : (string * (Ty.t list * Ty.t list)) list ref;
      (** signatures of previously generated functions, for calls *)
}

let emit env op = env.ops <- op :: env.ops

let emitr env (op, r) =
  emit env op;
  r

let take_ops env =
  let ops = List.rev env.ops in
  env.ops <- [];
  ops

let in_scope env f =
  (* Run [f] with a fresh op buffer and a savable variable scope; returns the
     ops emitted by [f]. *)
  let saved_ops = env.ops and saved_vars = env.vars in
  env.ops <- [];
  f ();
  let ops = List.rev env.ops in
  env.ops <- saved_ops;
  env.vars <- saved_vars;
  ops

let lookup env name =
  match List.assoc_opt name env.vars with
  | Some b -> b
  | None -> error "use of undeclared identifier %s" name

let bind env name b = env.vars <- (name, b) :: env.vars

let const_i env i = emitr env (Arith.constant_i env.ctx i)
let const_f env f = emitr env (Arith.constant_f env.ctx f)

(** Convert a value to float (f32) if it is an integer. *)
let to_float env v =
  if Ty.is_float v.Ir.vty then v else emitr env (Arith.sitofp env.ctx v ~ty:Ty.F32)

let to_index env v =
  if Ty.equal v.Ir.vty Ty.Index then v
  else if Ty.is_float v.Ir.vty then
    emitr env (Arith.binary env.ctx "arith.fptosi" v v ~ty:Ty.Index)
  else emitr env (Arith.index_cast env.ctx v ~ty:Ty.Index)

let math_builtins =
  [
    ("expf", "math.exp"); ("exp", "math.exp");
    ("logf", "math.log"); ("log", "math.log");
    ("sqrtf", "math.sqrt"); ("sqrt", "math.sqrt");
    ("tanhf", "math.tanh"); ("tanh", "math.tanh");
  ]

let rec gen_expr env (e : expr) : Ir.value =
  match e with
  | Int_lit i -> const_i env i
  | Float_lit f -> const_f env f
  | Var name -> (
      match lookup env name with
      | Scalar v -> v
      | Slot m -> emitr env (Memref.load env.ctx m [ const_i env 0 ])
      | Array m -> m (* arrays decay to references, e.g. as call arguments *))
  | Index (name, idx_exprs) -> (
      match lookup env name with
      | Array m ->
          let idxs = List.map (fun e -> to_index env (gen_expr env e)) idx_exprs in
          emitr env (Memref.load env.ctx m idxs)
      | Slot m when idx_exprs = [] -> emitr env (Memref.load env.ctx m [ const_i env 0 ])
      | Scalar _ | Slot _ -> error "%s is not an array" name)
  | Neg e ->
      let v = gen_expr env e in
      if Ty.is_float v.Ir.vty then emitr env (Arith.negf env.ctx v)
      else
        let zero = const_i env 0 in
        emitr env (Arith.subi env.ctx zero v)
  | Not e ->
      let v = gen_expr env e in
      let one = emitr env (Arith.constant_i env.ctx ~ty:Ty.I1 1) in
      emitr env (Arith.binary env.ctx "arith.xori" v one ~ty:Ty.I1)
  | Cond (c, a, b) ->
      let vc = gen_expr env c in
      let va = gen_expr env a and vb = gen_expr env b in
      let va, vb =
        if Ty.is_float va.Ir.vty || Ty.is_float vb.Ir.vty then
          (to_float env va, to_float env vb)
        else (va, vb)
      in
      emitr env (Arith.select env.ctx vc va vb)
  | Call (name, args) -> (
      match List.assoc_opt name math_builtins with
      | Some op_name ->
          let v = to_float env (gen_expr env (List.hd args)) in
          let o, rs =
            Ir.mk_fresh env.ctx op_name ~operands:[ v ] ~result_tys:[ v.Ir.vty ]
          in
          emit env o;
          List.hd rs
      | None -> (
          match List.assoc_opt name !(env.module_fns) with
          | Some (_, outputs) -> (
              let vargs = List.map (gen_expr env) args in
              let o, rs = Func.call env.ctx ~callee:name ~result_tys:outputs vargs in
              emit env o;
              match rs with
              | [ r ] -> r
              | _ -> error "call to %s used as an expression but it returns %d values" name (List.length rs))
          | None -> error "call to unknown function %s" name))
  | Bin (op, a, b) -> gen_binop env op a b

and gen_binop env op a b =
  let va = gen_expr env a and vb = gen_expr env b in
  let float_op = Ty.is_float va.Ir.vty || Ty.is_float vb.Ir.vty in
  match op with
  | "+" | "-" | "*" | "/" | "%" ->
      if float_op then
        let va = to_float env va and vb = to_float env vb in
        let name =
          match op with
          | "+" -> "arith.addf"
          | "-" -> "arith.subf"
          | "*" -> "arith.mulf"
          | "/" -> "arith.divf"
          | _ -> error "operator %% is not defined on floats"
        in
        emitr env (Arith.binary env.ctx name va vb ~ty:va.Ir.vty)
      else
        let name =
          match op with
          | "+" -> "arith.addi"
          | "-" -> "arith.subi"
          | "*" -> "arith.muli"
          | "/" -> "arith.divi"
          | _ -> "arith.remi"
        in
        emitr env (Arith.binary env.ctx name va vb ~ty:va.Ir.vty)
  | "<" | "<=" | ">" | ">=" | "==" | "!=" ->
      if float_op then
        let pred =
          match op with
          | "<" -> "olt" | "<=" -> "ole" | ">" -> "ogt" | ">=" -> "oge"
          | "==" -> "oeq" | _ -> "one"
        in
        emitr env (Arith.cmpf env.ctx pred (to_float env va) (to_float env vb))
      else
        let pred =
          match op with
          | "<" -> "slt" | "<=" -> "sle" | ">" -> "sgt" | ">=" -> "sge"
          | "==" -> "eq" | _ -> "ne"
        in
        emitr env (Arith.cmpi env.ctx pred va vb)
  | "&&" -> emitr env (Arith.binary env.ctx "arith.andi" va vb ~ty:Ty.I1)
  | "||" -> emitr env (Arith.binary env.ctx "arith.ori" va vb ~ty:Ty.I1)
  | _ -> error "unsupported binary operator %s" op

let coerce_to env ty v =
  if Ty.equal v.Ir.vty ty then v
  else if Ty.is_float ty && Ty.is_int v.Ir.vty then to_float env v
  else if Ty.is_int ty && Ty.is_float v.Ir.vty then to_index env v
  else v

let rec gen_stmt env (s : stmt) : unit =
  match s with
  | Block ss -> List.iter (gen_stmt env) ss
  | Expr_stmt (Call (name, args)) when not (List.mem_assoc name math_builtins) -> (
      (* void call statements, e.g. stage(A); *)
      match List.assoc_opt name !(env.module_fns) with
      | Some (_, outputs) ->
          let vargs = List.map (gen_expr env) args in
          let o, _ = Func.call env.ctx ~callee:name ~result_tys:outputs vargs in
          emit env o
      | None -> error "call to unknown function %s" name)
  | Expr_stmt e -> ignore (gen_expr env e)
  | Return None -> emit env (Func.return_ [])
  | Return (Some e) ->
      let v = gen_expr env e in
      emit env (Func.return_ [ v ])
  | Decl (Carr (base, dims), name, init) ->
      if Option.is_some init then error "array initializers are not supported";
      let m = emitr env (Memref.alloc env.ctx dims (scalar_ty base)) in
      bind env name (Array m)
  | Decl (ty, name, init) ->
      let elt = scalar_ty ty in
      let m = emitr env (Memref.alloc env.ctx [ 1 ] elt) in
      bind env name (Slot m);
      Option.iter
        (fun e ->
          let v = coerce_to env elt (gen_expr env e) in
          emit env (Memref.store v m [ const_i env 0 ]))
        init
  | Assign (lhs, op, rhs) ->
      let current () =
        match lhs with
        | Lvar name -> gen_expr env (Var name)
        | Lindex (name, idxs) -> gen_expr env (Index (name, idxs))
      in
      let rhs_v = gen_expr env rhs in
      let value =
        match op with
        | "=" -> rhs_v
        | "+=" | "-=" | "*=" | "/=" ->
            let cur = current () in
            let sym = String.sub op 0 1 in
            let cur, rhs_v =
              if Ty.is_float cur.Ir.vty || Ty.is_float rhs_v.Ir.vty then
                (to_float env cur, to_float env rhs_v)
              else (cur, rhs_v)
            in
            let name =
              if Ty.is_float cur.Ir.vty then
                match sym with
                | "+" -> "arith.addf" | "-" -> "arith.subf"
                | "*" -> "arith.mulf" | _ -> "arith.divf"
              else
                match sym with
                | "+" -> "arith.addi" | "-" -> "arith.subi"
                | "*" -> "arith.muli" | _ -> "arith.divi"
            in
            emitr env (Arith.binary env.ctx name cur rhs_v ~ty:cur.Ir.vty)
        | _ -> error "unsupported assignment operator %s" op
      in
      (match lhs with
      | Lvar name -> (
          match lookup env name with
          | Slot m ->
              let elt = (Ty.as_memref m.Ir.vty).Ty.elt in
              emit env (Memref.store (coerce_to env elt value) m [ const_i env 0 ])
          | Scalar _ -> error "cannot assign to parameter %s (pass it as a pointer)" name
          | Array _ -> error "cannot assign to array %s" name)
      | Lindex (name, idx_exprs) -> (
          match lookup env name with
          | Array m ->
              let idxs = List.map (fun e -> to_index env (gen_expr env e)) idx_exprs in
              let elt = (Ty.as_memref m.Ir.vty).Ty.elt in
              emit env (Memref.store (coerce_to env elt value) m idxs)
          | Slot m ->
              emit env (Memref.store (coerce_to env (Ty.as_memref m.Ir.vty).Ty.elt value) m [ const_i env 0 ])
          | Scalar _ -> error "%s is not an array" name))
  | If (cond, then_, else_) ->
      let vc = gen_expr env cond in
      let then_ops = in_scope env (fun () -> List.iter (gen_stmt env) then_) in
      let else_ops = in_scope env (fun () -> List.iter (gen_stmt env) else_) in
      emit env (Scf.if_ ~cond:vc ~then_:(then_ops @ [ Scf.yield ]) ~else_:(else_ops @ [ Scf.yield ]))
  | For { var; init; cmp; bound; step; body } ->
      let lb = to_index env (gen_expr env init) in
      let bound_v = to_index env (gen_expr env bound) in
      let ub =
        if cmp = "<" then bound_v
        else
          let one = const_i env 1 in
          emitr env (Arith.addi env.ctx bound_v one)
      in
      let step_v = const_i env step in
      let iv = Ir.Ctx.fresh env.ctx Ty.Index in
      let body_ops =
        in_scope env (fun () ->
            bind env var (Scalar iv);
            List.iter (gen_stmt env) body)
      in
      emit env (Scf.for_raw ~lb ~ub ~step:step_v ~iv (body_ops @ [ Scf.yield ]))

let gen_fndef ctx module_fns (f : fndef) : Ir.op =
  let env = { ctx; vars = []; ops = []; module_fns } in
  let param_tys = List.map (fun p -> ir_ty p.pty) f.params in
  let args = List.map (Ir.Ctx.fresh ctx) param_tys in
  List.iter2
    (fun p v ->
      match p.pty with
      | Carr _ -> bind env p.pname (Array v)
      | _ -> bind env p.pname (Scalar v))
    f.params args;
  List.iter (gen_stmt env) f.fbody;
  let outputs = match f.ret with None -> [] | Some t -> [ scalar_ty t ] in
  let body = take_ops env in
  (* Ensure the body ends with a return. *)
  let body =
    match List.rev body with
    | last :: _ when Func.is_return last -> body
    | _ -> body @ [ Func.return_ [] ]
  in
  module_fns := (f.fname, (param_tys, outputs)) :: !module_fns;
  Func.func_raw ~name:f.fname ~args ~outputs body

(** Compile a C translation unit into an IR module at the scf level. *)
let compile ctx (prog : program) : Ir.op =
  let module_fns = ref [] in
  Ir.module_ (List.map (gen_fndef ctx module_fns) prog)

(** Front-end entry point: C source text to an scf-level module. *)
let compile_source ctx src = compile ctx (Parser.parse_program src)
