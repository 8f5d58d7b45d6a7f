(** The [func] dialect: functions, calls, returns. A function op has attrs
    [sym_name] and [function_type] and a single-block region whose block
    arguments are the parameters. *)

open Mir
open Ir

let func ctx ~name ~inputs ~outputs body_fn =
  let args = List.map (Ctx.fresh ctx) inputs in
  let body = body_fn args in
  mk "func"
    ~attrs:
      [
        ("sym_name", Attr.Str name);
        ("function_type", Attr.Ty (Ty.fn inputs outputs));
      ]
    ~operands:[] ~results:[]
    ~regions:[ [ block ~args body ] ]

(** Build a function from pre-made argument values and body ops. *)
let func_raw ~name ~args ~outputs body =
  mk "func"
    ~attrs:
      [
        ("sym_name", Attr.Str name);
        ("function_type", Attr.Ty (Ty.fn (List.map (fun v -> v.vty) args) outputs));
      ]
    ~operands:[] ~results:[]
    ~regions:[ [ block ~args body ] ]

let call ctx ~callee ~result_tys args =
  mk_fresh ctx "func.call" ~attrs:[ ("callee", Attr.Str callee) ] ~operands:args
    ~result_tys

let return_ vs = mk "func.return" ~operands:vs ~results:[]

let is_func o = o.name = "func"
let is_call o = o.name = "func.call"
let is_return o = o.name = "func.return"

let callee o = str_attr o "callee"

let func_args f =
  match f.regions with
  | [ [ b ] ] -> b.bargs
  | _ -> invalid_arg "Func.func_args"

let func_body f =
  match f.regions with
  | [ [ b ] ] -> b.bops
  | _ -> invalid_arg "Func.func_body"

let with_func_body f ops = with_body f ops
