(** The [scf] (structured control flow) dialect: loops and conditionals whose
    bounds/conditions are arbitrary SSA values (§2.2). *)

open Mir
open Ir

let for_raw ~lb ~ub ~step ~iv body =
  mk "scf.for" ~operands:[ lb; ub; step ] ~results:[]
    ~regions:[ [ block ~args:[ iv ] body ] ]

let if_ ~cond ~then_ ~else_ =
  mk "scf.if" ~operands:[ cond ] ~results:[]
    ~regions:[ [ block then_ ]; [ block else_ ] ]

let yield = mk "scf.yield" ~operands:[] ~results:[]

let for_bounds o =
  match o.operands with
  | [ lb; ub; step ] -> (lb, ub, step)
  | _ -> invalid_arg "Scf.for_bounds"

let induction_var o =
  match (body_block o).bargs with
  | [ iv ] -> iv
  | _ -> invalid_arg "Scf.induction_var"
