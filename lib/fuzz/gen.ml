(** Seeded, deterministic random program generator.

    Produces well-typed loop-level modules — affine loop nests with
    parameterizable depth and trip counts, memref allocations of random
    shapes, arith/math bodies, loop-carried reductions through memory, and
    conditionals via [affine.if] — plus random-but-valid transform
    configurations (pass pipelines that are applicable stage by stage, per
    the probes of {!Transform_lib}).

    Determinism contract: the whole program is a pure function of [seed] —
    the same seed yields byte-identical printed IR on every run (asserted by
    [test_fuzz.ml]). All random draws go through the fully-specified {!Rng};
    list construction uses explicitly ordered helpers so no draw order
    depends on unspecified evaluation order.

    Value-safety invariants (so the differential oracle never chases NaN/inf
    ghosts): memory accesses are wrapped in [mod shape_i] and stay in bounds;
    integer divisors are strictly positive; float division is by nonzero
    constants only; multiplication depth is budgeted per statement so values
    stay far from overflow even across reduction loops; [math] calls are
    limited to the bounded [tanh]. *)

open Mir
open Dialects
open Scalehls
module A = Affine

(* The generator's one configuration (the corpus names it [v1-default]). *)

(** Top-level loop nests per function. *)
let max_nests = 3

(** Loop-nest depth. *)
let max_depth = 3

(** Memref arguments. *)
let max_args = 3

(** Largest memref dimension and trip count. *)
let max_dim = 8

(** Generate [affine.if] conditionals. *)
let allow_if = true

(** Generate integer arith feeding [sitofp]. *)
let allow_int_ops = true

(** Generate local [memref.alloc] scratch buffers. *)
let allow_locals = true

(** Transform-pipeline length. *)
let max_pipeline = 5

type t = { seed : int; module_ : Ir.op; top : string }

let top_name = "fuzz_kernel"

(* Explicitly ordered list construction: [f 0; f 1; ...] with f applied in
   increasing order (List.init's evaluation order is unspecified, which
   would silently break seed determinism with an effectful [f]). *)
let gen_list n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let map_ordered f l =
  let rec go acc = function [] -> List.rev acc | x :: r -> go (f x :: acc) r in
  go [] l

(* ---- Generation environment ---------------------------------------------- *)

type env = {
  ctx : Ir.Ctx.t;
  rng : Rng.t;
  ivs : (Ir.value * int) list;  (** in-scope induction vars with const ubs, outer first *)
  mems : (Ir.value * int list) list;  (** accessible memrefs with shapes *)
  scalars : Ir.value list;  (** float scalar arguments *)
}

let gen_shape rng =
  let rank = 1 + Rng.int rng 2 in
  gen_list rank (fun _ -> 2 + Rng.int rng (max_dim - 1))

(* An affine access (map, operands) into [shape] that is in-bounds for every
   in-scope iv valuation: each index expression is [e mod dim] or a small
   constant. *)
let gen_access env shape =
  let n_ivs = List.length env.ivs in
  let exprs =
    map_ordered
      (fun dimsize ->
        if n_ivs = 0 || Rng.chance env.rng 15 then A.Expr.const (Rng.int env.rng dimsize)
        else
          let base = A.Expr.dim (Rng.int env.rng n_ivs) in
          let base =
            match Rng.int env.rng 4 with
            | 0 -> A.Expr.add base (A.Expr.const (1 + Rng.int env.rng 3))
            | 1 when n_ivs > 1 -> A.Expr.add base (A.Expr.dim (Rng.int env.rng n_ivs))
            | _ -> base
          in
          A.Expr.mod_ base (A.Expr.const dimsize))
      shape
  in
  (A.Map.make ~num_dims:n_ivs ~num_syms:0 exprs, List.map fst env.ivs)

let gen_load env =
  let mem, shape = Rng.pick env.rng env.mems in
  let map, opnds = gen_access env shape in
  let op, v = Affine_d.load env.ctx mem ~map opnds in
  ([ op ], v)

(* ---- Integer expressions (feeding sitofp / select conditions) ------------- *)

let rec gen_iexpr env ~depth : Ir.op list * Ir.value =
  let leaf () =
    if env.ivs <> [] && Rng.chance env.rng 70 then ([], fst (Rng.pick env.rng env.ivs))
    else
      let o, v = Arith.constant_i env.ctx (Rng.int env.rng 7 - 2) in
      ([ o ], v)
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int env.rng 8 with
    | 0 | 1 ->
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let b_ops, b = gen_iexpr env ~depth:(depth - 1) in
        let o, v = Arith.addi env.ctx a b in
        (a_ops @ b_ops @ [ o ], v)
    | 2 ->
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let b_ops, b = gen_iexpr env ~depth:(depth - 1) in
        let o, v = Arith.subi env.ctx a b in
        (a_ops @ b_ops @ [ o ], v)
    | 3 ->
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let b_ops, b = gen_iexpr env ~depth:(depth - 1) in
        let o, v = Arith.muli env.ctx a b in
        (a_ops @ b_ops @ [ o ], v)
    | 4 ->
        (* Division family over a strictly positive divisor: exercises the
           documented round-toward-zero / floor / ceil semantics. *)
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let d_op, d = Arith.constant_i env.ctx (1 + Rng.int env.rng 4) in
        let f = Rng.pick env.rng [ Arith.divi; Arith.remi; Arith.floordivi; Arith.ceildivi ] in
        let o, v = f env.ctx a d in
        (a_ops @ [ d_op; o ], v)
    | 5 ->
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let b_ops, b = gen_iexpr env ~depth:(depth - 1) in
        let f = Rng.pick env.rng [ Arith.maxi; Arith.mini ] in
        let o, v = f env.ctx a b in
        (a_ops @ b_ops @ [ o ], v)
    | 6 ->
        let a_ops, a = gen_iexpr env ~depth:(depth - 1) in
        let b_ops, b = gen_iexpr env ~depth:(depth - 1) in
        let pred = Rng.pick env.rng [ "slt"; "sle"; "sgt"; "sge"; "eq"; "ne" ] in
        let c_op, c = Arith.cmpi env.ctx pred a b in
        let s_op, v = Arith.select env.ctx c a b in
        (a_ops @ b_ops @ [ c_op; s_op ], v)
    | _ -> leaf ()

(* ---- Float expressions ---------------------------------------------------- *)

(* [mul_budget] caps multiplications per statement so magnitudes stay
   polynomial in the inputs even through reduction loops. *)
let rec gen_fexpr env ~depth mul_budget : Ir.op list * Ir.value =
  let leaf () =
    match Rng.int env.rng 4 with
    | 0 when env.scalars <> [] -> ([], Rng.pick env.rng env.scalars)
    | 1 ->
        let o, v =
          Arith.constant_f env.ctx (float_of_int (Rng.int env.rng 17 - 8) /. 2.)
        in
        ([ o ], v)
    | _ -> gen_load env
  in
  if depth <= 0 then leaf ()
  else
    let bin f =
      let a_ops, a = gen_fexpr env ~depth:(depth - 1) mul_budget in
      let b_ops, b = gen_fexpr env ~depth:(depth - 1) mul_budget in
      let o, v = f env.ctx a b in
      (a_ops @ b_ops @ [ o ], v)
    in
    match Rng.int env.rng 12 with
    | 0 | 1 -> bin Arith.addf
    | 2 -> bin Arith.subf
    | 3 when !mul_budget > 0 ->
        decr mul_budget;
        bin Arith.mulf
    | 4 -> bin Arith.maxf
    | 5 -> bin Arith.minf
    | 6 ->
        let a_ops, a = gen_fexpr env ~depth:(depth - 1) mul_budget in
        let o, v = Arith.negf env.ctx a in
        (a_ops @ [ o ], v)
    | 7 ->
        (* Division by a nonzero constant only: no NaN/inf source. *)
        let a_ops, a = gen_fexpr env ~depth:(depth - 1) mul_budget in
        let d_op, d = Arith.constant_f env.ctx (Rng.pick env.rng [ 2.; 4.; 8.; 0.5 ]) in
        let o, v = Arith.divf env.ctx a d in
        (a_ops @ [ d_op; o ], v)
    | 8 when allow_int_ops ->
        let i_ops, iv = gen_iexpr env ~depth:2 in
        let o, v = Arith.sitofp env.ctx iv ~ty:Ty.F32 in
        (i_ops @ [ o ], v)
    | 9 ->
        let a_ops, a = gen_fexpr env ~depth:(depth - 1) mul_budget in
        let b_ops, b = gen_fexpr env ~depth:(depth - 1) mul_budget in
        let pred = Rng.pick env.rng [ "olt"; "ole"; "ogt"; "oge" ] in
        let c_op, c = Arith.cmpf env.ctx pred a b in
        let s_op, v = Arith.select env.ctx c a b in
        (a_ops @ b_ops @ [ c_op; s_op ], v)
    | 10 when Rng.chance env.rng 25 ->
        (* tanh is the one math op with a bounded range — always safe. *)
        let a_ops, a = gen_fexpr env ~depth:(depth - 1) mul_budget in
        let o, rs =
          Ir.mk_fresh env.ctx "math.tanh" ~operands:[ a ] ~result_tys:[ Ty.F32 ]
        in
        (a_ops @ [ o ], List.hd rs)
    | _ -> bin Arith.addf

(* ---- Statements ----------------------------------------------------------- *)

(* A store statement: expression ops immediately followed by the store, all
   in one block (self-contained SSA). With some probability it is a
   loop-carried reduction: combine the current cell value additively. *)
let gen_store env : Ir.op list =
  let mem, shape = Rng.pick env.rng env.mems in
  let map, opnds = gen_access env shape in
  let mul_budget = ref 2 in
  let e_ops, ev = gen_fexpr env ~depth:(1 + Rng.int env.rng 2) mul_budget in
  if Rng.chance env.rng 40 then begin
    let l_op, lv = Affine_d.load env.ctx mem ~map opnds in
    let comb = Rng.pick env.rng [ Arith.addf; Arith.subf; Arith.maxf; Arith.minf ] in
    let c_op, cv = comb env.ctx lv ev in
    e_ops @ [ l_op; c_op; Affine_d.store env.ctx cv mem ~map opnds ]
  end
  else e_ops @ [ Affine_d.store env.ctx ev mem ~map opnds ]

(* Wrap [stmts] in an affine.if over the in-scope ivs. *)
let wrap_if env stmts : Ir.op list =
  let n = List.length env.ivs in
  if n = 0 then stmts
  else begin
    let iv_j = Rng.int env.rng n in
    let _, ub_j = List.nth env.ivs iv_j in
    let constraint_ =
      match Rng.int env.rng 4 with
      | 0 -> A.Set_.ge (A.Expr.dim iv_j) (A.Expr.const 1)
      | 1 -> A.Set_.le (A.Expr.dim iv_j) (A.Expr.const (max 0 (ub_j - 2)))
      | 2 when n > 1 ->
          let k = Rng.int env.rng n in
          A.Set_.eq_zero (A.Expr.sub (A.Expr.dim iv_j) (A.Expr.dim k))
      | _ ->
          let k = Rng.int env.rng n in
          A.Set_.ge (A.Expr.add (A.Expr.dim iv_j) (A.Expr.dim k)) (A.Expr.const 2)
    in
    let set = A.Set_.make ~num_dims:n ~num_syms:0 [ constraint_ ] in
    let else_ = if Rng.chance env.rng 50 then [] else gen_store env in
    [
      Affine_d.if_ ~set
        ~operands:(List.map fst env.ivs)
        ~then_:(stmts @ [ Affine_d.yield ])
        ~else_:(else_ @ [ Affine_d.yield ]);
    ]
  end

let gen_body env : Ir.op list =
  let n = 1 + Rng.int env.rng 3 in
  List.concat
    (gen_list n (fun _ ->
         let s = gen_store env in
         if allow_if && Rng.chance env.rng 30 then wrap_if env s else s))

let rec gen_nest env ~depth : Ir.op =
  let ub = Rng.pick env.rng (List.filter (fun u -> u <= max_dim) [ 2; 3; 4; 6; 8 ]) in
  let step = if Rng.chance env.rng 15 then 2 else 1 in
  Affine_d.for_const env.ctx ~lb:0 ~ub ~step (fun iv ->
      let env = { env with ivs = env.ivs @ [ (iv, ub) ] } in
      let body =
        if depth <= 1 then gen_body env
        else begin
          (* Occasionally imperfect: a statement between loop levels. *)
          let pre = if Rng.chance env.rng 30 then gen_store env else [] in
          pre @ [ gen_nest env ~depth:(depth - 1) ]
        end
      in
      body @ [ Affine_d.yield ])

(* ---- Whole programs ------------------------------------------------------- *)

let program ~seed () : t =
  let rng = Rng.create seed in
  let ctx = Ir.Ctx.create () in
  let n_args = 1 + Rng.int rng max_args in
  let arg_shapes = gen_list n_args (fun _ -> gen_shape rng) in
  let has_scalar = Rng.chance rng 50 in
  let inputs =
    map_ordered (fun s -> Ty.memref s Ty.F32) arg_shapes
    @ (if has_scalar then [ Ty.F32 ] else [])
  in
  let f =
    Func.func ctx ~name:top_name ~inputs ~outputs:[] (fun args ->
        let mems, scalars =
          List.partition (fun (v : Ir.value) -> Ty.is_memref v.Ir.vty) args
        in
        let mems = List.map2 (fun v s -> (v, s)) mems arg_shapes in
        (* Local scratch buffers, deterministically pre-initialized via the
           interpreter's [init_seed] convention. *)
        let locals =
          if allow_locals && Rng.chance rng 50 then begin
            let shape = gen_shape rng in
            let op, v = Memref.alloc ctx shape Ty.F32 in
            let op = Ir.set_attr op "init_seed" (Attr.Int (Rng.int rng 1000)) in
            [ (op, (v, shape)) ]
          end
          else []
        in
        let env = { ctx; rng; ivs = []; mems = mems @ List.map snd locals; scalars } in
        let n_nests = 1 + Rng.int rng max_nests in
        let nests =
          gen_list n_nests (fun _ -> gen_nest env ~depth:(1 + Rng.int rng max_depth))
        in
        List.map fst locals @ nests @ [ Func.return_ [] ])
  in
  { seed; module_ = Ir.module_ [ f ]; top = top_name }

(* ---- Transform configurations -------------------------------------------- *)

type config = { pipeline : string list }

(** A random-but-valid pass pipeline for [prog]: stages are drawn from
    {!Transform_lib.fuzz_pool} of the *intermediate* module, so every stage is
    applicable to what the previous stages produce. Deterministic in
    [prog.seed]. *)
let config (prog : t) : config =
  let rng = Rng.create (Rng.derive prog.seed 0x9c0f) in
  let len = 1 + Rng.int rng max_pipeline in
  let rec go m acc k =
    if k <= 0 then List.rev acc
    else
      match Transform_lib.fuzz_pool m with
      | [] -> List.rev acc
      | pool ->
          let p = Rng.pick rng pool in
          go (Pass.run_one p (Ir.Ctx.of_op m) m) (p.Pass.pass_name :: acc) (k - 1)
  in
  { pipeline = go prog.module_ [] len }
