(* QoR estimator and virtual-synthesizer tests: scheduling formulas (Eqs.
   2-4), resource accounting, and estimator-vs-tool agreement. *)

open Mir
open Dialects
open Scalehls
open Helpers

module P = Vhls.Platform

(* ---- Scheduling building blocks ------------------------------------------------ *)

let test_sched_chain_latency () =
  (* load -> mulf -> addf -> store: 2 + 4 + 5 + 1 = 12 *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let lop, lv = load_id ctx mem [ c0 ] in
  let mop, mv = Arith.mulf ctx lv lv in
  let aop, av = Arith.addf ctx mv mv in
  let sop = store_id ctx av mem [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; lop; mop; aop; sop ] in
  Alcotest.(check int) "critical path" 12 (Vhls.Sched.latency g)

let test_sched_parallel_ops () =
  (* two independent loads schedule in parallel: latency = 2, not 4 *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let mem2 = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let l1, _ = load_id ctx mem [ c0 ] in
  let l2, _ = load_id ctx mem2 [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; l1; l2 ] in
  Alcotest.(check int) "parallel loads" 2 (Vhls.Sched.latency g)

let test_sched_memory_ordering () =
  (* store then load of the same memref must serialize *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let fop, fv = Arith.constant_f ctx 1.0 in
  let sop = store_id ctx fv mem [ c0 ] in
  let lop, _ = load_id ctx mem [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; fop; sop; lop ] in
  (* store (1) then load (2) -> 3 *)
  Alcotest.(check int) "serialized" 3 (Vhls.Sched.latency g)

(* ---- Loop latency formulas --------------------------------------------------------- *)

let simple_loop_module ?(pipeline = false) ?(ii = 1) ~trip () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ trip ] Ty.F32 in
  let f =
    Func.func ctx ~name:"l" ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:trip (fun iv ->
              let lop, lv = load_id ctx mem [ iv ] in
              let aop, av = Arith.addf ctx lv lv in
              [ lop; aop; store_id ctx av mem [ iv ]; Affine_d.yield ])
        in
        let loop =
          if pipeline then
            Hlscpp.set_loop_directive loop
              { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true; loop_target_ii = ii }
          else loop
        in
        [ loop; Func.return_ [] ])
  in
  Ir.module_ [ f ]

let test_nonpipelined_loop_latency () =
  let m = simple_loop_module ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  (* body: load 2 + addf 5 + store 1 = 8; iter overhead 1; 10*(8+1)+1 = 91 *)
  Alcotest.(check int) "latency" 91 r.Vhls.Synth.latency

let test_pipelined_loop_latency () =
  let m = simple_loop_module ~pipeline:true ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  (* II = max(1, II_dep): A[i] has no loop-carried dep -> II 1.
     latency = 1*(10-1) + 8 + 2 = 19 *)
  Alcotest.(check int) "latency" 19 r.Vhls.Synth.latency

let test_pipelined_target_ii_respected () =
  let m = simple_loop_module ~pipeline:true ~ii:4 ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  Alcotest.(check int) "latency with II=4" (4 * 9 + 8 + 2) r.Vhls.Synth.latency

(* [Synth.ii_dep] on the start times the virtual tool passes it: the body's
   graph under [Fu.op_delay]. *)
let tool_ii_dep ~scope ~chain target =
  let body = List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops target) in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) body in
  Vhls.Synth.ii_dep ~starts:(Vhls.Synth.access_starts g) ~chain
    (Analysis.Mem_access.collect ~scope ~basis:(List.map Affine_d.induction_var chain) target)

(* II_dep: accumulation into a scalar cell forces II = recurrence length *)
let test_ii_dep_recurrence () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 16 ] Ty.F32 in
  let acc_ty = Ty.memref [ 1 ] Ty.F32 in
  let f =
    Func.func ctx ~name:"r" ~inputs:[ mem_ty; acc_ty ] ~outputs:[] (fun args ->
        let mem = List.nth args 0 and acc = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:16 (fun iv ->
              let lop, lv = load_id ctx mem [ iv ] in
              let c0op, c0 = Arith.constant_i ctx 0 in
              let aop_l, av_l = load_id ctx acc [ c0 ] in
              let addop, sum = Arith.addf ctx av_l lv in
              [ lop; c0op; aop_l; addop; store_id ctx sum acc [ c0 ]; Affine_d.yield ])
        in
        let loop =
          Hlscpp.set_loop_directive loop
            { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true }
        in
        [ loop; Func.return_ [] ])
  in
  let m = Ir.module_ [ f ] in
  let func = Ir.find_func_exn m "r" in
  let loop = List.hd (Analysis.Loop_utils.top_loops func) in
  let ii = tool_ii_dep ~scope:func ~chain:[ loop ] loop in
  (* recurrence: load acc (2) + addf (5) + store (1) = 8 at distance 1 *)
  Alcotest.(check int) "II_dep equals recurrence delay" 8 ii

(* II_res: more same-bank accesses per iteration than ports *)
let test_ii_res_port_limit () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 16 ] Ty.F32 in
  let f =
    Func.func ctx ~name:"p" ~inputs:[ mem_ty; Ty.memref [ 16 ] Ty.F32 ] ~outputs:[]
      (fun args ->
        let a = List.nth args 0 and b = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:4 (fun iv ->
              (* four distinct loads of a per iteration, unpartitioned: 4
                 accesses / 2 ports = II_res 2 *)
              let mk_load off =
                Affine_d.load ctx a
                  ~map:(Affine.Map.of_expr ~num_dims:1 (Affine.Expr.add (Affine.Expr.dim 0) (Affine.Expr.const off)))
                  [ iv ]
              in
              let l0, v0 = mk_load 0 in
              let l1, v1 = mk_load 4 in
              let l2, v2 = mk_load 8 in
              let l3, v3 = mk_load 12 in
              let a1, s1 = Arith.addf ctx v0 v1 in
              let a2, s2 = Arith.addf ctx v2 v3 in
              let a3, s3 = Arith.addf ctx s1 s2 in
              [ l0; l1; l2; l3; a1; a2; a3; store_id ctx s3 b [ iv ]; Affine_d.yield ])
        in
        [ loop; Func.return_ [] ])
  in
  let func = List.hd (Ir.module_funcs (Ir.module_ [ f ])) in
  let loop = List.hd (Analysis.Loop_utils.top_loops func) in
  let basis = [ Affine_d.induction_var loop ] in
  Alcotest.(check int) "II_res = ceil(4/2)" 2
    (Vhls.Synth.ii_res (Analysis.Mem_access.collect ~scope:func ~basis loop))

(* ---- Resource accounting ------------------------------------------------------------- *)

let test_memory_usage () =
  let mr = Ty.as_memref (Ty.memref [ 1024 ] Ty.F32) in
  let u = Vhls.Synth.memref_usage mr in
  (* 32 Kb in one bank -> 2 BRAM-18K blocks *)
  Alcotest.(check int) "bram blocks" 2 u.P.u_bram18;
  Alcotest.(check int) "bits" (1024 * 32) u.P.u_bits;
  let dram = Ty.as_memref (Ty.memref ~memspace:Ty.Memspace.dram [ 1024 ] Ty.F32) in
  Alcotest.(check int) "dram costs nothing" 0 (Vhls.Synth.memref_usage dram).P.u_bram18

let test_partitioned_memory_usage () =
  (* 16 banks of a small array still cost >= 16 blocks *)
  let layout = Hlscpp.partition_layout ~shape:[ 64 ] [ Hlscpp.Cyclic 16 ] in
  let mr = Ty.as_memref (Ty.memref ~layout:(Some layout) [ 64 ] Ty.F32) in
  Alcotest.(check int) "one block per bank" 16 (Vhls.Synth.memref_usage mr).P.u_bram18

let test_pipelined_fu_sharing () =
  (* 8 multiplies at II=4 need 2 units *)
  let ctx = Ir.Ctx.create () in
  let cop, c = Arith.constant_f ctx 1.0 in
  let muls = List.init 8 (fun _ -> fst (Arith.mulf ctx c c)) in
  let u = Vhls.Synth.(fu_usage_of_counts (fu_counts (cop :: muls)) ~share:4) in
  Alcotest.(check int) "2 units x 3 dsp" 6 u.P.u_dsp

let test_platform_fits () =
  let u = { P.usage_zero with P.u_dsp = 221 } in
  Alcotest.(check bool) "over DSP budget" false (P.fits P.xc7z020 u);
  Alcotest.(check bool) "within budget" true
    (P.fits P.xc7z020 { P.usage_zero with P.u_dsp = 220 })

(* ---- Estimator vs virtual tool -------------------------------------------------------- *)

let test_estimator_matches_synth_on_kernels () =
  List.iter
    (fun k ->
      let ctx, m = compile_kernel ~n:8 k in
      let top = Models.Polybench.name k in
      let pt_space = Dse.build_space ~max_unroll:8 ~max_ii:4 ctx m ~top in
      let rng = Random.State.make [| 11 |] in
      let rec try_point attempts =
        if attempts = 0 then ()
        else
          let pt = Dse.random_point rng pt_space in
          match Dse.apply_point ctx m ~top pt with
          | m' ->
              let e = Estimator.estimate m' ~top in
              let s = Vhls.Synth.synthesize m' ~top in
              let ratio =
                float_of_int (max e.Estimator.latency s.Vhls.Synth.latency)
                /. float_of_int (max 1 (min e.Estimator.latency s.Vhls.Synth.latency))
              in
              Alcotest.(check bool)
                (Fmt.str "%s estimator within 2x of tool (ratio %.2f)" top ratio)
                true (ratio <= 2.0)
          | exception Dse.Inapplicable -> try_point (attempts - 1)
      in
      try_point 6)
    Models.Polybench.all

let test_estimates_monotone_in_trip () =
  let m10 = simple_loop_module ~trip:10 () in
  let m20 = simple_loop_module ~trip:20 () in
  let l10 = (Estimator.estimate m10 ~top:"l").Estimator.latency in
  let l20 = (Estimator.estimate m20 ~top:"l").Estimator.latency in
  Alcotest.(check bool) "larger trip, larger latency" true (l20 > l10)

let test_dataflow_interval () =
  (* two-stage dataflow: interval = max stage latency, latency = sum *)
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 8 ] Ty.F32 in
  let stage name trip =
    Func.func ctx ~name ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        [
          Affine_d.for_const ctx ~lb:0 ~ub:trip (fun iv ->
              let lop, lv = load_id ctx mem [ iv ] in
              [ lop; store_id ctx lv mem [ iv ]; Affine_d.yield ]);
          Func.return_ [];
        ])
  in
  let s1 = stage "s1" 8 and s2 = stage "s2" 4 in
  let top =
    Func.func ctx ~name:"top" ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        let c1, _ = Func.call ctx ~callee:"s1" ~result_tys:[] [ mem ] in
        let c2, _ = Func.call ctx ~callee:"s2" ~result_tys:[] [ mem ] in
        [ c1; c2; Func.return_ [] ])
  in
  let top = Func_pipeline.set_dataflow top in
  let m = Ir.module_ [ s1; s2; top ] in
  let r = Vhls.Synth.synthesize m ~top:"top" in
  let r1 = Vhls.Synth.synthesize m ~top:"s1" in
  let r2 = Vhls.Synth.synthesize m ~top:"s2" in
  Alcotest.(check int) "interval = max stage" (max r1.Vhls.Synth.latency r2.Vhls.Synth.latency)
    r.Vhls.Synth.interval;
  Alcotest.(check int) "latency = sum + handoff"
    (r1.Vhls.Synth.latency + r2.Vhls.Synth.latency + 2)
    r.Vhls.Synth.latency

(* One estimate of a module whose top calls two functions resolves each
   function's accesses through that function's own scope table: every band
   summary it memoizes equals the one an estimate of that function alone
   memoizes under the same key. Each function accumulates into [acc[c0]]
   with [c0] defined in its own body, a recurrence that sets II_dep (8, as
   in "II_dep: recurrence") only when [c0] resolves; the trip counts differ
   so the two bands do not share a memo entry. *)
let test_scope_table_per_function () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 16 ] Ty.F32 and acc_ty = Ty.memref [ 1 ] Ty.F32 in
  let accumulate name trip =
    Func.func ctx ~name ~inputs:[ mem_ty; acc_ty ] ~outputs:[] (fun args ->
        let mem = List.nth args 0 and acc = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:trip (fun iv ->
              let lop, lv = load_id ctx mem [ iv ] in
              let c0op, c0 = Arith.constant_i ctx 0 in
              let aop, av = load_id ctx acc [ c0 ] in
              let addop, sum = Arith.addf ctx av lv in
              [ lop; c0op; aop; addop; store_id ctx sum acc [ c0 ]; Affine_d.yield ])
        in
        [
          Hlscpp.set_loop_directive loop
            { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true };
          Func.return_ [];
        ])
  in
  let top =
    Func.func ctx ~name:"top" ~inputs:[ mem_ty; acc_ty ] ~outputs:[] (fun args ->
        let c1, _ = Func.call ctx ~callee:"f1" ~result_tys:[] args in
        let c2, _ = Func.call ctx ~callee:"f2" ~result_tys:[] args in
        [ c1; c2; Func.return_ [] ])
  in
  let m = Ir.module_ [ accumulate "f1" 16; accumulate "f2" 12; top ] in
  let memos = Estimator.create_memos () in
  ignore (Estimator.estimate ~memos m ~top:"top");
  let together = Estimator.export_bands memos in
  Alcotest.(check int) "one band per function" 2 (List.length together);
  List.iter
    (fun name ->
      let alone = Estimator.create_memos () in
      ignore (Estimator.estimate ~memos:alone m ~top:name);
      List.iter
        (fun (k, (s : Estimator.band_summary)) ->
          Alcotest.(check int) (name ^ ": II_dep of the recurrence") 8 s.Estimator.bs_ii_base;
          Alcotest.(check bool) (name ^ ": same summary as estimated alone") true
            (List.assoc_opt k together = Some s))
        (Estimator.export_bands alone))
    [ "f1"; "f2" ]

(* ---- Demand-driven dependence refinement ---------------------------------------------- *)

module Dep = Analysis.Dependence
module Ma = Analysis.Mem_access

(* Every dependence among [accs] by exhaustive scan: each ordered pair of
   same-memref accesses with a store on one side, and each store with
   itself, through [Dependence.dependence_forms], then [refine_star_dep]
   when the iteration domains [ranges] are known. It shares no pair
   selection with the sieve ([Dependence.iter_pairs]) it checks. *)
let exhaustive_deps ?ranges ~num_dims accs =
  let forms = List.map (fun a -> (a, Dep.linear_form ~num_dims a)) accs in
  let deps =
    List.concat_map
      (fun ((s : Ma.t), fs) ->
        List.filter_map
          (fun ((d : Ma.t), fd) ->
            if
              s.Ma.memref.Ir.vid <> d.Ma.memref.Ir.vid
              || not (s.Ma.is_store || d.Ma.is_store)
            then None
            else
              Option.map
                (fun dirs -> { Dep.src = s; dst = d; dirs })
                (Dep.dependence_forms ~num_dims s fs d fd))
          forms)
      forms
  in
  match ranges with
  | None -> deps
  | Some ranges -> List.concat_map (Dep.refine_star_dep ~num_dims ~ranges) deps

(* The chain's iteration-space domains, when every trip count is constant. *)
let chain_ranges chain =
  let trip_opts = List.map Affine_d.const_trip_count chain in
  if List.for_all Option.is_some trip_opts then
    Some (Array.of_list (List.map (fun t -> (0, Option.get t - 1)) trip_opts))
  else None

(* The eager Eq. 4 fold [Synth.ii_dep] replaced: build and refine every
   dependence of the exhaustive scan up front, then take the max of
   [ceil (delay / dist)] over all of them. *)
let eager_ii_dep ~scope ~chain (target : Ir.op) =
  let basis = List.map Affine_d.induction_var chain in
  let num_dims = List.length basis in
  let accs = Ma.collect ~scope ~basis target in
  let ranges = chain_ranges chain in
  let trips =
    Array.of_list (List.map (fun l -> Option.value ~default:1 (Affine_d.const_trip_count l)) chain)
  in
  let stride j =
    let s = ref 1 in
    for i = j + 1 to num_dims - 1 do
      s := !s * trips.(i)
    done;
    !s
  in
  let body = List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops target) in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) body in
  let t = Vhls.Sched.asap g in
  let times = ref [] in
  Array.iteri
    (fun i (nd : Vhls.Sched.node) ->
      Walk.iter_op (fun x -> times := (x, t.(i)) :: !times) nd.Vhls.Sched.op)
    g.Vhls.Sched.nodes;
  let time_of op = Option.value ~default:0 (List.assq_opt op !times) in
  let distance (dep : Dep.dep) =
    let dirs = Array.of_list dep.Dep.dirs in
    let dims = List.init num_dims Fun.id in
    let stars = List.filter (fun j -> dirs.(j) = Dep.Star && trips.(j) > 1) dims in
    let forced =
      List.filter_map (fun j -> match dirs.(j) with Dep.Lt k -> Some (j, k) | _ -> None) dims
    in
    match (forced, stars) with
    | [], [] -> None
    | _, [] ->
        let d = List.fold_left (fun acc (j, k) -> acc + (k * stride j)) 0 forced in
        if d > 0 then Some d else None
    | [], _ -> Some (stride (List.nth stars (List.length stars - 1)))
    | _ -> Some 1
  in
  List.fold_left
    (fun acc (dep : Dep.dep) ->
      match distance dep with
      | None -> acc
      | Some dist ->
          let src = dep.Dep.src.Ma.op in
          let dst = dep.Dep.dst.Ma.op in
          let delay = time_of src + Vhls.Fu.op_delay src.Ir.name - time_of dst in
          if delay <= 0 then acc else max acc ((delay + dist - 1) / dist))
    1
    (exhaustive_deps ?ranges ~num_dims accs)

(* Every (module, function, chain, target) [ii_dep] can be asked about in
   [m]: the pipelined chains the tool synthesizes, or with [~every_loop],
   each loop together with the perfect nest below it. *)
let ii_dep_sites ?(every_loop = false) m =
  List.concat_map
    (fun f ->
      Walk.fold_ops
        (fun acc l ->
          if not (Affine_d.is_for l) then acc
          else if every_loop then
            let rec nest l =
              match List.filter Affine_d.is_for (Affine_d.body_nonterm l) with
              | [ inner ] ->
                  let chain, tgt = nest inner in
                  (l :: chain, tgt)
              | _ -> ([ l ], l)
            in
            let chain, tgt = nest l in
            if tgt == l then (m, f, chain, tgt) :: acc
            else (m, f, [ l ], l) :: (m, f, chain, tgt) :: acc
          else
            match Vhls.Synth.pipelined_chain l with
            | Some (chain, tgt) -> (m, f, chain, tgt) :: acc
            | None -> acc)
        [] f)
    (Ir.module_funcs m)

(* The pipelined sites of 12 seeded DSE points of each PolyBench kernel at
   N=8, computed once and shared by the tests below. They include chains
   whose every level has one iteration (fully unrolled bands), where
   [ii_dep] drops linear pairs unrefined. *)
let dse_point_sites =
  lazy
    (List.map
       (fun k ->
         let ctx, m = compile_kernel ~n:8 k in
         let top = Models.Polybench.name k in
         let space = Dse.build_space ~max_unroll:8 ~max_ii:4 ctx m ~top in
         let rng = Random.State.make [| 23 |] in
         let sites = ref [] in
         for _ = 1 to 12 do
           match Dse.apply_point ctx m ~top (Dse.random_point rng space) with
           | m' -> sites := !sites @ ii_dep_sites m'
           | exception Dse.Inapplicable -> ()
         done;
         (top, !sites))
       Models.Polybench.all)

let fuzz_sites seed = ii_dep_sites ~every_loop:true (Fuzz.Gen.program ~seed ()).Fuzz.Gen.module_

(* [ii_dep] against the eager fold, on the start times the estimator shares
   across every root of a chain (its one graph of the body, built with its
   own delays, re-delayed by [Synth.access_starts]) and on the virtual
   tool's. *)
let check_ii_dep_sites ~msg sites =
  List.iter
    (fun (m, scope, chain, target) ->
      let want = eager_ii_dep ~scope ~chain target in
      let _, starts =
        Estimator.body_schedule
          (Estimator.create ~band_waits:(Eval_cache.waits ()) m)
          ~scope target
      in
      let accs = Ma.collect ~scope ~basis:(List.map Affine_d.induction_var chain) target in
      Alcotest.(check int) (msg ^ " (estimator's start times)") want
        (Vhls.Synth.ii_dep ~starts ~chain accs);
      Alcotest.(check int) (msg ^ " (tool's start times)") want (tool_ii_dep ~scope ~chain target))
    sites

let test_ii_dep_matches_eager_on_dse_points () =
  let single_point = ref 0 in
  List.iter
    (fun (top, sites) ->
      check_ii_dep_sites ~msg:(top ^ " ii_dep = eager fold") sites;
      Alcotest.(check bool) (top ^ ": pipelined bands checked") true (sites <> []);
      List.iter
        (fun (_, _, chain, _) ->
          if List.for_all (fun l -> Affine_d.const_trip_count l = Some 1) chain then
            incr single_point)
        sites)
    (Lazy.force dse_point_sites);
  Alcotest.(check bool) "a chain whose every level has trip 1 checked" true
    (!single_point > 0)

let test_ii_dep_matches_eager_on_fuzz () =
  for seed = 1 to 60 do
    check_ii_dep_sites
      ~msg:(Fmt.str "fuzz seed %d: ii_dep = eager fold" seed)
      (fuzz_sites seed)
  done

(* A graph built with one set of delays and re-delayed schedules exactly
   like a graph built with the new delays: on every target body of the
   sites above, from the estimator's delays to [Fu.op_delay] and to seeded
   random delays (zero included). *)
let test_redelay_matches_build () =
  let rng = Random.State.make [| 31 |] in
  let bodies = ref 0 in
  let check_sites ~msg sites =
    List.iter
      (fun (m, scope, _, target) ->
        incr bodies;
        let st = Estimator.create ~band_waits:(Eval_cache.waits ()) m in
        let body = Estimator.block_ops (Ir.body_ops target) in
        let g = Vhls.Sched.build ~delay_of:(Estimator.op_latency st ~scope) body in
        let random =
          let delays = List.map (fun o -> (o, Random.State.int rng 9)) body in
          fun o -> List.assq o delays
        in
        List.iter
          (fun (name, delay_of) ->
            let direct = Vhls.Sched.build ~delay_of body in
            let re = Vhls.Sched.redelay ~delay_of g in
            Alcotest.(check (array int))
              (Fmt.str "%s, %s: asap" msg name)
              (Vhls.Sched.asap direct) (Vhls.Sched.asap re);
            Alcotest.(check int)
              (Fmt.str "%s, %s: latency" msg name)
              (Vhls.Sched.latency direct) (Vhls.Sched.latency re))
          [ ("Fu.op_delay", fun o -> Vhls.Fu.op_delay o.Ir.name); ("random", random) ])
      sites
  in
  List.iter (fun (top, sites) -> check_sites ~msg:top sites) (Lazy.force dse_point_sites);
  for seed = 1 to 60 do
    check_sites ~msg:(Fmt.str "fuzz seed %d" seed) (fuzz_sites seed)
  done;
  Alcotest.(check bool) "target bodies checked" true (!bodies > 0)

(* [Dependence.all_deps] is the exhaustive scan as a multiset of (src op,
   dst op, dirs): the sieve skips only pairs that have no dependence. *)
let check_all_deps ~msg ?ranges ~num_dims (accs : Ma.t list) =
  let multiset deps =
    let index (a : Ma.t) =
      let rec go i = function
        | [] -> Alcotest.fail "dependence on an access outside the band"
        | b :: rest -> if a == b then i else go (i + 1) rest
      in
      go 0 accs
    in
    List.sort compare
      (List.map (fun (d : Dep.dep) -> (index d.Dep.src, index d.Dep.dst, d.Dep.dirs)) deps)
  in
  Alcotest.(check bool) msg true
    (multiset (Dep.all_deps ?ranges ~num_dims accs)
    = multiset (exhaustive_deps ?ranges ~num_dims accs))

(* ... on every site, without the domains and, when known, with them. *)
let check_all_deps_sites ~msg sites =
  List.iter
    (fun (_, scope, chain, target) ->
      let basis = List.map Affine_d.induction_var chain in
      let num_dims = List.length basis in
      let accs = Ma.collect ~scope ~basis target in
      check_all_deps ~msg:(msg ^ " (without domains)") ~num_dims accs;
      Option.iter
        (fun ranges -> check_all_deps ~msg:(msg ^ " (with domains)") ~ranges ~num_dims accs)
        (chain_ranges chain))
    sites

let test_all_deps_matches_exhaustive () =
  List.iter
    (fun (top, sites) -> check_all_deps_sites ~msg:(top ^ " all_deps = exhaustive scan") sites)
    (Lazy.force dse_point_sites);
  for seed = 1 to 60 do
    check_all_deps_sites
      ~msg:(Fmt.str "fuzz seed %d: all_deps = exhaustive scan" seed)
      (fuzz_sites seed)
  done

(* The sieve on random access sets over two band dims and two memrefs:
   each access takes one of three coefficient templates (so classes repeat
   and pair across), constants of both signs (so residues wrap), and now
   and then a non-linear row. [all_deps] must equal the exhaustive scan,
   with and without domains. *)
let test_all_deps_matches_exhaustive_random () =
  let ctx = Ir.Ctx.create () in
  let mems = Array.init 2 (fun _ -> Ir.Ctx.fresh ctx (Ty.memref [ 64; 64 ] Ty.F32)) in
  let rng = Random.State.make [| 29 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let d = Affine.Expr.dim and c = Affine.Expr.const in
  for case = 1 to 300 do
    let templates =
      Array.init 3 (fun _ ->
          List.init 2 (fun _ -> Array.init 2 (fun _ -> pick [| -2; 0; 1; 2; 3; 4; 6 |])))
    in
    let row cs =
      if Random.State.int rng 10 = 0 then Affine.Expr.mod_ (d 0) (c 3)
      else
        Affine.Expr.add
          (Affine.Expr.add (Affine.Expr.mul (c cs.(0)) (d 0)) (Affine.Expr.mul (c cs.(1)) (d 1)))
          (c (Random.State.int rng 13 - 6))
    in
    let accs =
      List.init (2 + Random.State.int rng 12) (fun _ ->
          let op, _ = Arith.constant_i ctx 0 in
          {
            Ma.op;
            memref = pick mems;
            is_store = Random.State.bool rng;
            exprs = List.map row (pick templates);
            guards = [];
          })
    in
    let msg = Fmt.str "case %d: all_deps = exhaustive scan" case in
    check_all_deps ~msg ~num_dims:2 accs;
    check_all_deps ~msg ~ranges:[| (0, 3); (0, 5) |] ~num_dims:2 accs
  done

(* ---- Access collection against a whole-scope reference --------------------------------- *)

(* [Mem_access.collect] resolving each constant operand outside the basis
   with its own walk of [scope], the way it did before its constants table. *)
let reference_collect ~on_opaque ~scope ~basis region_op =
  let consts (v : Ir.value) =
    let found = ref None in
    Walk.iter_op
      (fun o ->
        if Arith.is_constant o && List.exists (fun r -> r.Ir.vid = v.Ir.vid) o.Ir.results
        then found := Arith.constant_int_value o)
      scope;
    !found
  in
  let ivs = Hashtbl.create 32 in
  Walk.iter_op
    (fun o -> if Affine_d.is_for o then Hashtbl.replace ivs (Affine_d.induction_var o).Ir.vid o)
    scope;
  let iv_info (v : Ir.value) =
    match Hashtbl.find_opt ivs v.Ir.vid with
    | Some l ->
        let lb = match Affine_d.const_bounds l with Some (lb, _) -> lb | None -> 0 in
        (lb, (Affine_d.bounds l).Affine_d.step)
    | None -> (0, 1)
  in
  let basis_pos = List.mapi (fun j (v : Ir.value) -> (v.Ir.vid, j)) basis in
  let normalize_guard (o : Ir.op) =
    let reps =
      List.map
        (fun (v : Ir.value) ->
          match List.assoc_opt v.Ir.vid basis_pos with
          | Some j ->
              let lb, step = iv_info v in
              Some
                (Affine.Expr.add (Affine.Expr.const lb)
                   (Affine.Expr.mul (Affine.Expr.const step) (Affine.Expr.dim j)))
          | None -> Option.map Affine.Expr.const (consts v))
        o.Ir.operands
    in
    if List.exists Option.is_none reps then []
    else
      let reps = Array.of_list (List.map Option.get reps) in
      List.map
        (fun (c : Affine.Set_.constraint_) ->
          {
            c with
            Affine.Set_.expr =
              Affine.Expr.simplify
                (Affine.Expr.substitute ~dims:(fun i -> reps.(i)) c.Affine.Set_.expr);
          })
        (Affine.Set_.constraints (Affine_d.if_set o))
  in
  let accs = ref [] in
  let rec go guards (o : Ir.op) =
    if o.Ir.name = "affine.load" || o.Ir.name = "affine.store" then (
      match Ma.normalize_access ~iv_info ~basis ~consts o with
      | Some exprs ->
          accs :=
            {
              Ma.op = o;
              memref = Memref.accessed_memref o;
              is_store = o.Ir.name = "affine.store";
              exprs;
              guards;
            }
            :: !accs
      | None -> on_opaque o)
    else if o.Ir.name = "memref.load" || o.Ir.name = "memref.store" then on_opaque o
    else if Affine_d.is_if o then begin
      let gs = normalize_guard o in
      List.iter (fun (b : Ir.block) -> List.iter (go (guards @ gs)) b.Ir.bops) (Ir.region o 0);
      List.iter (fun (b : Ir.block) -> List.iter (go guards) b.Ir.bops) (Ir.region o 1)
    end
    else
      List.iter
        (List.iter (fun (b : Ir.block) -> List.iter (go guards) b.Ir.bops))
        o.Ir.regions
  in
  go [] region_op;
  List.rev !accs

(* [collect] agrees with the reference on the accesses (same ops, memrefs,
   kinds, expressions and guards, in order) and on the opaque ops; so does
   [collect_in] on a scope table built beforehand and shared ([?table]). *)
let check_collect ?table ~msg ~scope ~basis target =
  let ref_opaque = ref [] in
  let want =
    reference_collect ~on_opaque:(fun o -> ref_opaque := o :: !ref_opaque) ~scope ~basis target
  in
  let same (a : Ma.t) (b : Ma.t) =
    a.Ma.op == b.Ma.op
    && a.Ma.memref.Ir.vid = b.Ma.memref.Ir.vid
    && a.Ma.is_store = b.Ma.is_store
    && a.Ma.exprs = b.Ma.exprs && a.Ma.guards = b.Ma.guards
  in
  let check ~msg collect =
    let opaque = ref [] in
    let got = collect ~on_opaque:(fun o -> opaque := o :: !opaque) in
    Alcotest.(check bool) (msg ^ ": accesses") true
      (List.length got = List.length want && List.for_all2 same got want);
    Alcotest.(check bool) (msg ^ ": opaque ops") true
      (List.length !opaque = List.length !ref_opaque && List.for_all2 ( == ) !opaque !ref_opaque)
  in
  check ~msg (fun ~on_opaque -> Ma.collect ~on_opaque ~scope ~basis target);
  Option.iter
    (fun table ->
      check ~msg:(msg ^ " (shared table)") (fun ~on_opaque ->
          Ma.collect_in ~on_opaque table ~basis target))
    table

let test_collect_matches_reference () =
  let bands = ref 0 in
  (* one table per function, shared by every site in it and by the head
     and every suffix basis of each chain, as the estimator shares it *)
  let tables = ref [] in
  let table_of scope =
    match List.assq_opt scope !tables with
    | Some t -> t
    | None ->
        let t = Ma.scope_table scope in
        tables := (scope, t) :: !tables;
        t
  in
  let check_sites ~msg sites =
    List.iter
      (fun (_, scope, chain, target) ->
        incr bands;
        let table = table_of scope in
        List.iteri
          (fun k _ ->
            let suffix = List.filteri (fun i _ -> i >= k) chain in
            check_collect ~table ~msg:(Fmt.str "%s, suffix %d" msg k) ~scope
              ~basis:(List.map Affine_d.induction_var suffix) target)
          chain)
      sites
  in
  List.iter
    (fun k ->
      List.iter
        (fun m -> check_sites ~msg:(Models.Polybench.name k) (ii_dep_sites m))
        (design_point_stages ~seed:11 k))
    Models.Polybench.all;
  Alcotest.(check bool) "pipelined bands checked" true (!bands > 0);
  for seed = 1 to 60 do
    check_sites
      ~msg:(Fmt.str "fuzz seed %d" seed)
      (ii_dep_sites ~every_loop:true (Fuzz.Gen.program ~seed ()).Fuzz.Gen.module_)
  done

(* An index operand and an affine.if operand defined by an arith.constant
   outside the band resolve to the constant, in accesses and in guards. *)
let test_collect_resolves_outer_constants () =
  let ctx = Ir.Ctx.create () in
  let loop = ref None in
  let f =
    Func.func ctx ~name:"k" ~inputs:[ Ty.memref [ 8; 8 ] Ty.F32 ] ~outputs:[] (fun args ->
        let a = List.hd args in
        let c3op, c3 = Arith.constant_i ctx 3 in
        let l =
          Affine_d.for_const ctx ~lb:0 ~ub:8 (fun i ->
              let set =
                Affine.Set_.make ~num_dims:2 ~num_syms:0
                  [ Affine.Set_.ge (Affine.Expr.dim 0) (Affine.Expr.dim 1) ]
              in
              let lop, lv = load_id ctx a [ i; c3 ] in
              [
                Affine_d.if_ ~set ~operands:[ i; c3 ]
                  ~then_:[ lop; store_id ctx lv a [ c3; i ]; Affine_d.yield ]
                  ~else_:[ Affine_d.yield ];
                Affine_d.yield;
              ])
        in
        loop := Some l;
        [ c3op; l; Func.return_ [] ])
  in
  let l = Option.get !loop in
  let basis = [ Affine_d.induction_var l ] in
  check_collect ~msg:"outer constants" ~scope:f ~basis l;
  let d0 = Affine.Expr.dim 0 and c = Affine.Expr.const in
  let guard = [ { Affine.Set_.expr = Affine.Expr.simplify (Affine.Expr.sub d0 (c 3)); eq = false } ] in
  Alcotest.(check bool) "constants resolved" true
    (List.map (fun (x : Ma.t) -> (x.Ma.is_store, x.Ma.exprs, x.Ma.guards)) (Ma.collect ~scope:f ~basis l)
    = [ (false, [ d0; c 3 ], guard); (true, [ c 3; d0 ], guard) ])

(* Equality substitution in [Fm.feasible] against the all-inequality
   encoding ([e >= 0] and [-e >= 0]) on random systems of at most 6
   variables, wherever the latter stays under its blowup cap. *)
let test_fm_equalities_match_inequality_encoding () =
  let rng = Random.State.make [| 5 |] in
  let small n = Random.State.int rng ((2 * n) + 1) - n in
  let outcomes = Hashtbl.create 2 in
  for _ = 1 to 1000 do
    let nvars = 1 + Random.State.int rng 6 in
    let lin () = { Dep.Fm.coeffs = Array.init nvars (fun _ -> small 3); cst = small 6 } in
    let ineqs = List.init (Random.State.int rng 7) (fun _ -> lin ()) in
    let eqs = List.init (Random.State.int rng 3) (fun _ -> lin ()) in
    let neg (c : Dep.Fm.lin) =
      { Dep.Fm.coeffs = Array.map (fun x -> -x) c.Dep.Fm.coeffs; cst = -c.Dep.Fm.cst }
    in
    match Dep.Fm.feasible ~eqs:[] ~nvars (ineqs @ eqs @ List.map neg eqs) with
    | exception Dep.Fm.Give_up -> ()
    | want ->
        Hashtbl.replace outcomes want ();
        Alcotest.(check bool) "feasibility agrees" want (Dep.Fm.feasible ~eqs ~nvars ineqs)
  done;
  Alcotest.(check int) "both outcomes exercised" 2 (Hashtbl.length outcomes)

let suite =
  ( "estimator",
    [
      Alcotest.test_case "chain critical path" `Quick test_sched_chain_latency;
      Alcotest.test_case "parallel ops overlap" `Quick test_sched_parallel_ops;
      Alcotest.test_case "memory ordering serializes" `Quick test_sched_memory_ordering;
      Alcotest.test_case "non-pipelined loop formula" `Quick test_nonpipelined_loop_latency;
      Alcotest.test_case "pipelined loop formula" `Quick test_pipelined_loop_latency;
      Alcotest.test_case "target II respected" `Quick test_pipelined_target_ii_respected;
      Alcotest.test_case "II_dep: recurrence (Eq.4)" `Quick test_ii_dep_recurrence;
      Alcotest.test_case "II_res: port limit (Eq.3)" `Quick test_ii_res_port_limit;
      Alcotest.test_case "memory usage" `Quick test_memory_usage;
      Alcotest.test_case "partitioned memory usage" `Quick test_partitioned_memory_usage;
      Alcotest.test_case "pipelined FU sharing" `Quick test_pipelined_fu_sharing;
      Alcotest.test_case "platform budget check" `Quick test_platform_fits;
      Alcotest.test_case "estimator vs tool within 2x" `Slow test_estimator_matches_synth_on_kernels;
      Alcotest.test_case "latency monotone in trip count" `Quick test_estimates_monotone_in_trip;
      Alcotest.test_case "dataflow interval semantics" `Quick test_dataflow_interval;
      Alcotest.test_case "one scope table per function" `Quick test_scope_table_per_function;
      Alcotest.test_case "II_dep: demand-driven = eager on DSE points" `Quick
        test_ii_dep_matches_eager_on_dse_points;
      Alcotest.test_case "II_dep: demand-driven = eager on fuzz programs" `Quick
        test_ii_dep_matches_eager_on_fuzz;
      Alcotest.test_case "re-delayed graph = graph built with the new delays" `Quick
        test_redelay_matches_build;
      Alcotest.test_case "all_deps = exhaustive pair scan" `Quick
        test_all_deps_matches_exhaustive;
      Alcotest.test_case "all_deps = exhaustive pair scan on random accesses" `Quick
        test_all_deps_matches_exhaustive_random;
      Alcotest.test_case "access collection = whole-scope reference" `Quick
        test_collect_matches_reference;
      Alcotest.test_case "access collection resolves outer constants" `Quick
        test_collect_resolves_outer_constants;
      Alcotest.test_case "FM: equality substitution = inequality pairs" `Quick
        test_fm_equalities_match_inequality_encoding;
    ] )
