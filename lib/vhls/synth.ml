(** The virtual downstream HLS synthesizer — the stand-in for Xilinx Vivado
    HLS 2019.1 (see DESIGN.md, substitutions). Given a directive-level module
    it produces a synthesis report: latency (cycles), initiation interval,
    and resource usage, with the same scheduling semantics as the real tool:

    - straight-line code: dependency-graph (list) scheduling with FU reuse;
    - non-pipelined loops: trip * (body latency + exit check) + control;
    - pipelined loops: II = max(target II, resource-constrained II over
      memory-bank ports, dependence-constrained II over loop-carried
      recurrences), latency = II*(trip-1) + iteration latency; perfect outer
      loops annotated [flatten] multiply the trip count;
    - dataflow functions: stages overlap — interval = max stage interval,
      latency = sum of stage latencies, inter-stage buffers are ping-pong
      doubled;
    - arrays: one physical bank per partition (§4.3.3), BRAM/URAM blocks per
      bank, memory ports per the resource directive (§4.3.4). Top-level
      function arguments are external interfaces and consume no on-chip
      memory. *)

open Mir
open Dialects
open Analysis

module A = Affine

type report = {
  latency : int;
  interval : int;
  usage : Platform.usage;
}

let report_zero = { latency = 0; interval = 0; usage = Platform.usage_zero }

(* Field accessors, so oracles and external QoR consumers do not depend on
   the record layout (the fuzzing subsystem compares reports across
   transformations through these). *)
let latency r = r.latency
let interval r = r.interval
let usage r = r.usage

let pp_report fmt r =
  Fmt.pf fmt "latency=%d interval=%d %a" r.latency r.interval Platform.pp_usage
    r.usage

type t = {
  module_ : Ir.op;
  func_reports : (string, report) Hashtbl.t;
}

let create module_ = { module_; func_reports = Hashtbl.create 16 }

(* ---- Memory usage ---------------------------------------------------------- *)

let memref_usage (mr : Ty.memref) =
  if mr.Ty.memspace = Ty.Memspace.dram then Platform.usage_zero
  else
    let banks = Hlscpp.num_banks mr in
    let bits = Ty.storage_bits (Ty.Memref mr) in
    let per_bank = (bits + banks - 1) / banks in
    let blocks =
      if mr.Ty.memspace = Ty.Memspace.uram then 0
      else banks * Fu.bram18_for_bits per_bank
    in
    {
      Platform.usage_zero with
      Platform.u_bram18 = blocks;
      u_bits = bits;
      u_lut = banks (* bank mux glue, negligible *);
    }

(* Allocations directly inside a function (not nested in called funcs). *)
let local_memory_usage ?(pingpong = fun (_ : Ir.op) -> false) f =
  Walk.fold_ops
    (fun acc o ->
      if o.Ir.name = "memref.alloc" then begin
        let u = memref_usage (Ty.as_memref (Ir.result o).Ir.vty) in
        let u =
          if pingpong o then
            {
              u with
              Platform.u_bram18 = 2 * u.Platform.u_bram18;
              u_bits = 2 * u.Platform.u_bits;
            }
          else u
        in
        Platform.usage_add acc u
      end
      else acc)
    Platform.usage_zero f

(* ---- Pipelined loop analysis ------------------------------------------------ *)

(** Trip-count estimate of a loop: exact for constant bounds; for variable
    bounds, the average over the outer iteration box (e.g. the triangular
    j <= i loop of SYRK counts N/2 iterations), so baselines with variable
    bounds are costed realistically. *)
let trip_estimate ~scope (l : Ir.op) =
  match Affine_d.const_trip_count l with
  | Some t -> t
  | None -> (
      let b = Affine_d.bounds l in
      let env = Loop_utils.range_env scope in
      let avg_bound map operands =
        match A.Map.results map with
        | [ e ] -> (
            let ranges =
              List.map (fun (v : Ir.value) -> Hashtbl.find_opt env v.Ir.vid) operands
            in
            if List.for_all Option.is_some ranges then
              Option.map
                (fun (lo, hi) -> (lo + hi) / 2)
                (A.Solve.range_of_expr ~num_dims:(A.Map.num_dims map)
                   ~ranges:(Array.of_list (List.map Option.get ranges))
                   e)
            else None)
        | _ -> None
      in
      match
        (avg_bound b.Affine_d.lb_map b.Affine_d.lb_operands,
         avg_bound b.Affine_d.ub_map b.Affine_d.ub_operands)
      with
      | Some lb, Some ub ->
          max 1 (A.Expr.ceil_div (max 0 (ub - lb)) b.Affine_d.step)
      | _ -> 1)

(* Descend through [flatten]-annotated perfect loops to the pipelined target.
   Returns (enclosing flattened loops incl. target, target) or None. *)
let rec pipelined_chain (l : Ir.op) =
  if not (Affine_d.is_for l) then None
  else if Hlscpp.is_pipelined l then Some ([ l ], l)
  else
    match Hlscpp.get_loop_directive l with
    | Some d when d.Hlscpp.flatten -> (
        match List.filter Affine_d.is_for (Affine_d.body_nonterm l) with
        | [ inner ] -> (
            match pipelined_chain inner with
            | Some (chain, tgt) -> Some (l :: chain, tgt)
            | None -> None)
        | _ -> None)
    | _ -> None

(* Resource-constrained minimal II (Eq. 3): accesses per memory bank divided
   by ports. Bank of an access is resolved by composing the partition layout
   with the access function; non-constant banks are spread optimistically.
   [?accs] lets the caller share one [Mem_access.collect ~basis] result with
   {!ii_dep} (both use the pipelined chain's induction variables as basis). *)
let ii_res ?accs ~scope ~basis (target : Ir.op) =
  let accs =
    match accs with
    | Some a -> a
    | None -> Mem_access.collect ~scope ~basis target
  in
  let by_mem = Mem_access.by_memref accs in
  List.fold_left
    (fun acc ((m : Ir.value), maccs) ->
      let mr = Ty.as_memref m.Ir.vty in
      let banks = Hlscpp.num_banks mr in
      let ports = Ty.Memspace.ports mr.Ty.memspace in
      let counts = Hashtbl.create 16 in
      let unknown = ref 0 in
      List.iter
        (fun (a : Mem_access.t) ->
          match mr.Ty.layout with
          | None -> incr unknown
          | Some layout ->
              let n = List.length mr.Ty.shape in
              let part_exprs = List.filteri (fun i _ -> i < n) (A.Map.results layout) in
              let reps = Array.of_list a.Mem_access.exprs in
              let bank_exprs =
                List.map
                  (fun e ->
                    A.Expr.simplify
                      (A.Expr.substitute ~dims:(fun i -> reps.(i)) e))
                  part_exprs
              in
              if List.for_all A.Expr.is_const bank_exprs then begin
                let parts = Hlscpp.partitions_of_memref mr in
                let bank =
                  List.fold_left2
                    (fun acc p e ->
                      (acc * Hlscpp.partition_factor p)
                      + Option.get (A.Expr.as_const e))
                    0 parts bank_exprs
                in
                Hashtbl.replace counts bank
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts bank))
              end
              else incr unknown)
        maccs;
      let unknown_per_bank = (!unknown + banks - 1) / banks in
      let max_bank =
        Hashtbl.fold (fun _ c m -> max c m) counts 0 + unknown_per_bank
      in
      let max_bank = if Hashtbl.length counts = 0 then unknown_per_bank else max_bank in
      max acc ((max_bank + ports - 1) / ports))
    1 by_mem

(* Dependence-constrained minimal II (Eq. 4) for pipelining [target] with the
   (possibly flattened) enclosing chain [chain].

   Non-uniform (all-[Star]) dependences are refined per carried level with
   the guard- and domain-aware Fourier-Motzkin test only on demand. Every
   dependence contributes [ceil (delay / dist)] with [dist >= 1], whether
   refined or not, where [delay] depends only on its source and destination
   ops; so it contributes at most [delay]. Visiting the dependences in
   decreasing [delay] order and stopping once [delay] no longer exceeds the
   running max therefore gives exactly the max over every refined
   dependence, while refining only the few whose answer can still raise
   the II. *)
let ii_dep ?accs ~scope ~chain (target : Ir.op) =
  let basis = List.map Affine_d.induction_var chain in
  let num_dims = List.length basis in
  let accs =
    match accs with
    | Some a -> a
    | None -> Mem_access.collect ~scope ~basis target
  in
  (* iteration-space domains enable the guard-aware FM refinement *)
  let ranges =
    let rs = List.map Affine_d.const_trip_count chain in
    if List.for_all Option.is_some rs then
      Some (Array.of_list (List.map (fun t -> (0, Option.get t - 1)) rs))
    else None
  in
  let deps = Dependence.all_deps ~num_dims accs in
  if deps = [] then 1
  else begin
    (* strides: iterations of the flattened space per unit step of each dim *)
    let trips =
      List.map
        (fun l -> Option.value ~default:1 (Affine_d.const_trip_count l))
        chain
    in
    let strides = Array.make num_dims 1 in
    let rec fill i = function
      | [] -> ()
      | _ :: rest ->
          strides.(i) <- List.fold_left ( * ) 1 rest;
          fill (i + 1) rest
    in
    fill 0 trips;
    (* per-op ASAP start times within an iteration of the target body *)
    let body =
      List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops target)
    in
    let g = Sched.build ~delay_of:(fun o -> Fu.op_delay o.Ir.name) body in
    let t = Sched.asap g in
    (* one pass: physical-identity table from access op to its node's time
       (ops may be nested inside affine.if nodes). Keyed by physical
       identity behind a hash of the op's operand and result value ids:
       [==] implies equal hashes, so the table is exact while lookups stay
       O(1) — wide unrolled bodies pair thousands of deps against hundreds
       of accesses, and the former assoc-list scan made this quadratic. *)
    let module Op_tbl = Hashtbl.Make (struct
      type nonrec t = Ir.op

      let equal = ( == )

      let hash (o : Ir.op) =
        let vids h vs = List.fold_left (fun h (v : Ir.value) -> (h * 31) + v.Ir.vid) h vs in
        vids (vids 0 o.Ir.results) o.Ir.operands land max_int
    end) in
    let times = Op_tbl.create 64 in
    Array.iteri
      (fun i nd ->
        Walk.iter_op
          (fun x -> if Memref.is_access x then Op_tbl.replace times x t.(i))
          nd.Sched.op)
      g.Sched.nodes;
    let time_of (op : Ir.op) =
      match Op_tbl.find_opt times op with Some v -> v | None -> 0
    in
    let trips_arr = Array.of_list trips in
    let flat_distance (dep : Dependence.dep) =
      let entries = List.mapi (fun j d -> (j, d)) dep.Dependence.dirs in
      (* Star dims with a single iteration cannot carry a dependence. *)
      let stars =
        List.filter
          (fun (j, d) -> d = Dependence.Star && trips_arr.(j) > 1)
          entries
      in
      let forced =
        List.filter_map
          (fun (j, d) -> match d with Dependence.Lt k -> Some (j, k) | _ -> None)
          entries
      in
      match (forced, stars) with
      | [], [] -> None (* loop-independent *)
      | _, [] ->
          let dist =
            List.fold_left (fun acc (j, k) -> acc + (k * strides.(j))) 0 forced
          in
          if dist > 0 then Some dist else None
      | [], _ ->
          (* free deltas on the star dims: the smallest positive flattened
             distance is the stride of the innermost star dim *)
          let j, _ = List.nth stars (List.length stars - 1) in
          Some strides.(j)
      | _ -> Some 1 (* forced + free mix: conservative *)
    in
    let delayed =
      List.filter_map
        (fun (dep : Dependence.dep) ->
          let src_op = dep.Dependence.src.Mem_access.op in
          let dst_op = dep.Dependence.dst.Mem_access.op in
          let delay =
            time_of src_op + Fu.op_delay src_op.Ir.name - time_of dst_op
          in
          if delay <= 0 then None else Some (delay, dep))
        deps
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    let bound delay acc dep =
      match flat_distance dep with
      | None -> acc
      | Some dist -> max acc ((delay + dist - 1) / dist)
    in
    let rec fold acc = function
      | (delay, dep) :: rest when delay > acc ->
          let variants =
            match ranges with
            | Some ranges -> Dependence.refine_star_dep ~num_dims ~ranges dep
            | None -> [ dep ]
          in
          fold (List.fold_left (bound delay) acc variants) rest
      | _ -> acc
    in
    fold 1 delayed
  end

(* FU usage of a pipelined body: units shared across II cycles. *)
let pipelined_fu_usage body ~ii =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun o ->
      Walk.iter_op
        (fun x ->
          if Fu.is_fu_op x.Ir.name then
            Hashtbl.replace counts x.Ir.name
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts x.Ir.name)))
        o)
    body;
  Hashtbl.fold
    (fun name count acc ->
      let units = (count + ii - 1) / ii in
      let c = Fu.op_cost name in
      Platform.usage_add acc
        {
          Platform.usage_zero with
          Platform.u_dsp = units * c.Fu.dsp;
          u_lut = units * c.Fu.lut;
          u_ff = units * c.Fu.ff;
        })
    counts Platform.usage_zero

(* Non-FU glue LUTs of a region (rough): loads/stores/ifs contribute mux
   logic. *)
let glue_usage o =
  Walk.fold_ops
    (fun acc x ->
      if Fu.is_fu_op x.Ir.name then acc
      else
        let c = Fu.op_cost x.Ir.name in
        {
          acc with
          Platform.u_lut = acc.Platform.u_lut + c.Fu.lut;
          u_ff = acc.Platform.u_ff + c.Fu.ff;
        })
    Platform.usage_zero o

(* ---- Recursive analysis ------------------------------------------------------ *)

let rec analyze_func st (f : Ir.op) : report =
  let name = Ir.func_name f in
  match Hashtbl.find_opt st.func_reports name with
  | Some r -> r
  | None ->
      let r =
        match Hlscpp.get_func_directive f with
        | Some d when d.Hlscpp.dataflow -> analyze_dataflow st f
        | _ ->
            let lat, usage = analyze_ops st ~scope:f (Func.func_body f) in
            let usage = Platform.usage_add usage (local_memory_usage f) in
            let interval =
              match Hlscpp.get_func_directive f with
              | Some d when d.Hlscpp.pipeline -> max 1 d.Hlscpp.target_ii
              | _ -> lat
            in
            { latency = lat; interval = max 1 interval; usage }
      in
      Hashtbl.replace st.func_reports name r;
      r

and analyze_dataflow st (f : Ir.op) : report =
  let body = Func.func_body f in
  let stages = List.filter Func.is_call body in
  let stage_reports =
    List.map
      (fun call ->
        match Ir.find_func st.module_ (Func.callee call) with
        | Some callee -> analyze_func st callee
        | None -> report_zero)
      stages
  in
  let latency =
    List.fold_left (fun acc r -> acc + r.latency) 0 stage_reports
    + List.length stages
  in
  let interval =
    List.fold_left (fun acc r -> max acc (max r.interval r.latency)) 1 stage_reports
  in
  let stage_usage =
    List.fold_left
      (fun acc r -> Platform.usage_add acc r.usage)
      Platform.usage_zero stage_reports
  in
  (* Inter-stage buffers allocated here are ping-pong doubled. *)
  let mem = local_memory_usage ~pingpong:(fun _ -> true) f in
  { latency; interval; usage = Platform.usage_add stage_usage mem }

(* Latency and FU usage of a straight-line op list (composite ops analyzed
   recursively). Memory (allocs) is accounted at the function level. *)
and analyze_ops st ~scope (ops : Ir.op list) : int * Platform.usage =
  let ops = List.filter (fun o -> o.Ir.name <> "affine.yield" && o.Ir.name <> "scf.yield") ops in
  (* Analyze composite ops first. *)
  let composite : (int, report) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i o ->
      match o.Ir.name with
      | "affine.for" | "scf.for" -> Hashtbl.replace composite i (analyze_loop st ~scope o)
      | "affine.if" | "scf.if" ->
          let lt, ut = analyze_region st ~scope o 0 in
          let le, ue = analyze_region st ~scope o 1 in
          Hashtbl.replace composite i
            { latency = 1 + max lt le; interval = 1 + max lt le; usage = Platform.usage_max ut ue }
      | "func.call" ->
          let r =
            match Ir.find_func st.module_ (Func.callee o) with
            | Some callee -> analyze_func st callee
            | None -> report_zero
          in
          Hashtbl.replace composite i r
      | _ -> ())
    ops;
  let delay_of_idx = ref [] in
  List.iteri
    (fun i o ->
      let d =
        match Hashtbl.find_opt composite i with
        | Some r -> r.latency
        | None -> Fu.op_delay o.Ir.name
      in
      delay_of_idx := (o, d) :: !delay_of_idx)
    ops;
  let delays = List.rev !delay_of_idx in
  let delay_of o =
    match List.find_opt (fun (x, _) -> x == o) delays with
    | Some (_, d) -> d
    | None -> Fu.op_delay o.Ir.name
  in
  let g = Sched.build ~delay_of ops in
  let lat = Sched.latency g in
  let t = Sched.asap g in
  (* Leaf FU usage by concurrency; composite usage shared via max. *)
  let leaf_usage =
    List.fold_left
      (fun acc (name, units) ->
        let c = Fu.op_cost name in
        Platform.usage_add acc
          {
            Platform.usage_zero with
            Platform.u_dsp = units * c.Fu.dsp;
            u_lut = units * c.Fu.lut;
            u_ff = units * c.Fu.ff;
          })
      Platform.usage_zero (Sched.fu_concurrency g t)
  in
  let composite_usage =
    Hashtbl.fold (fun _ r acc -> Platform.usage_max acc r.usage) composite
      Platform.usage_zero
  in
  (lat, Platform.usage_add leaf_usage composite_usage)

and analyze_region st ~scope o i =
  List.fold_left
    (fun (lat, usage) (b : Ir.block) ->
      let l, u = analyze_ops st ~scope b.Ir.bops in
      (max lat l, Platform.usage_max usage u))
    (0, Platform.usage_zero) (Ir.region o i)

and analyze_loop st ~scope (l : Ir.op) : report =
  match pipelined_chain l with
  | Some (chain, target) ->
      let total_trip =
        List.fold_left (fun acc loop -> acc * trip_estimate ~scope loop) 1 chain
      in
      let body =
        List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops target)
      in
      let iter_lat, _ = analyze_ops st ~scope body in
      let target_ii =
        match Hlscpp.get_loop_directive target with
        | Some d -> max 1 d.Hlscpp.loop_target_ii
        | None -> 1
      in
      let basis = List.map Affine_d.induction_var chain in
      let accs = Mem_access.collect ~scope ~basis target in
      let ii =
        max target_ii
          (max (ii_res ~accs ~scope ~basis target) (ii_dep ~accs ~scope ~chain target))
      in
      let latency = (ii * max 0 (total_trip - 1)) + iter_lat + Fu.loop_overhead + 1 in
      let usage =
        Platform.usage_add (pipelined_fu_usage body ~ii) (glue_usage target)
      in
      { latency; interval = latency; usage }
  | None ->
      let trip =
        match l.Ir.name with
        | "affine.for" -> trip_estimate ~scope l
        | _ -> 1
      in
      let body_lat, usage = analyze_ops st ~scope (Ir.body_ops l) in
      let latency = (trip * (body_lat + Fu.iter_overhead)) + Fu.loop_overhead in
      { latency; interval = latency; usage }

(** Synthesize the module with [top] as the top-level function. *)
let synthesize module_ ~top =
  let st = create module_ in
  match Ir.find_func module_ top with
  | Some f -> analyze_func st f
  | None -> invalid_arg (Printf.sprintf "Synth.synthesize: no function %s" top)
