(** The ScaleHLS QoR estimator (§5.5.1): a fast analytical model over the
    structured directive-level IR, used by the DSE engine to evaluate design
    points without invoking the (much slower) downstream tool.

    Scheduling: each MLIR block is scheduled ALAP over its dependency graph
    (define–use plus memory dependences), with memory ports treated as
    non-shareable. Pipelined loops get II = max(II_res, II_dep, target II)
    (Eqs. 2–4, with II computed by the shared affine machinery). Resources
    use the coarser count/II FU-sharing model — intentionally simpler than
    the virtual downstream tool ({!Vhls.Synth}), which performs list
    scheduling with a concurrency sweep; the two are cross-validated in the
    benchmark harness. *)

open Mir
open Dialects
open Vhls

type estimate = { latency : int; interval : int; usage : Platform.usage }

let pp_estimate fmt e =
  Fmt.pf fmt "latency=%d interval=%d %a" e.latency e.interval Platform.pp_usage
    e.usage

(* ---- Band summaries and the cross-point band memo ----------------------- *)

type band_summary = {
  bs_ii_base : int;  (** max(II_res, II_dep) — independent of the target II *)
  bs_iter_lat : int;  (** scheduled latency of one iteration of the target body *)
  bs_total_trip : int;  (** product of the chain's trip counts *)
  bs_fu_counts : (string * int) list;  (** FU op counts inside the target *)
}
(** Everything the estimator needs from a pipelined band, factored so that
    the directive's target II can be applied at the use site:
    [ii = max target_ii bs_ii_base],
    [latency = ii*(bs_total_trip-1) + bs_iter_lat + 2], and FU usage is
    [bs_fu_counts] shared at [ii]. A summary is therefore reusable across
    design points that only change a band's target II, and across bands that
    are structurally identical in hash-identical environments. *)

type band_ref = {
  br_root : Ir.op;  (** chain root (physical identity within its function) *)
  br_target : Ir.op;  (** the pipelined loop the chain ends at *)
  br_key : int64 option;
      (** cross-point memo key (contextual fingerprint), [None] when the
          summary is not a pure function of subtree + environment *)
}

type func_info = {
  fi_fu_counts : (string * int) list;  (** FU op counts of the whole func *)
  fi_local_mem : Platform.usage;  (** local array BRAM usage *)
  fi_bands : band_ref list;  (** every pipelined chain root, pre-order *)
}
(** Target-II-independent per-function analysis results. The DSE shares one
    transformed module across a whole ladder of target-II siblings (see
    {!Dse.retarget_ii}); caching this record by the function op's *physical
    identity* makes re-estimating a sibling nearly free — no fingerprinting,
    no FU recount, no band re-discovery. *)

type memos = {
  bands : (int64, band_summary) Eval_cache.t;
  fi_lock : Mutex.t;
  fi_filled : Condition.t;  (** broadcast whenever a pending func resolves *)
  mutable fis : (Ir.op * func_info) list;
      (** per-func-op {!func_info}, physical identity; bounded (reset when
          oversized) because entries pin their modules *)
  mutable fi_pending : Ir.op list;  (** funcs whose info is being built *)
}
(** Cross-point (and cross-domain) estimator memo: band summaries keyed by
    the band's contextual fingerprint ({!Fingerprint.subtree} with the
    target II normalized away and the ranges of free values folded in), plus
    the per-module {!func_info} cache. Both fill single-flight, like
    {!Eval_cache.find_or_add}: a domain asking for an entry another domain
    is building waits for it. Create one per DSE run and pass it to
    {!estimate}. *)

let create_memos () =
  {
    bands = Eval_cache.create ~size:256 ();
    fi_lock = Mutex.create ();
    fi_filled = Condition.create ();
    fis = [];
    fi_pending = [];
  }

let memo_hits m = Eval_cache.hits m.bands
let memo_misses m = Eval_cache.misses m.bands
let memo_length m = Eval_cache.length m.bands

(** Export/import of the persistable part of a memo: the band summaries are
    plain data keyed by contextual fingerprint, so they survive a process
    restart unchanged. The [func_info] cache keys on physical op identity
    (and pins its modules live) — it is never persisted. *)
let export_bands m = Eval_cache.bindings m.bands
let import_bands m l = List.iter (fun (k, v) -> Eval_cache.add m.bands k v) l

type t = {
  module_ : Ir.op;
  cache : (string, estimate) Hashtbl.t;
  memos : memos option;
  loop_ii : int option;
      (** read-time override of every pipelined loop's target II — the
          estimator-side twin of {!Dse.retarget_ii}, letting target-II
          siblings share one physical module *)
  mutable band_memo : (Ir.op * band_summary) list;
      (** band summary per chain-root op (physical identity, this module
          only): each root of a flatten chain is revisited by the loop-usage
          fold after the latency pass already summarized it *)
  mutable iter_lat_memo : (Ir.op * int) list;
      (** body latency per pipelined target (physical identity): suffix
          chains of one band share the target, so its schedule is computed
          once *)
  mutable fi_local : (Ir.op * func_info) list;
      (** per-func {!func_info}, local mirror of the shared cache *)
  mutable call_hits : int;  (** this call's band-memo hits ... *)
  mutable call_misses : int;  (** ... and misses (its own schedules run) *)
}

let create ?memos ?loop_ii module_ =
  {
    module_;
    cache = Hashtbl.create 16;
    memos;
    loop_ii;
    band_memo = [];
    iter_lat_memo = [];
    fi_local = [];
    call_hits = 0;
    call_misses = 0;
  }

(* Coarse FU usage: ops/II sharing everywhere (non-pipelined code uses II =
   critical-path length, modelling full sequential reuse). *)
let fu_counts region =
  let counts = Hashtbl.create 16 in
  Walk.iter_op
    (fun x ->
      if Fu.is_fu_op x.Ir.name then
        Hashtbl.replace counts x.Ir.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts x.Ir.name)))
    region;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) counts []

let fu_usage_of_counts counts ~share =
  List.fold_left
    (fun acc (name, count) ->
      let units = max 1 ((count + share - 1) / share) in
      let c = Fu.op_cost name in
      Platform.usage_add acc
        {
          Platform.usage_zero with
          Platform.u_dsp = units * c.Fu.dsp;
          u_lut = units * c.Fu.lut;
          u_ff = units * c.Fu.ff;
        })
    Platform.usage_zero counts

(* ---- Band-memo keys ------------------------------------------------------ *)

(* The summary excludes the target II, so the key must too: hash every loop
   directive with targetII zeroed. Sound only while no *nested* pipelined
   loop contributes to the summary — see [memoizable]. *)
let normalize_target_ii k (a : Attr.t) =
  if String.equal k Hlscpp.loop_directive_key then
    match a with
    | Attr.Dict kvs ->
        Attr.Dict
          (List.map
             (fun ((k', _) as kv) ->
               if String.equal k' "targetII" then (k', Attr.Int 0) else kv)
             kvs)
    | a -> a
  else a

(* A band summary is context-dependent only through the ranges/constants of
   its free values (loop bounds, access indices, if conditions all resolve
   through {!Analysis.Loop_utils.range_env}) and their types
   (memref layouts carry the partitioning). Hash the range at first use. *)
let env_free_hook env (v : Ir.value) =
  match Hashtbl.find_opt env v.Ir.vid with
  | Some (lo, hi) ->
      Fingerprint.of_int (Fingerprint.of_int (Fingerprint.tag 0L 40) lo) hi
  | None -> Fingerprint.tag 0L 41

(* Shareable across modules/points only when the summary is a pure function
   of the subtree + range environment: callees would smuggle in module
   context, and a nested pipelined loop's own target II would be zeroed out
   of the key while still affecting the body schedule. It also keeps the
   single-flight band memo deadlock-free: scheduling a memoizable band
   never reaches {!band_summary_of} or a callee again, so a producer never
   waits on a key — its own included. *)
let memoizable root target =
  (not (Walk.exists Func.is_call root))
  && not (List.exists (Walk.exists Hlscpp.is_pipelined) (Ir.body_ops target))

let target_ii_of st target =
  match st.loop_ii with
  | Some ii -> max 1 ii
  | None -> (
      match Hlscpp.get_loop_directive target with
      | Some d -> max 1 d.Hlscpp.loop_target_ii
      | None -> 1)

(* One pass over a function collects everything the estimator needs that the
   target II cannot change. [with_keys] also prices the cross-point memo keys
   (range environment + contextual fingerprints) — skipped for plain
   memo-less estimates, which then do no fingerprinting at all. *)
let build_func_info ~with_keys (f : Ir.op) : func_info =
  let free_hook =
    if with_keys then env_free_hook (Analysis.Loop_utils.range_env f)
    else Fingerprint.no_free_hook
  in
  let bands =
    List.rev
      (Walk.fold_ops
         (fun acc o ->
           match Synth.pipelined_chain o with
           | Some (_, target) ->
               let key =
                 if with_keys && memoizable o target then
                   Some
                     (Fingerprint.subtree ~free_hook
                        ~attr_hook:normalize_target_ii o)
                 else None
               in
               { br_root = o; br_target = target; br_key = key } :: acc
           | None -> acc)
         [] f)
  in
  {
    fi_fu_counts = fu_counts f;
    fi_local_mem = Synth.local_memory_usage f;
    fi_bands = bands;
  }

(* The shared half of {!func_info}: single-flight over physical identity.
   [build_func_info] consults no memo, so a builder never waits for itself. *)
let shared_func_info ms (f : Ir.op) : func_info =
  let rec claim () =
    match List.assq_opt f ms.fis with
    | Some fi -> Some fi
    | None when List.memq f ms.fi_pending ->
        Condition.wait ms.fi_filled ms.fi_lock;
        claim ()
    | None ->
        ms.fi_pending <- f :: ms.fi_pending;
        None
  in
  match Mutex.protect ms.fi_lock claim with
  | Some fi -> fi
  | None ->
      let resolve insert =
        Mutex.protect ms.fi_lock (fun () ->
            insert ();
            ms.fi_pending <- List.filter (fun g -> g != f) ms.fi_pending;
            Condition.broadcast ms.fi_filled)
      in
      let fi =
        try build_func_info ~with_keys:true f
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          resolve ignore;
          Printexc.raise_with_backtrace e bt
      in
      resolve (fun () ->
          (* entries pin their module: bound the cache *)
          if List.length ms.fis > 512 then ms.fis <- [];
          ms.fis <- (f, fi) :: ms.fis);
      fi

let func_info st (f : Ir.op) : func_info =
  match List.assq_opt f st.fi_local with
  | Some fi -> fi
  | None ->
      let fi =
        match st.memos with
        | None -> build_func_info ~with_keys:false f
        | Some ms -> shared_func_info ms f
      in
      st.fi_local <- (f, fi) :: st.fi_local;
      fi

let rec estimate_func st (f : Ir.op) : estimate =
  let name = Ir.func_name f in
  match Hashtbl.find_opt st.cache name with
  | Some e -> e
  | None ->
      let e =
        match Hlscpp.get_func_directive f with
        | Some d when d.Hlscpp.dataflow ->
            let stages =
              List.filter_map
                (fun o ->
                  if Func.is_call o then
                    Option.map (estimate_func st) (Ir.find_func st.module_ (Func.callee o))
                  else None)
                (Func.func_body f)
            in
            let latency =
              List.fold_left (fun a s -> a + s.latency) (List.length stages) stages
            in
            let interval =
              List.fold_left (fun a s -> max a (max s.interval s.latency)) 1 stages
            in
            let usage =
              List.fold_left
                (fun a s -> Platform.usage_add a s.usage)
                (Synth.local_memory_usage ~pingpong:(fun _ -> true) f)
                stages
            in
            { latency; interval; usage }
        | fd ->
            let fi = func_info st f in
            let lat = estimate_block st ~scope:f (Func.func_body f) in
            let usage =
              Platform.usage_add
                (fu_usage_of_counts fi.fi_fu_counts ~share:(max 1 lat))
                fi.fi_local_mem
            in
            (* Loops inside still need their pipelined FU usage counted with
               their own II; recompute as the max of loop usages. *)
            let loop_usage =
              List.fold_left
                (fun acc br ->
                  let s = band_summary_of st ~scope:f br.br_root br.br_target in
                  let ii = max (target_ii_of st br.br_target) s.bs_ii_base in
                  Platform.usage_max acc
                    (fu_usage_of_counts s.bs_fu_counts ~share:ii))
                Platform.usage_zero fi.fi_bands
            in
            let usage = Platform.usage_max usage loop_usage in
            let interval =
              match fd with
              | Some d when d.Hlscpp.pipeline -> max 1 d.Hlscpp.target_ii
              | _ -> lat
            in
            { latency = lat; interval; usage }
      in
      Hashtbl.replace st.cache name e;
      e

(* Summarize the pipelined band rooted at [root] (its flatten chain ends at
   [target]). Three memo levels: per-root physical identity (this module),
   per-target body latency (shared by the suffix chains the loop-usage fold
   visits), and — when sound — the cross-point fingerprint-keyed memo. *)
and band_summary_of st ~scope root target : band_summary =
  match List.assq_opt root st.band_memo with
  | Some s -> s
  | None ->
      let compute () =
        let chain =
          match Synth.pipelined_chain root with Some (c, _) -> c | None -> [ target ]
        in
        let basis = List.map Affine_d.induction_var chain in
        (* ii_res and ii_dep share one access collection (identical basis). *)
        let accs = Analysis.Mem_access.collect ~scope ~basis target in
        let ii_base =
          max
            (Synth.ii_res ~accs ~scope ~basis target)
            (Synth.ii_dep ~accs ~scope ~chain target)
        in
        let total_trip =
          List.fold_left (fun acc l -> acc * Synth.trip_estimate ~scope l) 1 chain
        in
        {
          bs_ii_base = ii_base;
          bs_iter_lat = iter_latency st ~scope target;
          bs_total_trip = total_trip;
          bs_fu_counts = fu_counts target;
        }
      in
      let s =
        match st.memos with
        | Some memos -> (
            let fi = func_info st scope in
            match
              List.find_opt (fun br -> br.br_root == root) fi.fi_bands
            with
            | Some { br_key = Some key; _ } ->
                (* Counted by the memo's own rule: a miss iff our producer
                   runs. *)
                let ran = ref false in
                let s =
                  Eval_cache.find_or_add memos.bands key (fun () ->
                      ran := true;
                      compute ())
                in
                if !ran then st.call_misses <- st.call_misses + 1
                else st.call_hits <- st.call_hits + 1;
                s
            | _ -> compute ())
        | None -> compute ()
      in
      st.band_memo <- (root, s) :: st.band_memo;
      s

and iter_latency st ~scope target =
  match List.assq_opt target st.iter_lat_memo with
  | Some l -> l
  | None ->
      let l = estimate_block st ~scope (Ir.body_ops target) in
      st.iter_lat_memo <- (target, l) :: st.iter_lat_memo;
      l

(* ALAP-scheduled latency of an op list. *)
and estimate_block st ~scope (ops : Ir.op list) : int =
  let ops =
    List.filter (fun o -> o.Ir.name <> "affine.yield" && o.Ir.name <> "scf.yield") ops
  in
  if ops = [] then 0
  else begin
    let delay_of o = op_latency st ~scope o in
    let g = Sched.build ~delay_of ops in
    (* ALAP at the critical-path deadline (the paper's §5.5.1 choice): the
       block latency is exactly the critical-path length. *)
    Sched.latency g
  end

and op_latency st ~scope (o : Ir.op) : int =
  match o.Ir.name with
  | "affine.for" | "scf.for" -> (
      match Synth.pipelined_chain o with
      | Some (_, target) ->
          let s = band_summary_of st ~scope o target in
          let ii = max (target_ii_of st target) s.bs_ii_base in
          (ii * max 0 (s.bs_total_trip - 1)) + s.bs_iter_lat + 2
      | None ->
          let trip =
            match o.Ir.name with
            | "affine.for" -> Synth.trip_estimate ~scope o
            | _ -> 1
          in
          let body_lat = estimate_block st ~scope (Ir.body_ops o) in
          (trip * (body_lat + 1)) + 1)
  | "affine.if" | "scf.if" ->
      let lat r =
        List.fold_left
          (fun acc (b : Ir.block) -> max acc (estimate_block st ~scope b.Ir.bops))
          0 r
      in
      1 + max (lat (Ir.region o 0)) (lat (Ir.region o 1))
  | "func.call" -> (
      match Ir.find_func st.module_ (Func.callee o) with
      | Some callee -> (estimate_func st callee).latency
      | None -> 0)
  | name -> Fu.op_delay name

(** Estimate the design rooted at function [top], with this call's own
    band-memo [(hits, misses)] — exact even when other estimates share
    [memos] concurrently. Pass [memos] (one {!create_memos} per DSE run) to
    reuse band summaries and per-module analyses across calls; [loop_ii]
    overrides every pipelined loop's target II at read time (see
    {!Dse.retarget_ii}). *)
let estimate_counted ?memos ?loop_ii module_ ~top =
  let st = create ?memos ?loop_ii module_ in
  match Ir.find_func module_ top with
  | Some f ->
      let e = estimate_func st f in
      (e, (st.call_hits, st.call_misses))
  | None -> invalid_arg (Printf.sprintf "Estimator.estimate: no function %s" top)

(** {!estimate_counted} without the counts. *)
let estimate ?memos ?loop_ii module_ ~top =
  fst (estimate_counted ?memos ?loop_ii module_ ~top)
