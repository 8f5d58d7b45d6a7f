(** One cold design search as a user runs it: HLS-C source -> frontend
    ([Pipeline.compile_c]) -> DSE ([Dse.run]) -> virtual synthesis of the
    best module -> C++ emission, in a fresh IR context. Plus the digests and
    checks every workload applies to its outputs. *)

open Mir
open Scalehls
module Poly = Models.Polybench
module Json = Obs.Json

type design = { kernel : Poly.kernel; n : int; strategy : string }

let label d = Printf.sprintf "%s-%d/%s" (Poly.name d.kernel) d.n d.strategy
let top d = Poly.name d.kernel
let source d = Poly.source d.kernel ~n:d.n
let platform = Vhls.Platform.xc7z020

(** The search settings of a design: the CLI defaults (samples 32,
    iterations 80, window 8), whose single definition is the serve
    protocol's default config, with the run's seed and the design's
    strategy. *)
let config ~seed d =
  { Serve.Protocol.default_config with seed; strategy = d.strategy }

(** The search seed of rep [r] of a run: the run's seed itself for the
    first rep (the one the golden file and the cross-checks cover), then a
    fresh seed per rep, so a run's medians pool many search trajectories
    and depend little on any one of them. *)
let rep_seed ~seed r = seed + (r * 1_000_003)

let strategy_of d =
  match Qor_ml.strategy_of_name d.strategy with
  | Some s -> s
  | None -> invalid_arg ("unknown strategy " ^ d.strategy)

(** Dse.run with the design's settings. [pool], [cache], [memos],
    [batch_wrap] and [queue_wait] are passed through. *)
let dse ?pool ?cache ?memos ?batch_wrap ?queue_wait ?(strategy = Fun.id)
    ~seed ctx m d =
  let c = config ~seed d in
  Dse.run ~samples:c.samples ~iterations:c.iterations ~seed ~window:c.window
    ~symbolic:c.symbolic ~strategy:(strategy (strategy_of d)) ?pool ?cache
    ?memos ?batch_wrap ?queue_wait ctx m ~top:(top d) ~platform

(* ---- Frontier digests ------------------------------------------------------- *)

(** What the golden file records per design: the Pareto frontier as
    (point, estimated latency, DSP) triples, latency-increasing. *)
type digest = (string * int * int) list

let point_string (p : Dse.point) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "lp=%b rvb=%b perm=[%s] tiles=[%s] ii=%d" p.lp p.rvb (ints p.perm)
    (ints p.tiles) p.target_ii

let digest (front : Dse.evaluated list) : digest =
  List.map
    (fun (e : Dse.evaluated) ->
      ( point_string e.point,
        e.estimate.Estimator.latency,
        Dse.area_of e.estimate ))
    front

let digest_to_json (d : digest) =
  Json.List
    (List.map
       (fun (p, l, a) ->
         Json.Obj [ ("point", Json.String p); ("latency", Json.Int l); ("dsp", Json.Int a) ])
       d)

let digest_of_json j : digest =
  match j with
  | Json.List l ->
      List.map
        (fun e ->
          match (Json.member "point" e, Json.member "latency" e, Json.member "dsp" e) with
          | Some (Json.String p), Some (Json.Int l), Some (Json.Int a) -> (p, l, a)
          | _ -> failwith "malformed digest entry")
        l
  | _ -> failwith "malformed digest"

(* ---- One search ---------------------------------------------------------------- *)

type outcome = {
  design : design;
  frontier : digest;
  explored : int;
  best : Dse.point option;
  best_module : Ir.op;
  cycles : int;  (** virtual-synthesis latency of the best module *)
  cpp : string;  (** the emitted HLS C++ *)
  wall_s : float;  (** source to emitted C++ *)
}

(** Run one cold search of [d]. [on_eval] receives the duration of every
    point evaluation, timed through [Dse.run ?batch_wrap] on the worker that
    ran it, so it must be thread-safe. *)
let run ?pool ?(on_eval = fun (_ : float) -> ()) ~seed d =
  let t0 = Obs.Clock.now_ns () in
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (source d) in
  let batch_wrap f =
    let t = Obs.Clock.now_ns () in
    let r = f () in
    on_eval (Obs.Clock.since_s t);
    r
  in
  let r = dse ?pool ~batch_wrap ~seed ctx m d in
  let report = Vhls.Synth.synthesize r.Dse.module_ ~top:(top d) in
  let cpp = Emit.Emit_cpp.emit_module r.Dse.module_ in
  {
    design = d;
    frontier = digest r.Dse.pareto;
    explored = r.Dse.explored;
    best = Option.map (fun (b : Dse.evaluated) -> b.point) r.Dse.best;
    best_module = r.Dse.module_;
    cycles = Vhls.Synth.latency report;
    cpp;
    wall_s = Obs.Clock.since_s t0;
  }

(* ---- Output checks ----------------------------------------------------------- *)

(** Interpret [m] and the design's own source on the same seeded inputs and
    compare every output buffer ([Fuzz.Oracle.run_outputs] +
    [Float_compare.compare_arrays]). *)
let check_semantics ~seed d m =
  match
    let want =
      Fuzz.Oracle.run_outputs ~seed
        (Pipeline.compile_c (Ir.Ctx.create ()) (source d))
        ~top:(top d)
    in
    let got = Fuzz.Oracle.run_outputs ~seed m ~top:(top d) in
    Float_compare.compare_arrays want got
  with
  | None -> Ok ()
  | Some mm -> Error (Fmt.str "%s: best module differs from source: %a" (label d) Float_compare.pp_mismatch mm)
  | exception e -> Error (Fmt.str "%s: interpreting failed: %s" (label d) (Printexc.to_string e))

(** The module of a design point rebuilt from source (for results that
    arrive over the serve protocol, which carries the point, not the
    module). *)
let module_of_point d pt =
  let ctx = Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (source d) in
  Dse.apply_point ctx m ~top:(top d) pt

(** Every check of a finished search that needs no reference run: the best
    module computes what the source computes, synthesizes to a positive
    latency, and emits C++ defining the top function. *)
let check_outcome ~seed (o : outcome) =
  let d = o.design in
  let emitted =
    let needle = "void " ^ top d ^ "(" in
    let n = String.length needle in
    let rec has i =
      i + n <= String.length o.cpp && (String.sub o.cpp i n = needle || has (i + 1))
    in
    if has 0 then Ok ()
    else Error (label d ^ ": emitted C++ does not define the top function")
  in
  [
    check_semantics ~seed d o.best_module;
    (if o.cycles > 0 && o.best <> None then Ok ()
     else Error (label d ^ ": no feasible best point"));
    emitted;
  ]
