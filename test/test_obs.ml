(* Tests for the observability layer (lib/obs) and its integration with the
   pass manager and the parallel pool: clock monotonicity, span recording and
   deterministic cross-domain merging, metrics aggregation under domain
   contention, Chrome trace / metrics JSONL well-formedness, and the
   PassInstrumentation hook ordering. *)

open Mir
open Scalehls
open Helpers

(* Tracing is process-global state; every test that enables it must leave it
   disabled and empty so the rest of the suite observes the default-off
   fast path. *)
let with_tracing f =
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    f

(* ---- Clock ---------------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld then %Ld" !prev t;
    prev := t
  done;
  let (), dt = Obs.Clock.time_s (fun () -> Sys.opaque_identity (ignore (Sys.opaque_identity 1))) in
  Alcotest.(check bool) "time_s non-negative" true (dt >= 0.);
  let t0 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "since_s non-negative" true (Obs.Clock.since_s t0 >= 0.)

(* ---- Spans: single-domain nesting ----------------------------------------- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Obs.Trace.with_span ~cat:"t" "outer" (fun () ->
        Obs.Trace.with_span ~cat:"t" "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "span returns value" 42 r;
  let evs = Obs.Trace.events () in
  let find name = List.find (fun e -> e.Obs.Trace.name = name) evs in
  let outer = find "outer" and inner = find "inner" in
  (* merged order is (ts, tid, seq): the outer span starts first *)
  Alcotest.(check string) "outer sorts first" "outer" (List.hd evs).Obs.Trace.name;
  let ends e = Int64.add e.Obs.Trace.ts e.Obs.Trace.dur in
  Alcotest.(check bool) "inner starts inside outer" true
    (Int64.compare outer.Obs.Trace.ts inner.Obs.Trace.ts <= 0);
  Alcotest.(check bool) "inner ends inside outer" true
    (Int64.compare (ends inner) (ends outer) <= 0)

let test_span_exception () =
  with_tracing @@ fun () ->
  (try Obs.Trace.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  let evs = Obs.Trace.events () in
  let e = List.find (fun e -> e.Obs.Trace.name = "boom") evs in
  Alcotest.(check bool) "error arg recorded" true
    (List.mem_assoc "error" e.Obs.Trace.args)

let test_span_disabled_is_transparent () =
  Obs.Trace.reset ();
  (* disabled: spans neither record nor perturb the result *)
  let r = Obs.Trace.with_span "ghost" (fun () -> 7) in
  Alcotest.(check int) "value through disabled span" 7 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.events ()))

(* ---- Spans under the pool: deterministic cross-domain merge --------------- *)

let test_span_parpool () =
  with_tracing @@ fun () ->
  let n = 30 in
  let out =
    Parpool.with_pool ~jobs:3 (fun pool ->
        pool_map pool
          (fun i ->
            Obs.Trace.with_span ~cat:"t" "work"
              ~args:[ ("i", Obs.Json.Int i) ]
              (fun () -> i * i))
          (List.init n Fun.id))
  in
  Alcotest.(check (list int)) "map results ordered" (List.init n (fun i -> i * i)) out;
  (* flush after with_pool: workers are joined, buffers are safe *)
  let evs =
    List.filter (fun e -> e.Obs.Trace.name = "work") (Obs.Trace.events ())
  in
  Alcotest.(check int) "one span per task" n (List.length evs);
  let indices =
    List.sort compare
      (List.filter_map
         (fun e ->
           match List.assoc_opt "i" e.Obs.Trace.args with
           | Some (Obs.Json.Int i) -> Some i
           | _ -> None)
         evs)
  in
  Alcotest.(check (list int)) "every task index appears once" (List.init n Fun.id) indices;
  (* the merge is a total order: within a tid, seq strictly increases *)
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt last e.Obs.Trace.tid with
      | Some s when s >= e.Obs.Trace.seq ->
          Alcotest.failf "tid %d: seq %d after %d" e.Obs.Trace.tid e.Obs.Trace.seq s
      | _ -> ());
      Hashtbl.replace last e.Obs.Trace.tid e.Obs.Trace.seq)
    evs;
  (* two flushes of the same buffers agree exactly *)
  let again =
    List.filter (fun e -> e.Obs.Trace.name = "work") (Obs.Trace.events ())
  in
  Alcotest.(check bool) "flush is deterministic" true (evs = again)

(* ---- Metrics -------------------------------------------------------------- *)

let test_counter_across_domains () =
  Obs.Metrics.reset ();
  let reg = Obs.Metrics.registry "test" in
  let c = Obs.Metrics.counter reg "hits" in
  let jobs = 4 and per_task = 250 in
  Parpool.with_pool ~jobs (fun pool ->
      ignore
        (pool_map pool
           (fun _ ->
             (* re-resolve by name on the worker: same cell *)
             let c' = Obs.Metrics.counter (Obs.Metrics.registry "test") "hits" in
             for _ = 1 to per_task do
               Obs.Metrics.incr c'
             done)
           (List.init (2 * jobs) Fun.id)));
  Alcotest.(check (float 0.0)) "no lost increments"
    (float_of_int (2 * jobs * per_task))
    (Obs.Metrics.value c);
  Obs.Metrics.reset ()

let test_metrics_types () =
  Obs.Metrics.reset ();
  let reg = Obs.Metrics.registry "test" in
  let g = Obs.Metrics.gauge reg "level" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge holds last value" 2.5 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram reg "lat" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 3.0; 2.0 ];
  (* same (registry, name) resolves to the same instrument *)
  let g' = Obs.Metrics.gauge (Obs.Metrics.registry "test") "level" in
  Alcotest.(check (float 0.0)) "get-or-create returns same cell" 2.5
    (Obs.Metrics.gauge_value g');
  (* a name can't silently change type *)
  (match Obs.Metrics.counter reg "level" with
  | _ -> Alcotest.fail "type clash not detected"
  | exception Invalid_argument _ -> ());
  Obs.Metrics.reset ()

let test_metrics_jsonl () =
  Obs.Metrics.reset ();
  let reg = Obs.Metrics.registry "test" in
  Obs.Metrics.add (Obs.Metrics.counter reg "n") 3.;
  Obs.Metrics.set (Obs.Metrics.gauge reg "rate") 0.75;
  Obs.Metrics.observe (Obs.Metrics.histogram reg "lat") 0.5;
  let path = Filename.temp_file "obs_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Obs.Metrics.reset ())
    (fun () ->
      Obs.Metrics.write_jsonl path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (* exports also carry collector-maintained series (e.g. the trace
         drop counter) — count only the rows of this test's registry *)
      let lines =
        List.filter
          (fun l -> contains ~needle:"\"registry\":\"test\"" l)
          (List.rev !lines)
      in
      Alcotest.(check int) "one row per metric" 3 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Json.of_string line with
          | Error msg -> Alcotest.failf "bad JSONL row %S: %s" line msg
          | Ok row ->
              List.iter
                (fun key ->
                  if Obs.Json.member key row = None then
                    Alcotest.failf "row missing %S: %s" key line)
                [ "registry"; "metric"; "type" ])
        lines;
      (* histogram rows carry the summary fields *)
      let hist =
        List.find
          (fun l -> contains ~needle:"\"histogram\"" l)
          lines
      in
      match Obs.Json.of_string hist with
      | Ok row ->
          List.iter
            (fun key ->
              if Obs.Json.member key row = None then
                Alcotest.failf "histogram row missing %S" key)
            [ "count"; "sum"; "min"; "max"; "mean" ]
      | Error msg -> Alcotest.failf "bad histogram row: %s" msg)

(* ---- Chrome trace export -------------------------------------------------- *)

let test_chrome_trace_json () =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_tracing (fun () ->
          Obs.Trace.with_span ~cat:"t" "a" (fun () ->
              Obs.Trace.with_span ~cat:"t" "b" ignore);
          Obs.Trace.instant ~cat:"t" "mark";
          Obs.Trace.counter ~cat:"t" "gaugeish" [ ("x", 3.0) ];
          Obs.Trace.write_chrome path);
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.of_string raw with
      | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
      | Ok doc -> (
          match Obs.Json.member "traceEvents" doc with
          | Some (Obs.Json.List evs) ->
              Alcotest.(check bool) "has events" true (List.length evs >= 4);
              List.iter
                (fun ev ->
                  List.iter
                    (fun key ->
                      if Obs.Json.member key ev = None then
                        Alcotest.failf "event missing %S: %s" key
                          (Obs.Json.to_string ev))
                    [ "name"; "ph"; "pid"; "tid" ];
                  match Obs.Json.member "ph" ev with
                  | Some (Obs.Json.String "X") ->
                      let num key =
                        match Option.bind (Obs.Json.member key ev) Obs.Json.to_float_opt with
                        | Some v -> v
                        | None -> Alcotest.failf "X event missing numeric %S" key
                      in
                      Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.);
                      Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.)
                  | _ -> ())
                evs;
              let names =
                List.filter_map
                  (fun ev ->
                    match Obs.Json.member "name" ev with
                    | Some (Obs.Json.String s) -> Some s
                    | _ -> None)
                  evs
              in
              List.iter
                (fun expected ->
                  Alcotest.(check bool) (expected ^ " present") true
                    (List.mem expected names))
                [ "thread_name"; "a"; "b"; "mark"; "gaugeish" ]
          | _ -> Alcotest.fail "no traceEvents array"))

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("s", String "a\"b\\c\nd");
          ("i", Int (-42));
          ("f", Float 1.5);
          ("whole", Float 3.0);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; String "x"; Obj [] ]);
        ])
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg
  | Ok v' ->
      (* integral floats intentionally reparse as Int *)
      let expect =
        Obs.Json.(
          Obj
            [
              ("s", String "a\"b\\c\nd");
              ("i", Int (-42));
              ("f", Float 1.5);
              ("whole", Int 3);
              ("b", Bool true);
              ("n", Null);
              ("l", List [ Int 1; String "x"; Obj [] ]);
            ])
      in
      Alcotest.(check bool) "roundtrip" true (v' = expect);
      (match Obs.Json.of_string "{\"a\": }" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted malformed JSON");
      match Obs.Json.of_string "{} trailing" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted trailing garbage"

(* ---- Op statistics -------------------------------------------------------- *)

let test_op_stats () =
  let _ctx, m = compile_kernel (Models.Polybench.of_name "gemm") ~n:4 in
  let s = Op_stats.collect m in
  Alcotest.(check bool) "counts ops" true (s.Op_stats.ops > 0);
  Alcotest.(check bool) "counts blocks" true (s.Op_stats.blocks > 0);
  Alcotest.(check bool) "affine dialect present" true
    (List.mem_assoc "affine" s.Op_stats.by_dialect);
  let total_by_name = List.fold_left (fun a (_, c) -> a + c) 0 s.Op_stats.by_name in
  Alcotest.(check int) "by_name sums to ops" s.Op_stats.ops total_by_name;
  let d = Op_stats.diff ~before:s ~after:s in
  Alcotest.(check int) "self-diff ops" 0 d.Op_stats.ops;
  Alcotest.(check (list (pair string int))) "self-diff by_name empty" [] d.Op_stats.by_name;
  Alcotest.(check string) "dialect of qualified name" "affine" (Op_stats.dialect_of "affine.for");
  Alcotest.(check string) "dialect of bare name" "builtin" (Op_stats.dialect_of "module")

(* ---- Pass manager integration --------------------------------------------- *)

let ident name = Pass.make name (fun _ m -> m)

let test_instrumentation_ordering () =
  let _ctx, m = compile_c_affine "void f(float a[4]) { a[0] = 1.0f; }" in
  let log = ref [] in
  let note tag name _m = log := (tag ^ ":" ^ name) :: !log in
  Pass.clear_instrumentations ();
  Pass.register_instrumentation
    (Pass.instrumentation ~before_pass:(note "bp") ~after_pass:(note "ap") ());
  Fun.protect ~finally:Pass.clear_instrumentations @@ fun () ->
  let ctx = Ir.Ctx.create () in
  ignore (Pass.run_pipeline [ ident "one"; ident "two" ] ctx m);
  Alcotest.(check (list string)) "hook ordering"
    [ "bp:one"; "ap:one"; "bp:two"; "ap:two" ]
    (List.rev !log)

let test_pass_spans () =
  let _ctx, m = compile_c_affine "void f(float a[4]) { for (int i = 0; i < 4; i++) a[i] = 0.0f; }" in
  let ctx = Ir.Ctx.create () in
  with_tracing @@ fun () ->
  ignore (Pass.run_pipeline [ ident "one"; ident "two" ] ctx m);
  let evs = Obs.Trace.events () in
  let names = List.map (fun e -> e.Obs.Trace.name) evs in
  Alcotest.(check bool) "pipeline span" true (List.mem "pipeline" names);
  Alcotest.(check bool) "pass spans" true
    (List.mem "pass:one" names && List.mem "pass:two" names);
  let span = List.find (fun e -> e.Obs.Trace.name = "pass:one") evs in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " arg present") true
        (List.mem_assoc key span.Obs.Trace.args))
    [ "pass_ms"; "verify_ms"; "ops"; "delta_ops"; "by_dialect" ];
  (* identity pass: the recorded delta is zero *)
  match List.assoc "delta_ops" span.Obs.Trace.args with
  | Obs.Json.Int 0 -> ()
  | j -> Alcotest.failf "identity pass delta_ops = %s" (Obs.Json.to_string j)

let test_pp_timings_aggregation () =
  let ts =
    [
      { Pass.label = "canonicalize"; seconds = 0.5 };
      { Pass.label = "loop-unroll"; seconds = 0.25 };
      { Pass.label = "canonicalize"; seconds = 0.25 };
    ]
  in
  let out = Fmt.str "%a" Pass.pp_timings ts in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report contains %S" needle) true
        (contains ~needle out))
    [
      "Pass execution timing report";
      "Total Execution Time: 1.0000 seconds";
      "canonicalize (2 runs)";
      "( 75.0%)";
      "( 25.0%)";
      "(100.0%)  Total";
    ];
  (* repeated labels fold into one line *)
  let occurrences needle hay =
    let rec go i acc =
      if i + String.length needle > String.length hay then acc
      else if String.sub hay i (String.length needle) = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one aggregated line" 1 (occurrences "canonicalize" out)

(* ---- Traced DSE smoke ----------------------------------------------------- *)

let test_traced_dse () =
  let ctx = Ir.Ctx.create () in
  let kernel = Models.Polybench.of_name "gemm" in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:4) in
  Obs.Metrics.reset ();
  let r =
    with_tracing (fun () ->
        Dse.run ~samples:4 ~iterations:4 ~seed:1 ctx m ~top:"gemm"
          ~platform:Vhls.Platform.xc7z020)
  in
  Alcotest.(check bool) "explored points" true (r.Dse.explored > 0)

let test_traced_dse_events () =
  let ctx = Ir.Ctx.create () in
  let kernel = Models.Polybench.of_name "gemm" in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:4) in
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ();
      Obs.Metrics.reset ())
    (fun () ->
      let r =
        Dse.run ~samples:4 ~iterations:4 ~seed:1 ctx m ~top:"gemm"
          ~platform:Vhls.Platform.xc7z020
      in
      Obs.Trace.disable ();
      let evs = Obs.Trace.events () in
      let count name = List.length (List.filter (fun e -> e.Obs.Trace.name = name) evs) in
      Alcotest.(check int) "one evaluate span per explored point" r.Dse.explored
        (count "dse.evaluate");
      Alcotest.(check bool) "frontier counter samples" true (count "dse.frontier" > 0);
      Alcotest.(check bool) "pass sub-spans recorded" true
        (List.exists
           (fun e -> contains ~needle:"pass:" e.Obs.Trace.name)
           evs);
      (* the always-on metrics side recorded the same exploration *)
      let explored =
        Obs.Metrics.value (Obs.Metrics.counter (Obs.Metrics.registry "dse") "points.explored")
      in
      Alcotest.(check (float 0.0)) "points.explored counter" (float_of_int r.Dse.explored) explored;
      (* Per-run values stay in [Dse.stats]: concurrent searches in one
         daemon would overwrite each other's gauge. *)
      Alcotest.(check (list string)) "no gauge in the dse registry" []
        (List.filter_map
           (fun row ->
             match Obs.Json.(member "registry" row, member "type" row) with
             | Some (Obs.Json.String "dse"), Some (Obs.Json.String "gauge") ->
                 Some (Obs.Json.to_string row)
             | _ -> None)
           (Obs.Metrics.rows ())))

(* ---- Ring cap and drop accounting ----------------------------------------- *)

let test_trace_ring_cap () =
  let old_cap = Obs.Trace.cap () in
  Obs.Trace.set_cap 64;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_cap old_cap;
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    (fun () ->
      Obs.Trace.reset ();
      Obs.Trace.enable ();
      let dropped0 = Obs.Trace.dropped_spans () in
      for i = 1 to 200 do
        Obs.Trace.instant ~cat:"t" (Printf.sprintf "e%d" i)
      done;
      Obs.Trace.disable ();
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "ring keeps exactly cap events" 64 (List.length evs);
      Alcotest.(check int) "overwritten spans are counted" 136
        (Obs.Trace.dropped_spans () - dropped0);
      (* the survivors are the newest events, still in order *)
      Alcotest.(check string) "oldest survivor" "e137"
        (List.hd evs).Obs.Trace.name;
      Alcotest.(check string) "newest survivor" "e200"
        (List.nth evs 63).Obs.Trace.name;
      (* the drop total reaches the metrics registry through the collector *)
      ignore (Obs.Metrics.snapshot ());
      let c =
        Obs.Metrics.value
          (Obs.Metrics.counter (Obs.Metrics.registry "trace") "dropped_spans")
      in
      Alcotest.(check bool) "trace/dropped_spans counter mirrors the total" true
        (int_of_float c >= Obs.Trace.dropped_spans () - dropped0))

(* ---- Histogram quantiles ---------------------------------------------------- *)

let test_histogram_quantiles () =
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.reset @@ fun () ->
  let reg = Obs.Metrics.registry "test" in
  (* single-valued histogram: every quantile collapses to that value *)
  let h1 = Obs.Metrics.histogram reg "const" in
  for _ = 1 to 100 do
    Obs.Metrics.observe h1 0.5
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f of constant" q)
        0.5
        (Obs.Metrics.quantile h1 q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* two well-separated log buckets: the median must land between them and
     the extreme quantiles are exact (clamped to observed min/max) *)
  let h2 = Obs.Metrics.histogram reg "split" in
  for _ = 1 to 50 do
    Obs.Metrics.observe h2 0.001
  done;
  for _ = 1 to 50 do
    Obs.Metrics.observe h2 1.0
  done;
  Alcotest.(check (float 1e-9)) "q0 = min" 0.001 (Obs.Metrics.quantile h2 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 1.0 (Obs.Metrics.quantile h2 1.0);
  Alcotest.(check bool) "p25 in the low bucket" true
    (Obs.Metrics.quantile h2 0.25 < 0.01);
  Alcotest.(check bool) "p90 in the high bucket" true
    (Obs.Metrics.quantile h2 0.9 > 0.1);
  (* quantiles are monotone in q *)
  let qs = List.map (Obs.Metrics.quantile h2) [ 0.1; 0.25; 0.5; 0.75; 0.9 ] in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "monotone quantiles" true (v >= prev);
         v)
       0. qs);
  (* values beyond the largest finite bucket land in +Inf and clamp to max *)
  let h3 = Obs.Metrics.histogram reg "overflow" in
  Obs.Metrics.observe h3 1e9;
  Obs.Metrics.observe h3 2e9;
  Alcotest.(check (float 1.0)) "overflow clamps to observed max" 2e9
    (Obs.Metrics.quantile h3 1.0);
  let p99 = Obs.Metrics.quantile h3 0.99 in
  Alcotest.(check bool) "overflow p99 within observed range" true
    (p99 >= 1e9 && p99 <= 2e9)

let test_histogram_cross_domain_merge () =
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.reset @@ fun () ->
  let jobs = 4 and per_task = 250 in
  Parpool.with_pool ~jobs (fun pool ->
      ignore
        (pool_map pool
           (fun task ->
             let h =
               Obs.Metrics.histogram (Obs.Metrics.registry "test") "merged"
             in
             for i = 1 to per_task do
               (* distinct magnitudes per task so every domain hits several
                  buckets *)
               Obs.Metrics.observe h (float_of_int (task + 1) *. 0.001 *. float_of_int i)
             done)
           (List.init (2 * jobs) Fun.id)));
  let h = Obs.Metrics.histogram (Obs.Metrics.registry "test") "merged" in
  Alcotest.(check int) "no lost observations" (2 * jobs * per_task)
    (Obs.Metrics.histogram_count h);
  let p50 = Obs.Metrics.quantile h 0.5 in
  Alcotest.(check bool) "merged median within observed range" true
    (p50 >= 0.001 && p50 <= 2.0)

(* ---- Prometheus exposition -------------------------------------------------- *)

let prom_name_legal name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let test_prometheus_exposition () =
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.reset @@ fun () ->
  let reg = Obs.Metrics.registry "test" in
  (* a name needing sanitization and a label value needing escaping *)
  Obs.Metrics.add (Obs.Metrics.counter reg "weird.name-1") 3.;
  Obs.Metrics.set
    (Obs.Metrics.gauge ~labels:[ ("k", "a\"b\\c\nd") ] reg "labeled")
    1.5;
  let h = Obs.Metrics.histogram reg "lat" in
  List.iter (Obs.Metrics.observe h) [ 0.002; 0.004; 0.5 ];
  let out = Obs.Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' out in
  (* every sample line: legal metric name, optional labels, numeric value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp -> min b sp
          | Some b, None -> b
          | None, Some sp -> sp
          | None, None -> String.length line
        in
        let name = String.sub line 0 name_end in
        Alcotest.(check bool)
          (Printf.sprintf "legal metric name %S" name)
          true (prom_name_legal name);
        let value_part =
          match String.rindex_opt line ' ' with
          | Some sp -> String.sub line (sp + 1) (String.length line - sp - 1)
          | None -> ""
        in
        Alcotest.(check bool)
          (Printf.sprintf "numeric value in %S" line)
          true
          (value_part = "+Inf" || value_part = "NaN"
          || float_of_string_opt value_part <> None)
      end)
    lines;
  (* sanitized name, escaped label value *)
  Alcotest.(check bool) "sanitized metric name" true
    (contains ~needle:"scalehls_test_weird_name_1 3" out);
  Alcotest.(check bool) "escaped label value" true
    (contains ~needle:"scalehls_test_labeled{k=\"a\\\"b\\\\c\\nd\"} 1.5" out);
  (* histogram: cumulative buckets ending in +Inf == count, sum/count and
     quantile gauges present *)
  let bucket_counts =
    List.filter_map
      (fun line ->
        if
          String.length line > 0 && line.[0] <> '#'
          && contains ~needle:"scalehls_test_lat_bucket{" line
        then
          match String.rindex_opt line ' ' with
          | Some sp ->
              float_of_string_opt
                (String.sub line (sp + 1) (String.length line - sp - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "has bucket lines" true (List.length bucket_counts > 1);
  ignore
    (List.fold_left
       (fun prev c ->
         Alcotest.(check bool) "cumulative buckets nondecreasing" true (c >= prev);
         c)
       0. bucket_counts);
  Alcotest.(check (float 1e-9)) "last bucket is the count" 3.
    (List.nth bucket_counts (List.length bucket_counts - 1));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle out))
    [
      "# TYPE scalehls_test_lat histogram";
      "le=\"+Inf\"";
      "scalehls_test_lat_sum";
      "scalehls_test_lat_count 3";
      "scalehls_test_lat_p50";
      "scalehls_test_lat_p99";
    ];
  (* deterministic: a second scrape of unchanged state is identical *)
  Alcotest.(check string) "deterministic output" out (Obs.Metrics.to_prometheus ())

(* ---- Crash-safe exports ------------------------------------------------------ *)

let test_write_atomic () =
  let path = Filename.temp_file "obs_atomic" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Metrics.write_atomic path (fun oc -> output_string oc "first\n");
      Alcotest.(check bool) "no tmp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      (* a crash mid-write must leave the previous content intact *)
      (try
         Obs.Metrics.write_atomic path (fun oc ->
             output_string oc "partial";
             failwith "disk full")
       with Failure _ -> ());
      let ic = open_in path in
      let content = input_line ic in
      close_in ic;
      Alcotest.(check string) "old content survives a failed write" "first" content;
      Alcotest.(check bool) "failed write removes its tmp" false
        (Sys.file_exists (path ^ ".tmp")))

(* ---- Search-quality event log ------------------------------------------------ *)

let test_events_roundtrip () =
  let path = Filename.temp_file "obs_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.close ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (* disabled: emit is a no-op and must not evaluate the field thunk *)
      Obs.Events.emit "ghost" (fun () -> Alcotest.fail "thunk forced while disabled");
      Obs.Events.configure path;
      Obs.Events.emit "a" (fun () -> [ ("x", Obs.Json.Int 1) ]);
      Obs.Events.emit "b" (fun () -> [ ("y", Obs.Json.String "two") ]);
      Obs.Events.close ();
      Obs.Events.emit "ghost" (fun () -> Alcotest.fail "thunk forced after close");
      match Obs.Analyze.parse_jsonl path with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok rows ->
          Alcotest.(check int) "two events" 2 (List.length rows);
          List.iteri
            (fun i row ->
              (match Obs.Json.member "seq" row with
              | Some (Obs.Json.Int s) -> Alcotest.(check int) "seq" i s
              | _ -> Alcotest.fail "missing seq");
              match Obs.Json.member "ts_s" row with
              | Some j when Obs.Json.to_float_opt j <> None ->
                  Alcotest.(check bool) "ts_s >= 0" true
                    (Option.get (Obs.Json.to_float_opt j) >= 0.)
              | _ -> Alcotest.fail "missing ts_s")
            rows;
          (* appending after reopen accumulates (daemon restart semantics) *)
          Obs.Events.configure path;
          Obs.Events.emit "c" (fun () -> []);
          Obs.Events.close ();
          (match Obs.Analyze.parse_jsonl path with
          | Ok rows' -> Alcotest.(check int) "append mode" 3 (List.length rows')
          | Error msg -> Alcotest.failf "reparse failed: %s" msg);
          (* a corrupt line is a hard error, never skipped *)
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc "{broken\n";
          close_out oc;
          match Obs.Analyze.parse_jsonl path with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "accepted a corrupt event line")

(* ---- Analyzer ----------------------------------------------------------------- *)

let test_analyze_hv_properties () =
  let hv = Obs.Hv.log_hv2 ~ref_latency:1000 ~ref_area:16 in
  Alcotest.(check (float 1e-12)) "empty frontier" 0. (hv []);
  Alcotest.(check (float 1e-12)) "point at the reference contributes nothing" 0.
    (hv [ (1000, 8) ]);
  Alcotest.(check (float 1e-12)) "point beyond the area budget contributes nothing"
    0.
    (hv [ (10, 16) ]);
  let one = hv [ (10, 8) ] in
  let two = hv [ (10, 8); (100, 4) ] in
  Alcotest.(check bool) "positive volume" true (one > 0.);
  Alcotest.(check bool) "extending the frontier adds volume" true (two > one)

(* The acceptance link: the HV timeline scalehls-report reconstructs from the
   event log must end at exactly the hypervolume of the engine's final
   frontier, given the same reference point. *)
let test_analyze_hv_matches_dse () =
  let ctx = Ir.Ctx.create () in
  let kernel = Models.Polybench.of_name "gemm" in
  let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n:4) in
  let path = Filename.temp_file "obs_dse_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.close ();
      Obs.Metrics.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      Obs.Events.configure path;
      let r =
        Dse.run ~samples:4 ~iterations:6 ~seed:1 ctx m ~top:"gemm"
          ~platform:Vhls.Platform.xc7z020
      in
      Obs.Events.close ();
      let ref_latency = 4096 and ref_area = Vhls.Platform.xc7z020.Vhls.Platform.dsp in
      let engine_hv =
        Obs.Hv.log_hv2 ~ref_latency ~ref_area
          (List.map
             (fun (p : Dse.evaluated) ->
               (p.Dse.estimate.Estimator.latency, Dse.area_of p.Dse.estimate))
             r.Dse.pareto)
      in
      match Obs.Analyze.parse_jsonl path with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok rows -> (
          match Obs.Analyze.jobs_of_events ~ref_latency ~ref_area rows with
          | [ jt ] ->
              Alcotest.(check (float 1e-9))
                "report HV == engine HV" engine_hv
                (Obs.Analyze.final_hv jt);
              Alcotest.(check int) "explored count" r.Dse.explored
                jt.Obs.Analyze.jt_explored;
              Alcotest.(check bool) "monotone HV curve" true
                (let hvs = List.map (fun rd -> rd.Obs.Analyze.rd_hv) jt.Obs.Analyze.jt_rounds in
                 List.for_all2 (fun a b -> b >= a -. 1e-12)
                   (List.filteri (fun i _ -> i < List.length hvs - 1) hvs)
                   (List.tl hvs))
          | jts -> Alcotest.failf "expected one job, got %d" (List.length jts)))

let suite =
  ( "obs",
    [
      Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span closes on exception" `Quick test_span_exception;
      Alcotest.test_case "disabled spans are transparent" `Quick test_span_disabled_is_transparent;
      Alcotest.test_case "span merge across pool domains" `Quick test_span_parpool;
      Alcotest.test_case "counter aggregation across domains" `Quick test_counter_across_domains;
      Alcotest.test_case "metric types and get-or-create" `Quick test_metrics_types;
      Alcotest.test_case "metrics JSONL export" `Quick test_metrics_jsonl;
      Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_trace_json;
      Alcotest.test_case "json roundtrip and errors" `Quick test_json_roundtrip;
      Alcotest.test_case "op stats collect and diff" `Quick test_op_stats;
      Alcotest.test_case "instrumentation hook ordering" `Quick test_instrumentation_ordering;
      Alcotest.test_case "pass spans with IR deltas" `Quick test_pass_spans;
      Alcotest.test_case "pass timing report aggregation" `Quick test_pp_timings_aggregation;
      Alcotest.test_case "traced DSE runs" `Quick test_traced_dse;
      Alcotest.test_case "traced DSE records evaluate spans" `Quick test_traced_dse_events;
      Alcotest.test_case "trace ring cap and drop accounting" `Quick test_trace_ring_cap;
      Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
      Alcotest.test_case "histogram merge across domains" `Quick
        test_histogram_cross_domain_merge;
      Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
      Alcotest.test_case "atomic export writes" `Quick test_write_atomic;
      Alcotest.test_case "events log roundtrip" `Quick test_events_roundtrip;
      Alcotest.test_case "analyzer hypervolume properties" `Quick
        test_analyze_hv_properties;
      Alcotest.test_case "report HV matches engine HV" `Quick
        test_analyze_hv_matches_dse;
    ] )
