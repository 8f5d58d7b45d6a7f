(* Tests for the DSE service layer (lib/serve): protocol parse/build
   round-trips, codec round-trips over the full value range, the disk-backed
   store (save/load equality, version-mismatch invalidation, corruption
   tolerance), an in-process server's evaluation accounting and its error
   replies, and the headline service property — a warm store replays a cold
   run bit-for-bit without re-evaluating anything. *)

open Scalehls
open Helpers
module P = Vhls.Platform
module Sp = Serve.Protocol
module Json = Obs.Json

let status_request = Json.Obj [ ("req", Json.String "status") ]

let ev latency dsp feasible =
  {
    Dse.point =
      { Dse.lp = true; rvb = false; perm = [ 2; 0; 1 ]; tiles = [ 4; 1; 8 ]; target_ii = 3 };
    estimate =
      {
        Estimator.latency;
        interval = latency / 2;
        usage = { P.usage_zero with P.u_dsp = dsp; P.u_lut = 7 * dsp };
      };
    feasible;
  }

(* ---- Codec ----------------------------------------------------------------- *)

let test_codec_roundtrips () =
  let e = ev 1234 56 true in
  let through to_j of_j v = of_j (to_j v) in
  Alcotest.(check bool) "point" true
    (through Serve.Codec.point_to_json Serve.Codec.point_of_json e.Dse.point
    = e.Dse.point);
  Alcotest.(check bool) "evaluated" true
    (through Serve.Codec.evaluated_to_json Serve.Codec.evaluated_of_json e = e);
  Alcotest.(check bool) "evaluated opt None" true
    (through Serve.Codec.evaluated_opt_to_json Serve.Codec.evaluated_opt_of_json
       None
    = None);
  (* Top-bit-set fingerprints are negative as int64 — the hex round-trip must
     survive the full unsigned range. *)
  let fp = 0xdeadbeefcafef00dL in
  Alcotest.(check bool) "negative fingerprint" true
    (through Serve.Codec.fp_to_json Serve.Codec.fp_of_json fp = fp);
  let key = (fp, [ 1; 0; 2 ], [ 8; 1; 4 ], 2) in
  Alcotest.(check bool) "eval key" true
    (through Serve.Codec.eval_key_to_json Serve.Codec.eval_key_of_json key = key);
  let band =
    {
      Estimator.bs_ii_base = 3;
      bs_iter_lat = 17;
      bs_total_trip = 4096;
      bs_fu_counts = [ ("fadd", 2); ("fmul", 3) ];
    }
  in
  Alcotest.(check bool) "band summary" true
    (through Serve.Codec.band_summary_to_json Serve.Codec.band_summary_of_json
       band
    = band)

let test_codec_rejects_malformed () =
  let expect_malformed name f =
    match f () with
    | exception Serve.Codec.Malformed _ -> ()
    | _ -> Alcotest.failf "%s: expected Malformed" name
  in
  expect_malformed "bad fingerprint" (fun () ->
      Serve.Codec.fp_of_json (Json.String "not-hex"));
  expect_malformed "missing field" (fun () ->
      Serve.Codec.point_of_json (Json.Obj [ ("lp", Json.Bool true) ]));
  expect_malformed "wrong shape" (fun () ->
      Serve.Codec.eval_key_of_json (Json.String "nope"))

(* ---- Protocol -------------------------------------------------------------- *)

let test_protocol_parse () =
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"kernel":"gemm","size":32}}|}
   with
  | Ok (Sp.Search { design = Sp.Kernel { kernel; size }; config }) ->
      Alcotest.(check string) "kernel" "gemm" kernel;
      Alcotest.(check int) "size" 32 size;
      (* Absent config = the scalehls-dse CLI defaults. *)
      Alcotest.(check bool) "default config" true (config = Sp.default_config)
  | _ -> Alcotest.fail "kernel search did not parse");
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"c":"void f() {}","top":"f"},"config":{"seed":7,"samples":4}}|}
   with
  | Ok (Sp.Search { design = Sp.C_source { top; _ }; config }) ->
      Alcotest.(check string) "top" "f" top;
      Alcotest.(check int) "seed override" 7 config.Sp.seed;
      Alcotest.(check int) "samples override" 4 config.Sp.samples;
      Alcotest.(check int) "iterations default" 80 config.Sp.iterations;
      Alcotest.(check string) "strategy default" "exhaustive" config.Sp.strategy
  | _ -> Alcotest.fail "C search did not parse");
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"kernel":"gemm"},"config":{"strategy":"surrogate"}}|}
   with
  | Ok (Sp.Search { config; _ }) ->
      Alcotest.(check string) "strategy override" "surrogate" config.Sp.strategy
  | _ -> Alcotest.fail "strategy search did not parse");
  List.iter
    (fun (line, expect) ->
      match Sp.request_of_line line with
      | Ok r when r = expect -> ()
      | _ -> Alcotest.failf "%s did not parse" line)
    [
      ({|{"req":"status"}|}, Sp.Status);
      ({|{"req":"ping"}|}, Sp.Ping);
      ({|{"req":"checkpoint"}|}, Sp.Checkpoint);
      ({|{"req":"shutdown"}|}, Sp.Shutdown);
    ];
  let expect_error line =
    match Sp.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not parse" line
  in
  expect_error "not json at all";
  expect_error {|{"req":"warp-core-breach"}|};
  (* Prometheus text is served over HTTP ([--metrics-port]) only. *)
  (match Sp.request_of_line {|{"req":"metrics"}|} with
  | Error msg -> Alcotest.(check string) "metrics is unknown" {|unknown request "metrics"|} msg
  | Ok _ -> Alcotest.fail "metrics should not parse");
  expect_error {|{"design":{"kernel":"gemm"}}|};
  expect_error {|{"req":"search","design":{"neither":1}}|}

let test_protocol_client_roundtrip () =
  (* What the --remote client builds must parse back to the same request. *)
  let design = Sp.Kernel { kernel = "syrk"; size = 16 } in
  let config =
    { Sp.default_config with Sp.seed = 99; symbolic = false; strategy = "surrogate" }
  in
  match
    Sp.request_of_line (Json.to_string (Sp.search_request ~design ~config))
  with
  | Ok (Sp.Search s) ->
      Alcotest.(check bool) "design survives" true (s.design = design);
      Alcotest.(check bool) "config survives" true (s.config = config)
  | _ -> Alcotest.fail "client-built search did not round-trip"

(* ---- Store ----------------------------------------------------------------- *)

let with_temp_store f =
  let path = Filename.temp_file "scalehls-serve-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let populate store =
  let cache = Serve.Store.cache_for store "xc7z020" in
  Eval_cache.add cache (0x1122334455667788L, [ 0; 1 ], [ 2; 4 ], 3)
    (Some (ev 100 5 true));
  Eval_cache.add cache (0xfeedfacefeedfaceL, [ 1; 0 ], [ 1; 1 ], 1) None;
  (* Same key shape under another platform must stay segregated. *)
  Eval_cache.add
    (Serve.Store.cache_for store "vu9p-slr")
    (0x1122334455667788L, [ 0; 1 ], [ 2; 4 ], 3)
    (Some (ev 100 5 false));
  Estimator.import_bands (Serve.Store.memos store)
    [
      ( 0xdeadbeefcafef00dL,
        {
          Estimator.bs_ii_base = 2;
          bs_iter_lat = 9;
          bs_total_trip = 64;
          bs_fu_counts = [ ("fmul", 1) ];
        } );
    ]

let sorted_bindings store platform =
  List.sort compare
    (Eval_cache.bindings (Serve.Store.cache_for store platform))

let test_store_roundtrip () =
  with_temp_store @@ fun path ->
  let s1 = Serve.Store.open_ ~path () in
  populate s1;
  let written = Serve.Store.save s1 in
  Alcotest.(check int) "records written" 4 written;
  let s2 = Serve.Store.open_ ~path () in
  Alcotest.(check bool) "evals equal by fingerprint" true
    (sorted_bindings s1 "xc7z020" = sorted_bindings s2 "xc7z020");
  Alcotest.(check bool) "platforms segregated" true
    (sorted_bindings s1 "vu9p-slr" = sorted_bindings s2 "vu9p-slr"
    && sorted_bindings s2 "vu9p-slr" <> sorted_bindings s2 "xc7z020");
  Alcotest.(check bool) "bands equal" true
    (List.sort compare (Estimator.export_bands (Serve.Store.memos s1))
    = List.sort compare (Estimator.export_bands (Serve.Store.memos s2)));
  (* Deterministic serialization: an immediate re-save is byte-identical. *)
  ignore (Serve.Store.save s2);
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let before = read path in
  ignore (Serve.Store.save s2);
  Alcotest.(check bool) "stable bytes" true (read path = before)

let test_store_version_mismatch_cold () =
  with_temp_store @@ fun path ->
  let oc = open_out path in
  output_string oc {|{"magic":"scalehls-store","version":999}|};
  output_char oc '\n';
  output_string oc
    {|{"t":"band","k":"0000000000000001","v":{"ii_base":1,"iter_lat":1,"trip":1,"fu":[]}}|};
  output_char oc '\n';
  close_out oc;
  let s = Serve.Store.open_ ~path () in
  Alcotest.(check int) "nothing loaded" 0
    (Estimator.memo_length (Serve.Store.memos s));
  match Serve.Store.to_status_json s |> Json.member "cold_reason" with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "expected a cold_reason"

let test_store_corruption_tolerated () =
  with_temp_store @@ fun path ->
  let s1 = Serve.Store.open_ ~path () in
  populate s1;
  ignore (Serve.Store.save s1);
  (* Simulate a writer killed mid-append: valid records followed by garbage
     and a truncated line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "this is not json\n";
  output_string oc {|{"t":"eval","platform":"xc7z020"}|};
  output_char oc '\n';
  output_string oc {|{"t":"band","k":"00|};
  close_out oc;
  let s2 = Serve.Store.open_ ~path () in
  Alcotest.(check bool) "good records survive" true
    (sorted_bindings s1 "xc7z020" = sorted_bindings s2 "xc7z020");
  match Serve.Store.to_status_json s2 |> Json.member "skipped_lines" with
  | Some (Json.Int n) -> Alcotest.(check int) "bad lines counted" 3 n
  | _ -> Alcotest.fail "skipped_lines missing from status"

(* ---- Jobs ------------------------------------------------------------------ *)

let test_jobs_lifecycle () =
  let t = Serve.Jobs.create () in
  let j1 = Serve.Jobs.submit t ~label:"a" in
  let j2 = Serve.Jobs.submit t ~label:"b" in
  Serve.Jobs.start t j1;
  Serve.Jobs.progress t j1 ~explored:10 ~frontier_size:3;
  Serve.Jobs.finish t j1;
  Serve.Jobs.start t j2;
  Serve.Jobs.fail t j2 "boom";
  let queued, running, done_, failed = Serve.Jobs.counts t in
  Alcotest.(check (list int)) "counts" [ 0; 0; 1; 1 ]
    [ queued; running; done_; failed ];
  (* Finished jobs beyond [keep] age out; live jobs never do. *)
  for i = 0 to Serve.Jobs.keep + 4 do
    Serve.Jobs.finish t (Serve.Jobs.submit t ~label:(string_of_int i))
  done;
  let live = Serve.Jobs.submit t ~label:"live" in
  ignore (Serve.Jobs.submit t ~label:"also-live");
  let _, _, done_, failed = Serve.Jobs.counts t in
  Alcotest.(check int) "bounded history" Serve.Jobs.keep (done_ + failed);
  match Serve.Jobs.to_status_json t with
  | Json.List rows ->
      Alcotest.(check int) "status rows" (Serve.Jobs.keep + 2) (List.length rows);
      Alcotest.(check bool) "live job listed" true
        (List.exists
           (fun r -> Json.member "label" r = Some (Json.String "live"))
           rows);
      ignore live
  | _ -> Alcotest.fail "status must be a list"

(* ---- Server lifecycle ------------------------------------------------------ *)

(* A stopped server must drop its metrics collector: the collector closes
   over the server, so a leftover one keeps every stopped server (its store
   and its worker pool's state) reachable for the rest of the process. *)
let test_server_stop_unregisters_collector () =
  let num_collectors () =
    Mutex.protect Obs.Metrics.collectors_lock (fun () ->
        List.length !Obs.Metrics.collectors)
  in
  let before = num_collectors () in
  for _ = 1 to 3 do
    let socket = Filename.temp_file "scalehls-serve" ".sock" in
    Sys.remove socket;
    let t = Serve.Server.create ~socket ~jobs:1 ~checkpoint_every:0. () in
    Alcotest.(check int) "registered while alive" (before + 1)
      (num_collectors ());
    let th = Thread.create Serve.Server.run t in
    Serve.Server.stop t;
    Thread.join th;
    Alcotest.(check int) "collector count restored" before (num_collectors ())
  done

(* An in-process server on a temporary socket. [f] gets [connect], which
   opens one more client connection and returns its channels. The server is
   stopped and joined afterwards. *)
let with_server f =
  let socket = Filename.temp_file "scalehls-serve" ".sock" in
  Sys.remove socket;
  let t = Serve.Server.create ~socket ~jobs:2 ~checkpoint_every:0. () in
  let th = Thread.create Serve.Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop t;
      Thread.join th)
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (* The server binds its socket on its own thread: retry until it
           does. *)
        let rec go tries =
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> ()
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when tries > 0 ->
              Thread.delay 0.01;
              go (tries - 1)
        in
        go 500;
        (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
      in
      f connect)

(* One request line on [oc], then its final response on [ic], skipping the
   streamed [ack]/[frontier] lines. *)
let request_on (ic, oc) j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc;
  let rec read () =
    match Json.of_string (input_line ic) with
    | Error msg -> Alcotest.failf "undecodable response: %s" msg
    | Ok r -> (
        match Json.member "resp" r with
        | Some (Json.String ("ack" | "frontier")) -> read ()
        | _ -> r)
  in
  read ()

(* [with_server] with one connected client: [f] gets [request], which sends
   one request and returns its final response. *)
let with_server_client f =
  with_server @@ fun connect ->
  let ((ic, _) as conn) = connect () in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f (request_on conn))

let resp_kind r =
  match Json.member "resp" r with Some (Json.String k) -> k | _ -> "(none)"

let int_field k j =
  match Json.member k j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "missing integer field %S" k

(* Every fresh evaluation runs inside the server's accounting wrapper: after
   a cold search on an empty store, no evaluation is still counted active
   and exactly one was granted per explored point. *)
let test_server_accounts_evals () =
  with_server_client @@ fun request ->
  let r =
    request
      (Sp.search_request
         ~design:(Sp.Kernel { kernel = "gemm"; size = 8 })
         ~config:{ Sp.default_config with Sp.samples = 4; iterations = 8 })
  in
  Alcotest.(check string) "search result" "result" (resp_kind r);
  let explored = int_field "explored" r in
  Alcotest.(check bool) "search explored points" true (explored > 0);
  match Json.member "queue" (request status_request) with
  | Some queue ->
      Alcotest.(check int) "nothing active after the search" 0
        (int_field "evals_active" queue);
      Alcotest.(check int) "one grant per explored point" explored
        (int_field "evals_granted" queue)
  | None -> Alcotest.fail "status without a queue block"

(* An out-of-range search config gets an [error] reply naming the field,
   and the connection keeps being served. *)
let test_server_rejects_bad_config () =
  with_server_client @@ fun request ->
  let r =
    request
      (Sp.search_request
         ~design:(Sp.Kernel { kernel = "gemm"; size = 8 })
         ~config:{ Sp.default_config with Sp.window = 0 })
  in
  Alcotest.(check string) "error reply" "error" (resp_kind r);
  (match Json.member "message" r with
  | Some (Json.String msg) ->
      Alcotest.(check bool) (Fmt.str "%S names the window" msg) true
        (contains ~needle:"window" msg)
  | _ -> Alcotest.fail "error without a message");
  Alcotest.(check string) "ping still answered" "pong"
    (resp_kind (request (Json.Obj [ ("req", Json.String "ping") ])))

(* A request line longer than the server's bound gets an [error] naming the
   bound, and that connection is closed; the server keeps serving new
   connections. *)
let test_server_bounds_request_line () =
  with_server @@ fun connect ->
  let ic, oc = connect () in
  (* an unbounded server would wait for the newline forever *)
  Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO 10.;
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      output_string oc (String.make (Serve.Server.max_request_bytes + 1) 'x');
      flush oc;
      let r =
        match Json.of_string (input_line ic) with
        | Ok r -> r
        | Error msg -> Alcotest.failf "undecodable response: %s" msg
      in
      Alcotest.(check string) "error reply" "error" (resp_kind r);
      (match Json.member "message" r with
      | Some (Json.String msg) ->
          Alcotest.(check bool) (Fmt.str "%S names the limit" msg) true
            (contains ~needle:(string_of_int Serve.Server.max_request_bytes) msg)
      | _ -> Alcotest.fail "error without a message");
      Alcotest.(check bool) "connection closed" true
        (match input_line ic with _ -> false | exception End_of_file -> true));
  let ((ic, _) as conn) = connect () in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Alcotest.(check string) "a new connection gets pong" "pong"
        (resp_kind (request_on conn (Json.Obj [ ("req", Json.String "ping") ]))))

(* Platform aliases name one platform, so they share one eval cache: the
   same search repeated under the other alias serves every point warm, and
   the store holds each evaluation once. *)
let test_platform_aliases_share_cache () =
  with_server_client @@ fun request ->
  let search platform =
    request
      (Sp.search_request
         ~design:(Sp.Kernel { kernel = "gemm"; size = 8 })
         ~config:{ Sp.default_config with Sp.samples = 6; iterations = 8; platform })
  in
  let cold = search "vu9p" in
  let warm = search "vu9p-slr" in
  Alcotest.(check string) "cold result" "result" (resp_kind cold);
  Alcotest.(check string) "warm result" "result" (resp_kind warm);
  let explored = int_field "explored" warm in
  Alcotest.(check int) "same exploration" (int_field "explored" cold) explored;
  (match Json.member "stats" warm with
  | Some stats ->
      Alcotest.(check int) "every point a hit" explored
        (int_field "cache_hits" stats);
      Alcotest.(check int) "no point re-evaluated" 0
        (int_field "cache_misses" stats)
  | None -> Alcotest.fail "result without stats");
  match Json.member "store" (request status_request) with
  | Some store ->
      Alcotest.(check int) "one store entry per evaluation" explored
        (int_field "evals" store)
  | None -> Alcotest.fail "status without a store block"

(* ---- Protocol.search: the one config resolver ------------------------------ *)

(* The engine's own defaults and [default_config] are one set of numbers: a
   bare [Dse.run] and a default-config search explore the same points. *)
let test_search_defaults_match_engine () =
  let ctx = Mir.Ir.Ctx.create () in
  let m =
    Pipeline.compile_c ctx (Models.Polybench.source Models.Polybench.Gemm ~n:8)
  in
  let bare = Dse.run ctx m ~top:"gemm" ~platform:P.xc7z020 in
  let o =
    Sp.search (Sp.Kernel { kernel = "gemm"; size = 8 }) Sp.default_config
  in
  Alcotest.(check string) "top" "gemm" o.Sp.top;
  Alcotest.(check int) "same exploration" bare.Dse.explored
    o.Sp.result.Dse.explored;
  Alcotest.(check bool) "same frontier" true
    (bare.Dse.pareto = o.Sp.result.Dse.pareto)

(* An unknown kernel, platform or strategy is rejected naming the value,
   before the store gains a cache for it. *)
let test_search_rejects_unknown_names () =
  let store = Serve.Store.open_ () in
  let gemm = Sp.Kernel { kernel = "gemm"; size = 8 } in
  let rejects what value design config =
    match Sp.search ~store design config with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Fmt.str "%s: %S names %s" what msg value)
          true (contains ~needle:value msg)
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  rejects "kernel" "nosuch"
    (Sp.Kernel { kernel = "nosuch"; size = 8 })
    Sp.default_config;
  rejects "platform" "bogus" gemm { Sp.default_config with Sp.platform = "bogus" };
  rejects "strategy" "annealing" gemm
    { Sp.default_config with Sp.strategy = "annealing" };
  Alcotest.(check int) "no cache added" 0
    (Hashtbl.length store.Serve.Store.caches)

(* ---- The headline property: warm replay ------------------------------------ *)

let check_store_warm_run_bit_identical ~strategy () =
  with_temp_store @@ fun path ->
  Sys.remove path;
  let search store =
    let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
    Dse.run ~samples:8 ~iterations:10 ~seed:7 ?strategy
      ~cache:(Serve.Store.cache_for store "xc7z020")
      ~memos:(Serve.Store.memos store)
      ctx m ~top:"gemm" ~platform:P.xc7z020
  in
  let s1 = Serve.Store.open_ ~path () in
  let r1 = search s1 in
  ignore (Serve.Store.save s1);
  let s2 = Serve.Store.open_ ~path () in
  let r2 = search s2 in
  Alcotest.(check bool) "identical frontier" true (r1.Dse.pareto = r2.Dse.pareto);
  Alcotest.(check bool) "identical best" true (r1.Dse.best = r2.Dse.best);
  Alcotest.(check int) "same exploration" r1.Dse.explored r2.Dse.explored;
  Alcotest.(check int) "cold run starts empty" 0 r1.Dse.stats.Dse.cache_hits;
  (* Deterministic replay: the warm run proposes exactly the cold run's
     points, so every single one is served from the restored store. *)
  Alcotest.(check int) "warm run evaluates nothing" 0
    r2.Dse.stats.Dse.cache_misses;
  Alcotest.(check bool) "warm hits nonzero" true
    (r2.Dse.stats.Dse.cache_hits > 0);
  (* The cold run takes its best module from the transform memo, the warm
     run rebuilds it with one evaluation: both must be the same design. The
     emitted text is compared rather than the fingerprint, because
     [Dse.retarget_ii] reorders the directive's attributes. *)
  Alcotest.(check string) "warm module emits the cold module's C++"
    (Emit.Emit_cpp.emit_module r1.Dse.module_)
    (Emit.Emit_cpp.emit_module r2.Dse.module_)

let test_store_warm_run_bit_identical () =
  check_store_warm_run_bit_identical ~strategy:None ()

(* The same replay contract must hold for a learning strategy: warm-store
   merges reach [Strategy.observe] in the cold run's merge order, so the
   surrogate's RLS state — and every shortlist it derives — replays exactly,
   down to a zero-miss warm run. *)
let test_store_warm_run_surrogate () =
  check_store_warm_run_bit_identical ~strategy:(Some (Qor_ml.surrogate ())) ()

let suite =
  ( "serve",
    [
      Alcotest.test_case "codec round-trips" `Quick test_codec_roundtrips;
      Alcotest.test_case "codec rejects malformed" `Quick
        test_codec_rejects_malformed;
      Alcotest.test_case "protocol parses requests" `Quick test_protocol_parse;
      Alcotest.test_case "protocol client round-trip" `Quick
        test_protocol_client_roundtrip;
      Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
      Alcotest.test_case "store version mismatch goes cold" `Quick
        test_store_version_mismatch_cold;
      Alcotest.test_case "store tolerates corruption" `Quick
        test_store_corruption_tolerated;
      Alcotest.test_case "jobs lifecycle" `Quick test_jobs_lifecycle;
      Alcotest.test_case "stopped server unregisters its collector" `Quick
        test_server_stop_unregisters_collector;
      Alcotest.test_case "server accounts every evaluation" `Quick
        test_server_accounts_evals;
      Alcotest.test_case "server rejects an out-of-range search" `Quick
        test_server_rejects_bad_config;
      Alcotest.test_case "server bounds the request line" `Quick
        test_server_bounds_request_line;
      Alcotest.test_case "platform aliases share one cache" `Quick
        test_platform_aliases_share_cache;
      Alcotest.test_case "search defaults match the engine's" `Quick
        test_search_defaults_match_engine;
      Alcotest.test_case "search rejects unknown names" `Quick
        test_search_rejects_unknown_names;
      Alcotest.test_case "warm store replays bit-identical" `Quick
        test_store_warm_run_bit_identical;
      Alcotest.test_case "warm store replays the surrogate bit-identical" `Quick
        test_store_warm_run_surrogate;
    ] )
