(** The wire protocol: line-delimited JSON over a Unix-domain socket. Every
    request is one JSON object on one line with a ["req"] discriminator;
    every response is one JSON object on one line with a ["resp"]
    discriminator. A [search] request streams: an [ack], then a [frontier]
    update per traversal round, then one final [result] (or [error]). The
    other requests are single-shot. This module parses and builds messages
    and runs a search from its config ({!search}, shared by the daemon and
    the in-process CLI); the socket loop lives in {!Server}.

    Requests:
    {v
    {"req":"search","design":{"kernel":"gemm","size":64},
     "config":{"samples":32,"iterations":80,"seed":42,
               "symbolic":true,"platform":"xc7z020"}}
    {"req":"search","design":{"c":"void f(...){...}","top":"f"},...}
    {"req":"status"} {"req":"ping"} {"req":"checkpoint"} {"req":"shutdown"}
    {"req":"metrics"} {"req":"trace","job":3}
    v}

    [metrics] returns the daemon's Prometheus text exposition (for ad-hoc
    scraping over the socket; [--metrics-port] serves the same body over
    HTTP). [trace] returns the daemon-side spans recorded for one job, so a
    remote client can merge the server's half of the work into its own
    Chrome trace.

    There is no IR parser in this repository, so designs are either a named
    PolyBench kernel with a problem size or HLS-C source compiled by the
    frontend — not MLIR text. Config fields are optional and default to
    {!default_config}, where the [scalehls-dse] CLI takes its flag defaults
    from too; both runs go through {!search}, so a remote search with the
    same flags reproduces the in-process run bit-for-bit. *)

open Scalehls
module Json = Obs.Json

type design =
  | Kernel of { kernel : string; size : int }
  | C_source of { src : string; top : string }

type config = {
  samples : int;
  iterations : int;
  seed : int;
  symbolic : bool;
  platform : string;
  strategy : string;  (** search strategy name: "exhaustive" | "surrogate" *)
  window : int;  (** executor in-flight window, at least 1 *)
}

(* The search defaults as a config: the scalehls-dse CLI reads its flag
   defaults from here, and the numbers are the engine's own
   ([Dse.default_samples] ...), so a remote request, a local run with no
   flags and a bare [Dse.run] agree. *)
let default_config =
  {
    samples = Dse.default_samples;
    iterations = Dse.default_iterations;
    seed = Dse.default_seed;
    symbolic = true;
    platform = "xc7z020";
    strategy = "exhaustive";
    window = Dse.default_window;
  }

type request =
  | Search of { design : design; config : config }
  | Status
  | Ping
  | Checkpoint
  | Metrics
  | Trace of { job : int }
  | Shutdown

let design_label = function
  | Kernel { kernel; size } -> Printf.sprintf "%s-%d" kernel size
  | C_source { top; _ } -> top

let design_of_json j =
  match (Json.member "kernel" j, Json.member "c" j) with
  | Some k, None ->
      let size =
        match Json.member "size" j with Some s -> Codec.to_int s | None -> 64
      in
      Kernel { kernel = Codec.to_string k; size }
  | None, Some src ->
      C_source
        {
          src = Codec.to_string src;
          top = Codec.to_string (Codec.member "top" j);
        }
  | _ -> raise (Codec.Malformed "design needs either \"kernel\" or \"c\"")

let config_of_json = function
  | None -> default_config
  | Some j ->
      let int k d = match Json.member k j with Some v -> Codec.to_int v | None -> d in
      let bool k d = match Json.member k j with Some v -> Codec.to_bool v | None -> d in
      let str k d = match Json.member k j with Some v -> Codec.to_string v | None -> d in
      {
        samples = int "samples" default_config.samples;
        iterations = int "iterations" default_config.iterations;
        seed = int "seed" default_config.seed;
        symbolic = bool "symbolic" default_config.symbolic;
        platform = str "platform" default_config.platform;
        strategy = str "strategy" default_config.strategy;
        window = int "window" default_config.window;
      }

(* ---- Client-side request builders (the [scalehls-dse --remote] mode) -------- *)

let design_to_json = function
  | Kernel { kernel; size } ->
      Json.Obj [ ("kernel", Json.String kernel); ("size", Json.Int size) ]
  | C_source { src; top } ->
      Json.Obj [ ("c", Json.String src); ("top", Json.String top) ]

let config_to_json c =
  Json.Obj
    [
      ("samples", Json.Int c.samples);
      ("iterations", Json.Int c.iterations);
      ("seed", Json.Int c.seed);
      ("symbolic", Json.Bool c.symbolic);
      ("platform", Json.String c.platform);
      ("strategy", Json.String c.strategy);
      ("window", Json.Int c.window);
    ]

let search_request ~design ~config =
  Json.Obj
    [
      ("req", Json.String "search");
      ("design", design_to_json design);
      ("config", config_to_json config);
    ]

let status_request = Json.Obj [ ("req", Json.String "status") ]

let trace_request ~job =
  Json.Obj [ ("req", Json.String "trace"); ("job", Json.Int job) ]

(** Parse one request line. [Error] carries a client-facing message. *)
let request_of_line line : (request, string) result =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "malformed JSON: %s" msg)
  | Ok j -> (
      match
        match Json.member "req" j with
        | Some (Json.String "search") ->
            Search
              {
                design = design_of_json (Codec.member "design" j);
                config = config_of_json (Json.member "config" j);
              }
        | Some (Json.String "status") -> Status
        | Some (Json.String "ping") -> Ping
        | Some (Json.String "checkpoint") -> Checkpoint
        | Some (Json.String "metrics") -> Metrics
        | Some (Json.String "trace") ->
            Trace { job = Codec.to_int (Codec.member "job" j) }
        | Some (Json.String "shutdown") -> Shutdown
        | Some (Json.String other) ->
            raise (Codec.Malformed (Printf.sprintf "unknown request %S" other))
        | _ -> raise (Codec.Malformed "missing \"req\" field")
      with
      | req -> Ok req
      | exception Codec.Malformed msg -> Error msg)

(* ---- Response builders ------------------------------------------------------- *)

let resp kind fields = Json.Obj (("resp", Json.String kind) :: fields)
let pong = resp "pong" []
let error msg = resp "error" [ ("message", Json.String msg) ]

let ack ~job_id ~label =
  resp "ack" [ ("job", Json.Int job_id); ("label", Json.String label) ]

(** The Prometheus text exposition, carried as one JSON string field. *)
let metrics_response body = resp "metrics" [ ("prometheus", Json.String body) ]

(** The daemon-side Chrome trace events recorded for [job] (already in
    trace_event JSON form). [enabled=false] tells the client the daemon ran
    without [--trace], so an empty list means "not recorded", not "no
    work". *)
let trace_response ~job ~enabled events =
  resp "trace"
    [
      ("job", Json.Int job);
      ("enabled", Json.Bool enabled);
      ("events", Json.List events);
    ]

(** One streamed frontier update: the current Pareto frontier (latency-
    increasing) and how many points have been explored so far. *)
let frontier_update ~job_id ~explored frontier =
  resp "frontier"
    [
      ("job", Json.Int job_id);
      ("explored", Json.Int explored);
      ("points", Json.List (List.map Codec.evaluated_to_json frontier));
    ]

(** The final reply of a search; [wall_s] is the engine's own wall time of
    the run. *)
let search_result ~job_id (r : Dse.result) =
  let s = r.Dse.stats in
  resp "result"
    [
      ("job", Json.Int job_id);
      ("explored", Json.Int r.Dse.explored);
      ("wall_s", Json.Float s.Dse.wall_seconds);
      ( "best",
        match r.Dse.best with
        | Some b -> Codec.evaluated_to_json b
        | None -> Json.Null );
      ("pareto", Json.List (List.map Codec.evaluated_to_json r.Dse.pareto));
      ( "stats",
        Json.Obj
          [
            ("cache_hits", Json.Int s.Dse.cache_hits);
            ("cache_misses", Json.Int s.Dse.cache_misses);
            ("est_memo_hits", Json.Int s.Dse.est_memo_hits);
            ("est_memo_misses", Json.Int s.Dse.est_memo_misses);
            ("symbolic_points", Json.Int s.Dse.symbolic_points);
            ("fallback_points", Json.Int s.Dse.fallback_points);
            ("strategy", Json.String s.Dse.strategy);
            ( "strategy_counters",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Int v))
                   s.Dse.strategy_counters) );
          ] );
    ]

(* ---- Running a search ---------------------------------------------------------- *)

(** A finished search: the design's top function, the module the design
    compiled to (the baseline a result is measured against) and the engine's
    result. *)
type outcome = { top : string; input : Mir.Ir.op; result : Dse.result }

(** Run [design] under [config]: the one place a search config is
    interpreted, by the daemon and the in-process [scalehls-dse] alike. An
    unknown kernel, platform or strategy raises [Invalid_argument] naming
    the value, before [store] is touched. With [store], the search shares
    the store's band memos and its evaluation cache for the platform's
    canonical name, so platform aliases share one cache. [jobs], [pool],
    [job], [batch_wrap], [queue_wait] and [on_frontier] pass through to
    {!Dse.run}. *)
let search ?jobs ?pool ?store ?job ?batch_wrap ?queue_wait ?on_frontier design
    config =
  let src, top =
    match design with
    | Kernel { kernel; size } ->
        let k = Models.Polybench.of_name kernel in
        (Models.Polybench.source k ~n:size, Models.Polybench.name k)
    | C_source { src; top } -> (src, top)
  in
  let platform =
    match Vhls.Platform.of_name config.platform with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "unknown platform %S (xc7z020 | vu9p-slr)"
             config.platform)
  in
  let strategy =
    match Qor_ml.strategy_of_name config.strategy with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "unknown strategy %S (%s)" config.strategy
             (String.concat " | " Qor_ml.strategy_names))
  in
  let ctx = Mir.Ir.Ctx.create () in
  let input = Pipeline.compile_c ctx src in
  let cache = Option.map (fun st -> Store.cache_for st platform.name) store in
  let memos = Option.map Store.memos store in
  let result =
    Dse.run ~samples:config.samples ~iterations:config.iterations
      ~seed:config.seed ~symbolic:config.symbolic ~window:config.window
      ~strategy ?cache ?memos ?jobs ?pool ?job ?batch_wrap ?queue_wait
      ?on_frontier ctx input ~top ~platform
  in
  { top; input; result }
