(** The daemon: a Unix-domain-socket accept loop dispatching the
    {!Protocol} over per-connection threads.

    Concurrency model: every accepted connection gets a system thread that
    reads requests sequentially; a [search] request runs the full DSE on
    that thread, streaming its point evaluations onto the one shared
    {!Scalehls.Parpool}, whose workers dequeue round-robin across the
    searches' streams — [k] concurrent client searches interleave at
    single-eval granularity without oversubscribing the machine. The server
    itself only accounts each evaluation ({!run_search}): a [serve.turn]
    span, the running and granted evaluation counts, and the pool-queue
    wait in the [serve.turn_wait_seconds] histogram — the fair-share wait a
    point experiences behind other jobs' points. Search coordination
    (admission, in-order commit, Pareto maintenance) is cheap and
    interleaves on the runtime lock; the evaluation work itself runs on the
    pool's worker domains. Results stream back as they form: one [frontier]
    line per traversal round, then the final [result].

    State shared across requests: the {!Store} (per-platform evaluation
    caches + estimator band memos, disk-backed), checkpointed every
    [checkpoint_every] seconds from a dedicated background thread — never
    the scheduling/accept path, so a large-store checkpoint cannot stall
    job turns — and once more on graceful shutdown. {!stop} only flips an
    atomic — safe from a signal handler — and the accept loop (select with
    a short timeout) notices it within a beat, drains running searches,
    checkpoints, and returns. *)

open Scalehls
module Json = Obs.Json

type t = {
  socket_path : string;
  store : Store.t;
  pool : Parpool.t;
  evals_active : int Atomic.t;  (** evaluations running right now, across jobs *)
  evals_granted : int Atomic.t;  (** evaluations started so far *)
  registry : Jobs.t;
  stop_flag : bool Atomic.t;
  checkpoint_every : float;
  metrics_port : int;  (** [> 0]: serve Prometheus text over HTTP on localhost *)
  start_ns : int64;
  last_ckpt_ns : int64 Atomic.t;  (** completion time of the last checkpoint *)
  last_ckpt_duration_s : float Atomic.t;  (** [-1.] until a checkpoint ran *)
  ckpt_in_progress : bool Atomic.t;  (** a [Store.save] is running right now *)
  collector : unit -> unit;  (** the metrics pull hook, removed when {!run} exits *)
}

(* Refresh the "serve" registry's health gauges from the live server state.
   Runs as a pull collector at every metrics export (scrape, snapshot,
   summary), so readings are scrape-time-fresh without any instrumentation
   on the hot paths. Stops updating once the server is told to stop (the
   pool is shut down on the way out; stale last values are fine). *)
let publish_gauges t =
  if not (Atomic.get t.stop_flag) then begin
    let open Obs.Metrics in
    let reg = registry "serve" in
    let queued, running, done_, failed = Jobs.counts t.registry in
    set (gauge reg "jobs.queued") (float_of_int queued);
    set (gauge reg "jobs.in_flight") (float_of_int running);
    set (gauge reg "jobs.done") (float_of_int done_);
    set (gauge reg "jobs.failed") (float_of_int failed);
    (* Point-granular queue: evaluations waiting for a worker, across all
       concurrent searches' streams. *)
    set (gauge reg "queue.depth") (float_of_int (Parpool.queued t.pool));
    set (gauge reg "queue.evals_active") (float_of_int (Atomic.get t.evals_active));
    counter_set (counter reg "queue.evals_granted")
      (float_of_int (Atomic.get t.evals_granted));
    set (gauge reg "checkpoint_in_progress")
      (if Atomic.get t.ckpt_in_progress then 1. else 0.);
    let evals, hits, misses = Store.eval_stats t.store in
    set (gauge reg "store.evals") (float_of_int evals);
    set (gauge reg "store.eval_hit_rate")
      (let total = hits + misses in
       if total = 0 then 0. else float_of_int hits /. float_of_int total);
    let memos = Store.memos t.store in
    set (gauge reg "store.bands") (float_of_int (Estimator.memo_length memos));
    set (gauge reg "store.band_hit_rate")
      (let h = Estimator.memo_hits memos and m = Estimator.memo_misses memos in
       let total = h + m in
       if total = 0 then 0. else float_of_int h /. float_of_int total);
    List.iter
      (fun (i, f) ->
        set (gauge ~labels:[ ("worker", string_of_int i) ] reg "worker.busy_fraction") f)
      (Parpool.busy_fractions t.pool);
    set (gauge reg "uptime_s") (Obs.Clock.since_s t.start_ns);
    set (gauge reg "checkpoint_age_s") (Obs.Clock.since_s (Atomic.get t.last_ckpt_ns));
    let d = Atomic.get t.last_ckpt_duration_s in
    if d >= 0. then set (gauge reg "checkpoint_duration_s") d
  end

(** [create ~socket ()] prepares a server (no socket is bound until {!run}).
    [store_path] enables persistence; [jobs] sizes the shared worker pool
    ([0] = one per core); [checkpoint_every] is the periodic-checkpoint
    interval in seconds ([0.] disables periodic checkpoints — shutdown still
    saves); [metrics_port > 0] additionally serves the Prometheus exposition
    over HTTP on [127.0.0.1:port] (the socket [metrics] request works
    regardless). *)
let create ~socket ?store_path ?(jobs = 0) ?(checkpoint_every = 60.)
    ?(metrics_port = 0) () =
  let now = Obs.Clock.now_ns () in
  let store = Store.open_ ?path:store_path () in
  let pool = Parpool.create ~jobs () in
  let registry = Jobs.create () in
  let stop_flag = Atomic.make false and last_ckpt_ns = Atomic.make now in
  let last_ckpt_duration_s = Atomic.make (-1.) in
  let ckpt_in_progress = Atomic.make false in
  let rec t =
    {
      socket_path = socket;
      store;
      pool;
      evals_active = Atomic.make 0;
      evals_granted = Atomic.make 0;
      registry;
      stop_flag;
      checkpoint_every;
      metrics_port;
      start_ns = now;
      last_ckpt_ns;
      last_ckpt_duration_s;
      ckpt_in_progress;
      collector = (fun () -> publish_gauges t);
    }
  in
  Obs.Metrics.register_collector t.collector;
  t

let store t = t.store

(** Request shutdown. Async-signal-safe (a single atomic store): install it
    directly as the SIGINT/SIGTERM handler. *)
let stop t = Atomic.set t.stop_flag true

let turn_wait_seconds =
  Obs.Metrics.histogram (Obs.Metrics.registry "serve") "turn_wait_seconds"

let checkpoint_seconds =
  Obs.Metrics.histogram (Obs.Metrics.registry "serve") "checkpoint_seconds"

(* Every store checkpoint goes through here so age/duration telemetry can't
   drift from reality: times the save, stamps the completion, feeds the
   duration histogram. [ckpt_in_progress] brackets the save so [status] can
   report a running checkpoint (periodic ones happen off-thread). *)
let checkpoint t =
  Atomic.set t.ckpt_in_progress true;
  Fun.protect
    ~finally:(fun () -> Atomic.set t.ckpt_in_progress false)
    (fun () ->
      let records, secs =
        Obs.Clock.time_s (fun () ->
            Obs.Trace.with_span ~cat:"serve" "serve.checkpoint" (fun () ->
                Store.save t.store))
      in
      Atomic.set t.last_ckpt_ns (Obs.Clock.now_ns ());
      Atomic.set t.last_ckpt_duration_s secs;
      Obs.Metrics.observe checkpoint_seconds secs;
      records)

let status_json t =
  let queued, running, done_, failed = Jobs.counts t.registry in
  Protocol.resp "status"
    [
      ( "queue",
        Json.Obj
          [
            ("queued", Json.Int queued);
            ("running", Json.Int running);
            ("done", Json.Int done_);
            ("failed", Json.Int failed);
            ("evals_waiting", Json.Int (Parpool.queued t.pool));
            ("evals_active", Json.Int (Atomic.get t.evals_active));
            ("evals_granted", Json.Int (Atomic.get t.evals_granted));
          ] );
      ("jobs", Jobs.to_status_json t.registry);
      ("store", Store.to_status_json t.store);
      ( "workers",
        Json.List
          (List.map
             (fun (i, f) ->
               Json.Obj
                 [ ("worker", Json.Int i); ("busy_fraction", Json.Float f) ])
             (Parpool.busy_fractions t.pool)) );
      ("uptime_s", Json.Float (Obs.Clock.since_s t.start_ns));
      ( "checkpoint_age_s",
        Json.Float (Obs.Clock.since_s (Atomic.get t.last_ckpt_ns)) );
      ( "checkpoint_duration_s",
        let d = Atomic.get t.last_ckpt_duration_s in
        if d >= 0. then Json.Float d else Json.Null );
      ("checkpoint_in_progress", Json.Bool (Atomic.get t.ckpt_in_progress));
      ("metrics", Obs.Metrics.snapshot ());
    ]

let searches_total ~design ~strategy =
  Obs.Metrics.counter
    ~labels:[ ("design", design); ("strategy", strategy) ]
    (Obs.Metrics.registry "serve") "searches_total"

let run_search t send (design : Protocol.design) (config : Protocol.config) =
  let label = Protocol.design_label design in
  let job = Jobs.submit t.registry ~label in
  (* The job id is the trace identity: every dse.* span this search emits
     carries it, so concurrent searches stay separable in one Chrome trace
     even though they interleave on the same worker domains. *)
  let job_tag = string_of_int job.Jobs.id in
  (* Runs around every point evaluation, on the pool worker that dequeued
     it; evaluations of any number of jobs proceed concurrently. They
     interleave on the same workers, so the span carries the job identity
     (tids do not). *)
  let account_eval f =
    Atomic.incr t.evals_active;
    Atomic.incr t.evals_granted;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.evals_active)
      (fun () ->
        Obs.Trace.with_span ~cat:"serve"
          ~args:[ ("job", Json.String job_tag) ]
          "serve.turn" f)
  in
  Obs.Metrics.add (searches_total ~design:label ~strategy:config.Protocol.strategy) 1.;
  send (Protocol.ack ~job_id:job.Jobs.id ~label);
  match
    Jobs.start t.registry job;
    (* The shared, disk-warmed caches: merging semantics in [Dse.run] keep
       the frontier bit-identical to a cold in-process run. *)
    Protocol.search ~pool:t.pool ~store:t.store ~job:job_tag
      ~batch_wrap:account_eval
      ~queue_wait:(Obs.Metrics.observe turn_wait_seconds)
      ~on_frontier:(fun frontier explored ->
        Jobs.progress t.registry job ~explored
          ~frontier_size:(List.length frontier);
        send (Protocol.frontier_update ~job_id:job.Jobs.id ~explored frontier))
      design config
  with
  | o ->
      Jobs.finish t.registry job;
      send (Protocol.search_result ~job_id:job.Jobs.id o.Protocol.result)
  | exception e ->
      let msg = Printexc.to_string e in
      Jobs.fail t.registry job msg;
      (try send (Protocol.error msg) with _ -> ())

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let out_lock = Mutex.create () in
  let send j =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        output_string oc (Json.to_string j);
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        match Protocol.request_of_line line with
        | Error msg ->
            send (Protocol.error msg);
            loop ()
        | Ok (Protocol.Search { design; config }) ->
            run_search t send design config;
            loop ()
        | Ok Protocol.Status ->
            send (status_json t);
            loop ()
        | Ok Protocol.Ping ->
            send Protocol.pong;
            loop ()
        | Ok Protocol.Checkpoint ->
            let records = checkpoint t in
            send (Protocol.resp "checkpointed" [ ("records", Json.Int records) ]);
            loop ()
        | Ok Protocol.Metrics ->
            send (Protocol.metrics_response (Obs.Metrics.to_prometheus ()));
            loop ()
        | Ok (Protocol.Trace { job }) ->
            let tag = Json.String (string_of_int job) in
            let events =
              if not (Obs.Trace.enabled ()) then []
              else
                List.filter_map
                  (fun (e : Obs.Trace.event) ->
                    if List.exists (fun (k, v) -> k = "job" && v = tag) e.args
                    then Some (Obs.Trace.event_json e)
                    else None)
                  (Obs.Trace.events ())
            in
            send
              (Protocol.trace_response ~job ~enabled:(Obs.Trace.enabled ())
                 events);
            loop ()
        | Ok Protocol.Shutdown ->
            send (Protocol.resp "stopping" []);
            stop t)
  in
  (try loop () with _ -> ());
  (* [ic] owns the descriptor; closing it closes [oc]'s fd too. *)
  try close_in ic with Sys_error _ -> ()

(* ---- The Prometheus scrape listener ----------------------------------------- *)

(* Minimal HTTP/1.0 responder: any request gets the full text exposition.
   One short-lived connection per scrape (Connection: close) keeps this
   free of keep-alive state; Prometheus is happy with that. *)
let answer_scrape conn =
  let ic = Unix.in_channel_of_descr conn in
  let oc = Unix.out_channel_of_descr conn in
  (try
     (* Drain the request head (request line + headers, up to blank). *)
     let rec drain n =
       if n > 0 then
         match input_line ic with
         | exception (End_of_file | Sys_error _) -> ()
         | line when String.trim line = "" -> ()
         | _ -> drain (n - 1)
     in
     drain 64;
     let body = Obs.Metrics.to_prometheus () in
     output_string oc "HTTP/1.0 200 OK\r\n";
     output_string oc "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
     output_string oc
       (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
     output_string oc "Connection: close\r\n\r\n";
     output_string oc body;
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  try close_in ic with Sys_error _ -> ()

(* Accept loop for [--metrics-port], run on its own thread; polls the stop
   flag like the main loop so shutdown brings it down within a beat. *)
let metrics_listener t port =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 16
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception e ->
      (* A taken port must not take the daemon down — the socket protocol's
         [metrics] request still works. *)
      Logs.warn (fun k ->
          k "scalehls-serve: cannot serve metrics on port %d: %s" port
            (Printexc.to_string e))
  | fd ->
      Logs.app (fun k ->
          k "scalehls-serve: metrics on http://127.0.0.1:%d/metrics" port);
      while not (Atomic.get t.stop_flag) do
        match Unix.select [ fd ] [] [] 0.25 with
        | [ _ ], _, _ -> (
            try
              let conn, _ = Unix.accept fd in
              answer_scrape conn
            with Unix.Unix_error _ -> ())
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Unix.close fd

let serve t =
  (* A client that disconnects mid-stream (Ctrl-C on [--remote]) must not
     take the daemon down: with SIGPIPE ignored, the failed write surfaces
     as EPIPE ([Sys_error]/[Unix_error]), which [run_search]/[handle_conn]
     already treat as end-of-connection. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists t.socket_path then Unix.unlink t.socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX t.socket_path);
  Unix.listen fd 16;
  Logs.app (fun k ->
      k "scalehls-serve: listening on %s (%d worker%s)" t.socket_path
        (Parpool.jobs t.pool)
        (if Parpool.jobs t.pool = 1 then "" else "s"));
  let scrape_thread =
    if t.metrics_port <= 0 then None
    else Some (Thread.create (fun () -> metrics_listener t t.metrics_port) ())
  in
  (* Periodic checkpoints run on their own thread so a slow [Store.save] of
     a large store never stalls the accept loop or any search's turns; the
     atomic tmp+rename inside [Store.save] keeps the on-disk store
     consistent no matter when this fires. Polls the stop flag between
     short sleeps so shutdown brings it down within a beat. *)
  let ckpt_thread =
    if t.checkpoint_every <= 0. then None
    else
      Some
        (Thread.create
           (fun () ->
             let last_ckpt = ref (Obs.Clock.now_ns ()) in
             while not (Atomic.get t.stop_flag) do
               Thread.delay 0.25;
               if
                 (not (Atomic.get t.stop_flag))
                 && Obs.Clock.since_s !last_ckpt >= t.checkpoint_every
               then begin
                 ignore (checkpoint t);
                 last_ckpt := Obs.Clock.now_ns ()
               end
             done)
           ())
  in
  while not (Atomic.get t.stop_flag) do
    (match Unix.select [ fd ] [] [] 0.25 with
    | [ _ ], _, _ -> (
        (* Transient accept failures must not abort the daemon (that would
           skip the drain, the final checkpoint, and the socket unlink):
           a client can vanish between select and accept (ECONNABORTED),
           and idle connections each pin an fd, so EMFILE/ENFILE is
           plausible under load — log, back off briefly, keep serving. *)
        try
          let conn, _ = Unix.accept fd in
          ignore (Thread.create (fun () -> handle_conn t conn) ())
        with
        | Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        | Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) as e ->
            Logs.warn (fun k ->
                k "scalehls-serve: accept: %s (backing off)"
                  (Printexc.to_string e));
            Thread.delay 0.5
        | Unix.Unix_error _ as e ->
            Logs.warn (fun k ->
                k "scalehls-serve: accept: %s" (Printexc.to_string e)))
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  Unix.close fd;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  (* Bounded drain: let running searches finish so their results reach both
     their clients and the checkpoint. *)
  let deadline = Obs.Clock.now_ns () in
  let rec drain () =
    let queued, running, _, _ = Jobs.counts t.registry in
    if queued + running > 0 && Obs.Clock.since_s deadline < 30. then begin
      Thread.delay 0.1;
      drain ()
    end
  in
  drain ();
  (* Join the checkpoint thread before the final save so the two can't
     overlap on the store file. *)
  Option.iter Thread.join ckpt_thread;
  let records = checkpoint t in
  Logs.app (fun k -> k "scalehls-serve: checkpointed %d records, bye" records);
  Option.iter Thread.join scrape_thread;
  Parpool.shutdown t.pool

(** Bind the socket and serve until {!stop} (or a [shutdown] request). On
    the way out: running searches drain (bounded wait), the store is
    checkpointed, the worker pool is shut down, the socket file is removed,
    and the metrics collector is unregistered, so a stopped server is no
    longer reachable from the metrics registry. Idle connection threads are
    abandoned — they die with the process. *)
let run t =
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.unregister_collector t.collector)
    (fun () -> serve t)
