(* scalehls-serve: the persistent DSE daemon. Listens on a Unix-domain
   socket for line-delimited JSON requests (searches over PolyBench kernels
   or HLS-C, status, checkpoint, shutdown), runs concurrent searches
   round-robin over one shared worker pool, and keeps a disk-backed
   fingerprint cache so repeated or similar designs evaluate warm across
   restarts. `scalehls-dse --remote SOCKET` is the matching client. *)

open Cmdliner

let run socket store jobs checkpoint_every metrics_port trace metrics events =
  Obs_flags.with_obs ~events ~trace ~metrics @@ fun () ->
  let server =
    Serve.Server.create ~socket ?store_path:store ~jobs ~checkpoint_every
      ~metrics_port ()
  in
  (* Override the raising handlers installed by [with_obs]: the daemon
     drains running searches and checkpoints the store before exiting. The
     flip is one atomic store, safe from the handler context. *)
  let graceful = Sys.Signal_handle (fun _ -> Serve.Server.stop server) in
  List.iter
    (fun signal ->
      try Sys.set_signal signal graceful with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  Serve.Server.run server;
  0

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (created; stale files are replaced).")

let store =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Disk-backed cache file (JSON Lines). Loaded at startup when it \
           exists — a restarted daemon serves previously-seen designs from \
           cache — and checkpointed periodically, on $(b,shutdown) requests \
           and on SIGINT/SIGTERM. Without this flag the cache is in-memory \
           only.")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains shared by all searches (0 = one per core); \
           connection threads never evaluate. Concurrent searches \
           interleave on the pool point by point, and each commits its \
           results in proposal order, so each still reproduces its \
           sequential result bit-for-bit.")

let checkpoint_every =
  Arg.(
    value & opt float 60.
    & info [ "checkpoint-every" ] ~docv:"SECONDS"
        ~doc:"Periodic store-checkpoint interval (0 disables; shutdown still saves).")

let metrics_port =
  Arg.(
    value & opt int 0
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve the live Prometheus text exposition (queue depth, \
           pool-wait quantiles, store hit rates, checkpoint age, per-worker \
           busy fractions) over HTTP on 127.0.0.1:$(docv) — a scrape \
           endpoint for a running daemon. 0 (the default) disables the \
           listener; the socket protocol's $(b,status) request carries \
           the same metrics as JSON either way.")

let cmd =
  let doc = "persistent ScaleHLS DSE service over a Unix-domain socket" in
  Cmd.v (Cmd.info "scalehls-serve" ~doc)
    Term.(
      const run $ socket $ store $ jobs $ checkpoint_every $ metrics_port
      $ Obs_flags.trace $ Obs_flags.metrics $ Obs_flags.events)

let () = exit (Cmd.eval' cmd)
