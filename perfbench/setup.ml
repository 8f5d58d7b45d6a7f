(** Set-up time ([setup_s]): how long a fresh process takes to become ready
    to run the workload's first operation — process start and module
    initialization, then the workload's own set-up:

    - DSE workloads: render and compile every design's source and, on a
      workload that searches on a pool, create the pool;
    - [serve-mixed]: start a server on the store the last rep left behind
      (loading it) and get a [pong] from it over a fresh connection.

    Each sample is a child process, [e2e.exe setup WORKLOAD], timed from its
    spawn to the [ready] line it prints once set up; it then exits without
    tearing anything down. Samples in separate processes make the median
    independent of the state of the one process that runs the reps, and
    count work moved into process start. *)

let samples = 15
let ready = "ready"

(** The child side: set up for [w], print [ready], exit. *)
let child (w : Workload.t) =
  (match w.kind with
  | Workload.Dse { jobs } ->
      List.iter
        (fun d -> ignore (Scalehls.Pipeline.compile_c (Mir.Ir.Ctx.create ()) (Search.source d)))
        w.designs;
      if jobs > 1 then ignore (Scalehls.Parpool.create ~jobs ())
  | Workload.Serve_mixed _ ->
      let t =
        Serve.Server.create ~socket:Serve_client.socket ~store_path:Serve_client.store_path
          ~jobs:2 ~checkpoint_every:0. ()
      in
      ignore (Thread.create Serve.Server.run t);
      Serve_client.with_conn (fun c -> ignore (Serve_client.call c (Serve_client.simple "ping"))));
  print_endline ready;
  (* Exit without stopping the pool or server: tearing down is not set-up,
     and a stopped server would rewrite the store. *)
  exit 0

let sample (w : Workload.t) =
  let r, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Obs.Clock.now_ns () in
  let pid = Unix.create_process exe [| exe; "setup"; w.name |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = Obs.Clock.since_s t0 in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l when l = ready -> dt
  | _ -> failwith "set-up process failed"

(** Set-up samples of [w] spread over a run of [reps] reps: the returned
    [after_rep r] takes rep [r]'s share of the [samples] samples (call it
    after the rep, outside its timing), and [taken ()] lists the samples so
    far. Spread out, a slow moment of the host weighs on a few samples
    only. Each failed sample is a failed operation. *)
let spread ~tally ~reps (w : Workload.t) =
  let taken = ref [] in
  let after_rep r =
    for _ = (samples * r / reps) + 1 to samples * (r + 1) / reps do
      Option.iter (fun s -> taken := s :: !taken) (Tally.guard tally "set-up" (fun () -> sample w))
    done
  in
  (after_rep, fun () -> List.rev !taken)
