(** A reusable fixed-size pool of worker domains for data-parallel point
    evaluation (stdlib [Domain]/[Mutex]/[Condition] only).

    The pool owns [jobs] worker domains pulling closures off per-stream task
    queues. Clients use one streaming API: {!stream} opens a submission
    stream, {!submit} enqueues one task and returns its id immediately,
    workers complete tasks {e out of order}, and {!await} ({!take} for the
    non-blocking probe) collects one result by id, a task's exception
    included. Nothing synchronizes the stream as a whole — a caller that
    keeps submitting while collecting turns the pool into a
    continuously-fed pipeline with no batch barrier; a caller that needs
    results in submission order awaits them in that order.

    Workers dequeue round-robin {e across} streams that have pending tasks:
    every dequeue serves the next stream in rotation, so [k] concurrent
    streams (e.g. [k] searches sharing a daemon's pool) interleave fairly at
    single-task granularity — a stream with 100 queued tasks cannot starve a
    stream with 2. Per-task queue latency (enqueue to dequeue) is reported
    through the stream's [on_wait] callback, which runs on the worker that
    dequeued the task and must therefore be thread-safe.

    A pool created with [jobs <= 1] spawns no domains and runs every
    submitted task inline on the caller at {!submit} time, so the [jobs = 1]
    code path runs tasks in submission order with no domain at all.

    Every task execution is timed (monotonic clock) into a per-worker busy
    counter; {!worker_stats} and {!busy_fractions} expose per-worker
    utilization over the pool's lifetime — the telemetry behind the DSE
    engine's [worker.N.busy_fraction] metrics. Inline execution (a [jobs <= 1]
    pool, or a shut-down pool) accounts to worker slot 0.

    Each spawned worker enlarges its own minor heap to
    {!worker_minor_heap_words} just before its first task. In OCaml 5 a
    full minor heap in any domain stops every domain for a minor
    collection, and a new domain starts at the runtime's 256 k-word
    default, so point evaluation (which allocates heavily) turned a
    2-worker pool into a stream of stop-the-world pauses. [Gc.set] acts per
    domain: the caller's domain and [jobs <= 1] pools keep their settings.
    Resizing is itself a stop-the-world collection (0.5-7 ms each on a
    loaded 2-vCPU host), so it waits for the first task: a pool that never
    gets work never pays it, and creating a pool stays as cheap as
    spawning its domains.

    Tasks must not themselves submit to the same pool (they would deadlock
    waiting for workers that are all busy). *)

(* One stream's worker-facing half: the monomorphic task queue the pool's
   round-robin rotation serves. The typed result plumbing is captured inside
   the queued closures. *)
type sq = {
  sq_tasks : (int64 * (unit -> unit)) Queue.t;  (** (enqueue time, run) *)
  sq_on_wait : (float -> unit) option;
  mutable sq_queued : bool;  (** currently registered in the rotation *)
  mutable sq_running : int;  (** dequeued by a worker, not yet completed *)
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work_available : Condition.t;
  result_ready : Condition.t;
      (** signalled whenever any stream's task completes *)
  mutable rotation : sq list;
      (** round-robin rotation; invariant: every listed stream has a
          non-empty task queue *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  busy_ns : int64 Atomic.t array;  (** per-worker cumulative task time *)
  created_ns : int64;
}

let jobs t = t.jobs

let add_busy pool slot ns =
  let cell = pool.busy_ns.(slot) in
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (Int64.add cur ns)) then go ()
  in
  go ()

(* Pop the next task in stream rotation order. Caller holds the lock. The
   served stream moves to the back of the rotation (or leaves it when
   emptied), so successive dequeues visit streams fairly regardless of how
   many tasks each has queued. *)
let dequeue pool =
  match pool.rotation with
  | [] -> None
  | sq :: rest ->
      let enq_ns, task = Queue.pop sq.sq_tasks in
      sq.sq_running <- sq.sq_running + 1;
      if Queue.is_empty sq.sq_tasks then begin
        sq.sq_queued <- false;
        pool.rotation <- rest
      end
      else pool.rotation <- rest @ [ sq ];
      Some (enq_ns, sq, task)

(** Minor-heap size, in words, of every spawned worker domain: 1 M words
    (8 MB on 64-bit). Chosen by a sweep of the benchmark's 2-worker
    [kernels-j2] workload on a 2-vCPU host (median [wall_s] of five 10 s
    runs): 256 k words (the default) 2.43 s, 512 k 2.01 s, 1 M 1.91 s,
    2 M 2.25 s, 4 M 2.42 s. Larger heaps collect less often but lose
    cache locality. *)
let worker_minor_heap_words = 1 lsl 20

(* [sized]: this worker has set its minor heap (see the header). *)
let rec worker_loop ~sized pool slot =
  Mutex.lock pool.lock;
  while pool.rotation = [] && not pool.stopping do
    Condition.wait pool.work_available pool.lock
  done;
  match dequeue pool with
  | None -> Mutex.unlock pool.lock (* stopping: exit *)
  | Some (enq_ns, sq, task) ->
      Mutex.unlock pool.lock;
      if not sized then
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
      let t0 = Obs.Clock.now_ns () in
      (match sq.sq_on_wait with
      | Some cb -> cb (Obs.Clock.ns_to_s (Int64.sub t0 enq_ns))
      | None -> ());
      task ();
      add_busy pool slot (Int64.sub (Obs.Clock.now_ns ()) t0);
      worker_loop ~sized:true pool slot

(** [create ~jobs ()] builds a pool of [jobs] worker domains. [jobs <= 0]
    means "one per core" ([Domain.recommended_domain_count]). *)
let create ?(jobs = 1) () =
  let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  let pool =
    {
      jobs;
      lock = Mutex.create ();
      work_available = Condition.create ();
      result_ready = Condition.create ();
      rotation = [];
      stopping = false;
      workers = [||];
      busy_ns = Array.init (max 1 jobs) (fun _ -> Atomic.make 0L);
      created_ns = Obs.Clock.now_ns ();
    }
  in
  if jobs > 1 then begin
    (* Spawn workers with SIGINT/SIGTERM blocked (signal masks are
       inherited): an idle worker parked in [Condition.wait] never reaches
       a poll point, so a process-directed signal the kernel happens to
       hand to it can sit recorded with its OCaml handler never running —
       observed as a dropped Ctrl-C/SIGTERM. Blocking the pair here makes
       the kernel deliver to a thread that does poll (the caller, restored
       below, or a connection/select loop). *)
    let blocked = [ Sys.sigint; Sys.sigterm ] in
    let prev =
      try Some (Unix.sigprocmask Unix.SIG_BLOCK blocked)
      with Invalid_argument _ | Unix.Unix_error _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        match prev with
        | Some mask -> ignore (Unix.sigprocmask Unix.SIG_SETMASK mask)
        | None -> ())
      (fun () ->
        pool.workers <-
          Array.init jobs (fun i ->
              Domain.spawn (fun () -> worker_loop ~sized:false pool i)))
  end;
  pool

(* ---- The streaming API ------------------------------------------------------ *)

type 'a stream = {
  st_pool : t;
  st_sq : sq;
  st_results : (int, ('a, exn * Printexc.raw_backtrace) result) Hashtbl.t;
      (** completed, not yet collected; guarded by the pool lock *)
  mutable st_next_id : int;
}

(** Open a submission stream on the pool. Streams are lightweight — a
    service opens one per search. [on_wait]
    (optional) receives every task's queue latency in seconds (enqueue to
    worker dequeue); it runs on the dequeuing worker, so it must be
    thread-safe and cheap. *)
let stream ?on_wait pool =
  {
    st_pool = pool;
    st_sq =
      {
        sq_tasks = Queue.create ();
        sq_on_wait = on_wait;
        sq_queued = false;
        sq_running = 0;
      };
    st_results = Hashtbl.create 32;
    st_next_id = 0;
  }

(** Submit one task; returns its id immediately (workers complete tasks out
    of order — collect with {!await}/{!take}). On a pool with no workers
    ([jobs <= 1], or shut down) the task runs inline here, on the caller,
    before [submit] returns: exceptions are captured into the result exactly
    as a worker would, so the failure surface is identical across pool
    shapes. *)
let submit st f =
  let pool = st.st_pool in
  let id = st.st_next_id in
  st.st_next_id <- id + 1;
  let run () =
    let r =
      try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock pool.lock;
    Hashtbl.replace st.st_results id r;
    st.st_sq.sq_running <- st.st_sq.sq_running - 1;
    Condition.broadcast pool.result_ready;
    Mutex.unlock pool.lock
  in
  if Array.length pool.workers = 0 then begin
    (match st.st_sq.sq_on_wait with Some cb -> cb 0. | None -> ());
    let t0 = Obs.Clock.now_ns () in
    st.st_sq.sq_running <- st.st_sq.sq_running + 1;
    run ();
    add_busy pool 0 (Int64.sub (Obs.Clock.now_ns ()) t0)
  end
  else begin
    Mutex.lock pool.lock;
    Queue.add (Obs.Clock.now_ns (), run) st.st_sq.sq_tasks;
    if not st.st_sq.sq_queued then begin
      st.st_sq.sq_queued <- true;
      pool.rotation <- pool.rotation @ [ st.st_sq ]
    end;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock
  end;
  id

(** Non-blocking probe: collect task [id]'s result if it has completed
    ([None] = still queued or running). A returned result is consumed —
    asking again returns [None]. *)
let take st id =
  let pool = st.st_pool in
  Mutex.lock pool.lock;
  let r = Hashtbl.find_opt st.st_results id in
  if r <> None then Hashtbl.remove st.st_results id;
  Mutex.unlock pool.lock;
  r

(** Blocking collect of task [id]'s result, as a [result] (the [Error]
    carries the task's exception and its backtrace). Consumes the result. *)
let await_result st id =
  let pool = st.st_pool in
  Mutex.lock pool.lock;
  while not (Hashtbl.mem st.st_results id) do
    Condition.wait pool.result_ready pool.lock
  done;
  let r = Hashtbl.find st.st_results id in
  Hashtbl.remove st.st_results id;
  Mutex.unlock pool.lock;
  r

(** Blocking collect of task [id]: returns its value or re-raises its
    exception (with the original backtrace). Consumes the result. *)
let await st id =
  match await_result st id with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(** Completed-but-uncollected results parked in the stream — the engine's
    commit-queue depth gauge. *)
let completed st =
  let pool = st.st_pool in
  Mutex.lock pool.lock;
  let n = Hashtbl.length st.st_results in
  Mutex.unlock pool.lock;
  n

(** Tasks of [st] not yet completed (queued or running on a worker). *)
let in_flight st =
  let pool = st.st_pool in
  Mutex.lock pool.lock;
  let n = Queue.length st.st_sq.sq_tasks + st.st_sq.sq_running in
  Mutex.unlock pool.lock;
  n

(** Tasks queued across all streams, waiting for a worker — the daemon's
    point-granular queue depth. *)
let queued pool =
  Mutex.lock pool.lock;
  let n =
    List.fold_left (fun acc sq -> acc + Queue.length sq.sq_tasks) 0 pool.rotation
  in
  Mutex.unlock pool.lock;
  n

(* ---- Utilization telemetry ------------------------------------------------- *)

(** Seconds since the pool was created. *)
let lifetime_s pool = Obs.Clock.since_s pool.created_ns

(** Per-worker cumulative busy seconds, [(worker index, busy_s)]. With
    [jobs <= 1] there is a single slot 0 covering inline execution. *)
let worker_stats pool =
  Array.to_list
    (Array.mapi
       (fun i cell -> (i, Obs.Clock.ns_to_s (Atomic.get cell)))
       pool.busy_ns)

(** Per-worker busy fraction of the pool lifetime so far. Read after the
    tasks of interest complete (and, for exact numbers, before long idle
    tails). *)
let busy_fractions pool =
  let life = Float.max 1e-9 (lifetime_s pool) in
  List.map (fun (i, busy) -> (i, busy /. life)) (worker_stats pool)

(** Shut the pool down: pending tasks are drained, then workers exit and are
    joined. Submitting to a shut-down pool falls back to inline
    execution. *)
let shutdown pool =
  if Array.length pool.workers > 0 then begin
    Mutex.lock pool.lock;
    pool.stopping <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

(** [with_pool ~jobs f] runs [f pool] and shuts the pool down on the way out,
    exceptions included. *)
let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
