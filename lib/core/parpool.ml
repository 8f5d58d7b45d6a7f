(** A reusable fixed-size pool of domains for data-parallel point evaluation
    (stdlib [Domain]/[Mutex]/[Condition] only).

    [create ~jobs] gives [jobs] domains of work. By default the caller is
    one of them: the pool spawns [jobs - 1] worker domains, and a caller
    that waits for a result ({!await}, {!await_result}) runs queued tasks
    itself, blocking only when nothing is queued. A coordinator that admits
    work and waits for results in turn (the DSE engine's) is therefore a
    worker while it waits, not an idle extra domain that every
    stop-the-world collection must still stop. A {e dedicated} pool
    ([~dedicated:true]) spawns all [jobs] workers and, until it is shut
    down, its callers never run a task — for callers that must stay
    responsive, such as a daemon whose connection threads share the main
    domain.

    Clients use one streaming API: {!stream} opens a submission stream,
    {!submit} enqueues one task and returns its id immediately, domains
    complete tasks {e out of order}, and {!await} ({!take} for the
    non-blocking probe) collects one result by id, a task's exception
    included. Nothing synchronizes the stream as a whole — a caller that
    keeps submitting while collecting turns the pool into a
    continuously-fed pipeline with no batch barrier; a caller that needs
    results in submission order awaits them in that order.

    Tasks are dequeued in {e chains}: a task submitted with [~after:id],
    where [id] is the newest task of a chain that is still queued or
    running, joins that chain, and a domain that dequeues a chain runs its
    tasks back to back in submission order. Tasks that share expensive
    state (the DSE engine's II-ladder siblings, which share one transformed
    module) thus run on one domain instead of blocking on each other. A
    task that raises stores its error in its own result and the chain keeps
    going. A dedicated pool ignores [~after]: every task is its own chain.

    Domains dequeue round-robin {e across} streams that have queued chains:
    every dequeue serves the next stream in rotation, so [k] concurrent
    streams (e.g. [k] searches sharing a daemon's dedicated pool) interleave
    fairly at single-task granularity — a stream with 100 queued tasks
    cannot starve a stream with 2. Per-task queue latency (submission to
    start) is reported through the stream's [on_wait] callback, which runs
    on the domain that runs the task and must therefore be thread-safe.

    A default [jobs = 1] pool spawns no domain: its caller runs each task
    when it awaits one, on the path every caller takes, so II-ladder
    siblings run back to back there as well. A shut-down pool has no
    workers left, so its callers, a dedicated pool's included, run the
    tasks they await.

    Every task execution is timed (monotonic clock) into a per-domain busy
    counter; {!worker_stats} and {!busy_fractions} expose utilization over
    the pool's lifetime, one slot per domain of work. Slot 0 is the
    caller's (the tasks it ran while waiting); spawned workers take the
    rest. On a dedicated pool the workers take every slot, and the tasks
    its caller runs after shutdown count to slot 0.

    Each spawned worker enlarges its own minor heap to
    {!worker_minor_heap_words} just before its first task. In OCaml 5 a
    full minor heap in any domain stops every domain for a minor
    collection, and a new domain starts at the runtime's 256 k-word
    default, so point evaluation (which allocates heavily) turned a
    2-worker pool into a stream of stop-the-world pauses. [Gc.set] acts per
    domain: the caller keeps its own settings, also for the tasks it runs,
    and a pool that spawns no worker changes nothing. Resizing is itself a
    stop-the-world collection (0.5-7 ms each on a loaded 2-vCPU host), so
    it waits for the first task: a pool that never gets work never pays it,
    and creating a pool stays as cheap as spawning its domains.

    Tasks must not themselves submit to or wait on the same pool. *)

(* One submitted task: its submission time and the closure that runs it
   and stores its result. *)
type job = { enq_ns : int64; run : unit -> unit }

(* Tasks that run back to back on the domain that dequeues them. *)
type chain = {
  c_jobs : job Queue.t;  (** not yet started *)
  mutable c_tail : int;  (** id of the newest task, the handle [~after] names *)
}

(* One stream's domain-facing half: the monomorphic chain queue the pool's
   round-robin rotation serves. The typed result plumbing is captured inside
   the queued closures. *)
type sq = {
  sq_chains : chain Queue.t;  (** chains waiting for a domain *)
  sq_open : (int, chain) Hashtbl.t;
      (** queued or running chains, by the id of their newest task *)
  sq_on_wait : (float -> unit) option;
  mutable sq_queued : bool;  (** currently registered in the rotation *)
}

type t = {
  jobs : int;
  dedicated : bool;
  lock : Mutex.t;
  work_available : Condition.t;
  result_ready : Condition.t;
      (** signalled whenever any stream's task completes *)
  mutable rotation : sq list;
      (** round-robin rotation; invariant: every listed stream has a
          queued chain *)
  mutable pending : int;  (** tasks submitted to domains, not yet started *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  busy_ns : int64 Atomic.t array;  (** per-domain cumulative task time *)
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

(* Pop the next chain in stream rotation order. Caller holds the lock. The
   served stream moves to the back of the rotation (or leaves it when
   emptied), so successive dequeues visit streams fairly regardless of how
   many chains each has queued. *)
let dequeue pool =
  match pool.rotation with
  | [] -> None
  | sq :: rest ->
      let chain = Queue.pop sq.sq_chains in
      if Queue.is_empty sq.sq_chains then begin
        sq.sq_queued <- false;
        pool.rotation <- rest
      end
      else pool.rotation <- rest @ [ sq ];
      Some (sq, chain)

(* Run a dequeued chain's tasks in order, timing each into [slot], until
   the chain is empty; it then closes, and later [~after] submissions start
   a chain of their own. Called without the lock. *)
let run_chain pool slot sq chain =
  let rec next () =
    Mutex.lock pool.lock;
    match Queue.take_opt chain.c_jobs with
    | None ->
        Hashtbl.remove sq.sq_open chain.c_tail;
        Mutex.unlock pool.lock
    | Some job ->
        pool.pending <- pool.pending - 1;
        Mutex.unlock pool.lock;
        let t0 = Obs.Clock.now_ns () in
        (match sq.sq_on_wait with
        | Some cb -> cb (Obs.Clock.ns_to_s (Int64.sub t0 job.enq_ns))
        | None -> ());
        job.run ();
        add_busy pool slot (Int64.sub (Obs.Clock.now_ns ()) t0);
        next ()
  in
  next ()

(** Minor-heap size, in words, of every spawned worker domain: 1 M words
    (8 MB on 64-bit). Chosen by a sweep of the benchmark's [kernels-j2]
    workload on a 2-vCPU host (median [wall_s] of five 10 s runs), taken
    when that pool ran 2 spawned workers beside a blocked coordinator:
    256 k words (the default) 2.43 s, 512 k 2.01 s, 1 M 1.91 s, 2 M 2.25 s,
    4 M 2.42 s. Larger heaps collect less often but lose cache locality.
    It has not been swept again since the caller became one of the two
    domains. *)
let worker_minor_heap_words = 1 lsl 20

(* [sized]: this worker has set its minor heap (see the header). *)
let rec worker_loop ~sized pool slot =
  Mutex.lock pool.lock;
  while pool.rotation = [] && not pool.stopping do
    Condition.wait pool.work_available pool.lock
  done;
  match dequeue pool with
  | None -> Mutex.unlock pool.lock (* stopping: exit *)
  | Some (sq, chain) ->
      Mutex.unlock pool.lock;
      if not sized then
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
      run_chain pool slot sq chain;
      worker_loop ~sized:true pool slot

(** [create ~jobs ()] builds a pool of [jobs] domains of work: the caller
    plus [jobs - 1] spawned workers, or [jobs] spawned workers with
    [~dedicated:true] (see the header). [jobs <= 0] means "one per core"
    ([Domain.recommended_domain_count]); a default [jobs = 1] pool spawns
    nothing. *)
let create ?(jobs = 1) ?(dedicated = false) () =
  let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  let pool =
    {
      jobs;
      dedicated;
      lock = Mutex.create ();
      work_available = Condition.create ();
      result_ready = Condition.create ();
      rotation = [];
      pending = 0;
      stopping = false;
      workers = [||];
      busy_ns = Array.init (max 1 jobs) (fun _ -> Atomic.make 0L);
      created_ns = Obs.Clock.now_ns ();
    }
  in
  (* Slot 0 is the caller's unless the workers are dedicated. *)
  let first = if dedicated then 0 else 1 in
  if jobs > first then begin
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
          Array.init (jobs - first) (fun i ->
              Domain.spawn (fun () -> worker_loop ~sized:false pool (first + i))))
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
    (optional) receives every task's queue latency in seconds (submission
    to start); it runs on the domain that runs the task, so it must be
    thread-safe and cheap. *)
let stream ?on_wait pool =
  {
    st_pool = pool;
    st_sq =
      {
        sq_chains = Queue.create ();
        sq_open = Hashtbl.create 16;
        sq_on_wait = on_wait;
        sq_queued = false;
      };
    st_results = Hashtbl.create 32;
    st_next_id = 0;
  }

(** Submit one task; returns its id immediately (domains complete tasks out
    of order — collect with {!await}/{!take}). [after] names a task of this
    stream: while that task is the newest of a queued or running chain, the
    new task joins the chain (see the header); otherwise it starts a chain
    of its own. Whichever domain runs the task captures its exception into
    the result. *)
let submit ?after st f =
  let pool = st.st_pool in
  let id = st.st_next_id in
  st.st_next_id <- id + 1;
  let run () =
    let r =
      try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock pool.lock;
    Hashtbl.replace st.st_results id r;
    Condition.broadcast pool.result_ready;
    Mutex.unlock pool.lock
  in
  let sq = st.st_sq in
  let job = { enq_ns = Obs.Clock.now_ns (); run } in
  Mutex.lock pool.lock;
  pool.pending <- pool.pending + 1;
  (match
     if pool.dedicated then None
     else Option.bind after (Hashtbl.find_opt sq.sq_open)
   with
  | Some chain ->
      Queue.add job chain.c_jobs;
      Hashtbl.remove sq.sq_open chain.c_tail;
      chain.c_tail <- id;
      Hashtbl.replace sq.sq_open id chain
  | None ->
      let chain = { c_jobs = Queue.create (); c_tail = id } in
      Queue.add job chain.c_jobs;
      Hashtbl.replace sq.sq_open id chain;
      Queue.add chain sq.sq_chains;
      if not sq.sq_queued then begin
        sq.sq_queued <- true;
        pool.rotation <- pool.rotation @ [ sq ]
      end;
      Condition.broadcast pool.work_available);
  Mutex.unlock pool.lock;
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
    carries the task's exception and its backtrace). Consumes the result.
    Until the result is there, the caller runs queued chains of any stream
    itself (into slot 0), and blocks only when nothing is queued; a
    dedicated pool's caller only blocks, until {!shutdown}. *)
let await_result st id =
  let pool = st.st_pool in
  Mutex.lock pool.lock;
  let rec loop () =
    match Hashtbl.find_opt st.st_results id with
    | Some r ->
        Hashtbl.remove st.st_results id;
        Mutex.unlock pool.lock;
        r
    | None ->
        (match
           if pool.dedicated && not pool.stopping then None else dequeue pool
         with
        | Some (sq, chain) ->
            Mutex.unlock pool.lock;
            run_chain pool 0 sq chain;
            Mutex.lock pool.lock
        | None -> Condition.wait pool.result_ready pool.lock);
        loop ()
  in
  loop ()

(** Blocking collect of task [id]: returns its value or re-raises its
    exception (with the original backtrace). Consumes the result. Runs
    queued tasks while it waits, as {!await_result}. *)
let await st id =
  match await_result st id with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(** Tasks submitted across all streams that have not started yet — the
    daemon's point-granular queue depth. *)
let queued pool =
  Mutex.lock pool.lock;
  let n = pool.pending in
  Mutex.unlock pool.lock;
  n

(* ---- Utilization telemetry ------------------------------------------------- *)

(** Seconds since the pool was created. *)
let lifetime_s pool = Obs.Clock.since_s pool.created_ns

(** Per-domain cumulative busy seconds, [(slot, busy_s)], one slot per
    domain of work (see the header). *)
let worker_stats pool =
  Array.to_list
    (Array.mapi
       (fun i cell -> (i, Obs.Clock.ns_to_s (Atomic.get cell)))
       pool.busy_ns)

(** Per-domain busy fraction of the pool lifetime so far. Read after the
    tasks of interest complete (and, for exact numbers, before long idle
    tails). *)
let busy_fractions pool =
  let life = Float.max 1e-9 (lifetime_s pool) in
  List.map (fun (i, busy) -> (i, busy /. life)) (worker_stats pool)

(** Shut the pool down: pending tasks are drained, then workers exit and are
    joined. Tasks submitted afterwards run on the callers that await
    them. *)
let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(** [with_pool ~jobs f] runs [f pool] and shuts the pool down on the way out,
    exceptions included. *)
let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
