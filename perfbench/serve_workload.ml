(** [serve-mixed]: an in-process [Serve.Server] (2 worker domains, a store
    file in the checkout) driven by 2 closed-loop client connections. One
    rep is three phases:

    - fill: both connections search half of the fill designs each into an
      empty store, then checkpoint; the server shuts down;
    - restart: a new server loads the store and answers a [ping];
    - mixed: connection B runs the cold searches while connection A sends
      warm repeats of fill designs, chosen by the seed, until B is done.

    Warm requests replay from the store's evaluation cache, so they cost
    protocol and cache reads but no estimation or cleanup; the cold
    searches contend with them for the server. *)

module Json = Obs.Json
module C = Serve_client

let min_warm = 20

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type rep = {
  fill_s : float;
  restart_s : float;
  mixed_s : float;
  warm : float list;  (** client-side latency of every warm request *)
  fill_replies : (Search.design * C.reply) list;
  cold_replies : (Search.design * C.reply) list;
}

(* One connection's closed loop over [designs]; replies are collected
   under [lock]. *)
let client_loop ~tally ~seed ~what ~lock ~into designs () =
  try
    C.with_conn (fun c ->
        List.iter
          (fun d ->
            match
              Tally.guard tally (what ^ " " ^ Search.label d) (fun () -> C.search c ~seed d)
            with
            | Some r ->
                Mutex.lock lock;
                into := (d, r) :: !into;
                Mutex.unlock lock
            | None -> ())
          designs)
  with e -> Tally.fail tally (what ^ " connection: " ^ Printexc.to_string e)

let rep ~tally ~seed ~fill ~cold =
  if Sys.file_exists C.store_path then Sys.remove C.store_path;
  let rng = Random.State.make [| seed |] in
  let lock = Mutex.create () in
  let fill_replies = ref [] in
  let order = shuffle rng fill in
  let half k = List.filteri (fun i _ -> i mod 2 = k) order in
  let fill_s =
    C.with_server (fun () ->
        let t0 = Obs.Clock.now_ns () in
        let loop k = client_loop ~tally ~seed ~what:"fill" ~lock ~into:fill_replies (half k) in
        let ta = Thread.create (loop 0) () and tb = Thread.create (loop 1) () in
        Thread.join ta;
        Thread.join tb;
        ignore
          (Tally.guard tally "checkpoint" (fun () ->
               C.with_conn (fun c -> C.call c (C.simple "checkpoint"))));
        Obs.Clock.since_s t0)
  in
  let fill_replies = !fill_replies in
  let cold_order = shuffle rng cold in
  (* The restart: a server on the filled store, from its creation (the
     store load) to its first pong on connection A. *)
  let t0 = Obs.Clock.now_ns () in
  C.with_server @@ fun () ->
  C.with_conn @@ fun a ->
  let pong, _ = C.call a (C.simple "ping") in
  let restart_s = Obs.Clock.since_s t0 in
  Tally.expect tally ~what:"restart ping" (Some (Json.String "pong")) (Json.member "resp" pong);
  let t1 = Obs.Clock.now_ns () in
  let b_done = Atomic.make false and cold_replies = ref [] in
  let tb =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set b_done true)
          (client_loop ~tally ~seed ~what:"cold" ~lock ~into:cold_replies cold_order))
      ()
  in
  let fill_arr = Array.of_list fill in
  let warm = ref [] and n_warm = ref 0 and broken = ref false in
  while (not !broken) && ((not (Atomic.get b_done)) || !n_warm < min_warm) do
    let d = fill_arr.(Random.State.int rng (Array.length fill_arr)) in
    match Tally.guard tally ("warm " ^ Search.label d) (fun () -> C.search a ~seed d) with
    | Some r -> (
        (* The reply's cache counters are deltas of a cache the concurrent
           cold searches also use, so warmth is checked by the frontier
           alone here; the traced run measures the hit rate undisturbed. *)
        warm := r.latency :: !warm;
        incr n_warm;
        match List.assoc_opt d fill_replies with
        | Some f ->
            Tally.expect tally ~what:(Search.label d ^ " frontier, warm vs fill") f.frontier r.frontier
        | None -> ())
    | None -> broken := true
  done;
  Thread.join tb;
  let mixed_s = Obs.Clock.since_s t1 in
  { fill_s; restart_s; mixed_s; warm = !warm; fill_replies; cold_replies = !cold_replies }

let run ~tally ~seed ~reps:n_reps ~after_rep ~fill ~cold =
  let reps =
    List.init n_reps (fun r ->
        Gc.full_major ();
        let seed = Search.rep_seed ~seed r in
        let x = rep ~tally ~seed ~fill ~cold in
        after_rep r;
        (seed, x))
  in
  (* ---- Checks, outside the timed region ---- *)
  (* The synthesized latency of every best design of rep [i]; the first
     rep's results are also checked against the golden file and against
     their source. *)
  let best_cycles i (seed, r) =
    List.filter_map
      (fun (d, (x : C.reply)) ->
        if i = 0 then Golden.check tally ~seed d x.frontier;
        match x.best with
        | None ->
            Tally.fail tally (Search.label d ^ ": no feasible best point");
            None
        | Some pt ->
            Option.map
              (fun m ->
                if i = 0 then Tally.check tally (Search.check_semantics ~seed d m);
                float_of_int (Vhls.Synth.latency (Vhls.Synth.synthesize m ~top:(Search.top d))))
              (Tally.guard tally (Search.label d ^ " best module") (fun () ->
                   Search.module_of_point d pt)))
      (r.fill_replies @ r.cold_replies)
  in
  let cycles = List.concat (List.mapi best_cycles reps) in
  let reps = List.map snd reps in
  let warm = List.concat_map (fun r -> r.warm) reps in
  let mixed = List.map (fun r -> r.mixed_s) reps in
  let metrics =
    [
      ("wall_s", Stats.median (List.map (fun r -> r.fill_s +. r.mixed_s) reps));
      ("op_p95_ms", 1e3 *. Stats.quantile 0.95 warm);
      ("ops_per_s", float_of_int (List.length warm) /. Stats.sum mixed);
      ("best_cycles_geomean", Stats.geomean cycles);
    ]
  in
  let per_rep f = Results.floats (List.map f reps) in
  let raw =
    [
      ("warm_p50_ms", Json.Float (1e3 *. Stats.quantile 0.5 warm));
      ("peak_heap_mb", Json.Float (Results.peak_heap_mb ()));
      ("restart_s", per_rep (fun r -> r.restart_s));
      ("fill_s", per_rep (fun r -> r.fill_s));
      ("mixed_s", per_rep (fun r -> r.mixed_s));
      ("warm_requests", Json.List (List.map (fun r -> Json.Int (List.length r.warm)) reps));
      ( "cold_latency_s",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 (List.map
                    (fun (d, (x : C.reply)) -> (Search.label d, Json.Float x.latency))
                    r.cold_replies))
             reps) );
    ]
  in
  (metrics, raw)
