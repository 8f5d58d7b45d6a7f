(** The span tracer. Spans, instants, and counter samples are recorded into
    per-domain buffers — each domain appends to its own buffer without taking
    any lock (the global mutex is touched once per domain, at buffer
    registration) — and merged deterministically at flush: events sort by
    (timestamp, domain id, per-domain sequence number), so two flushes of the
    same buffers agree, and the per-domain sequence keeps the order total even
    when the clock ties.

    Each per-domain buffer is a bounded ring: once it holds {!cap} events the
    oldest are overwritten and counted in {!dropped_spans} (exported as the
    [trace/dropped_spans] counter), so a long-lived daemon can trace forever
    in constant memory. The cap is {!default_cap} events per domain, unless
    {!set_cap} changes it.

    Tracing is off by default; {!with_span} is a single [Atomic.get] away from
    a plain call in that state, which is what keeps the instrumented hot paths
    within noise of the uninstrumented ones. When enabled, events accumulate
    until {!write_chrome} (Chrome [trace_event] JSON, loadable in
    [chrome://tracing] and Perfetto) or {!events} drains them.

    Flushing is meant to happen after parallel sections complete (worker
    domains joined, e.g. after [Parpool.with_pool] returns): the join gives
    the happens-before edge that makes worker buffers safe to read. *)

type phase = Complete | Instant | Counter

type event = {
  phase : phase;
  name : string;
  cat : string;
  ts : int64;  (** ns since the trace epoch ({!enable}) *)
  dur : int64;  (** ns; meaningful for [Complete] only *)
  tid : int;  (** recording domain's id *)
  seq : int;  (** per-domain sequence number (merge tie-break) *)
  args : (string * Json.t) list;
}

let dummy_event =
  { phase = Instant; name = ""; cat = ""; ts = 0L; dur = 0L; tid = 0; seq = 0; args = [] }

type buffer = {
  b_tid : int;
  b_gen : int;
  b_cap : int;
  mutable b_seq : int;
  mutable b_ring : event array;  (** grows by doubling up to [b_cap], then wraps *)
  mutable b_len : int;  (** live events in the ring *)
  mutable b_head : int;  (** next write slot (== oldest once wrapped) *)
}

let default_cap = 262_144

let cap_ref = Atomic.make default_cap

(** Per-domain event capacity for buffers created after the call (tests).
    Follow with {!reset} so existing buffers are re-created under the new
    cap. *)
let set_cap n = Atomic.set cap_ref (max 1 n)

let cap () = Atomic.get cap_ref

(* Spans overwritten after their ring filled, across all buffers ever (a
   monotonic total; also mirrored into the [trace] metrics registry by a
   collector so it reaches every exporter). *)
let dropped_total = Atomic.make 0

let dropped_spans () = Atomic.get dropped_total

let () =
  Metrics.register_collector (fun () ->
      Metrics.counter_set
        (Metrics.counter (Metrics.registry "trace") "dropped_spans")
        (float_of_int (Atomic.get dropped_total)))

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let epoch = Atomic.make 0L
let main_tid = Atomic.make (-1)
let lock = Mutex.create ()
let buffers : buffer list ref = ref []

(* Events injected from another process (a serve daemon streaming a job's
   spans back to its client); carried through to {!to_chrome} verbatim under
   their own pid. *)
let external_events : Json.t list ref = ref []

let dls_key : buffer option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let enabled () = Atomic.get enabled_flag

(* The calling domain's buffer, registering it on first use (or after a
   {!reset} invalidated the cached one). *)
let buffer () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some b when b.b_gen = Atomic.get generation -> b
  | _ ->
      let cap = Atomic.get cap_ref in
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_gen = Atomic.get generation;
          b_cap = cap;
          b_seq = 0;
          b_ring = Array.make (min 1024 cap) dummy_event;
          b_len = 0;
          b_head = 0;
        }
      in
      Mutex.lock lock;
      buffers := b :: !buffers;
      Mutex.unlock lock;
      cell := Some b;
      b

let next_seq b =
  let s = b.b_seq in
  b.b_seq <- s + 1;
  s

let rec emit b e =
  let size = Array.length b.b_ring in
  if b.b_len < size then begin
    b.b_ring.(b.b_head) <- e;
    b.b_head <- (b.b_head + 1) mod size;
    b.b_len <- b.b_len + 1
  end
  else if size < b.b_cap then begin
    (* Grow by doubling toward the cap; the ring is full, so it is in
       chronological order starting at [b_head]. *)
    let size' = min b.b_cap (size * 2) in
    let ring' = Array.make size' dummy_event in
    for i = 0 to b.b_len - 1 do
      ring'.(i) <- b.b_ring.((b.b_head + i) mod size)
    done;
    b.b_ring <- ring';
    b.b_head <- b.b_len;
    emit_grown b e
  end
  else begin
    (* At cap: overwrite the oldest event and account for the drop. *)
    b.b_ring.(b.b_head) <- e;
    b.b_head <- (b.b_head + 1) mod size;
    Atomic.incr dropped_total
  end

and emit_grown b e =
  b.b_ring.(b.b_head) <- e;
  b.b_head <- (b.b_head + 1) mod Array.length b.b_ring;
  b.b_len <- b.b_len + 1

let rel ns = Int64.sub ns (Atomic.get epoch)

(** Start a fresh trace: drop all recorded events (local and external) and
    invalidate every domain's cached buffer. *)
let reset () =
  Mutex.lock lock;
  Atomic.incr generation;
  buffers := [];
  external_events := [];
  Mutex.unlock lock

(** Turn recording on; the current instant becomes timestamp 0. *)
let enable () =
  Atomic.set epoch (Clock.now_ns ());
  Atomic.set main_tid (Domain.self () :> int);
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(** [with_span_args name f] runs [f] inside a span. [f] returns the value
    plus extra span arguments computed during the run (IR statistics, cache
    outcomes, ...); with tracing disabled those extras are dropped — guard
    any expensive computation of them behind {!enabled}. An escaping
    exception still closes the span, tagged with an ["error"] argument. *)
let with_span_args ?(cat = "") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then fst (f ())
  else begin
    let b = buffer () in
    let t0 = Clock.now_ns () in
    let finish extra =
      let t1 = Clock.now_ns () in
      emit b
        {
          phase = Complete;
          name;
          cat;
          ts = rel t0;
          dur = Int64.sub t1 t0;
          tid = b.b_tid;
          seq = next_seq b;
          args = args @ extra;
        }
    in
    match f () with
    | v, extra ->
        finish extra;
        v
    | exception e ->
        finish [ ("error", Json.String (Printexc.to_string e)) ];
        raise e
  end

let with_span ?cat ?args name f = with_span_args ?cat ?args name (fun () -> (f (), []))

(** A zero-duration marker. *)
let instant ?(cat = "") ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    emit b
      {
        phase = Instant;
        name;
        cat;
        ts = rel (Clock.now_ns ());
        dur = 0L;
        tid = b.b_tid;
        seq = next_seq b;
        args;
      }
  end

(** A counter sample (Chrome renders these as stacked time series — used for
    e.g. the DSE frontier-size evolution). *)
let counter ?(cat = "") name values =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    emit b
      {
        phase = Counter;
        name;
        cat;
        ts = rel (Clock.now_ns ());
        dur = 0L;
        tid = b.b_tid;
        seq = next_seq b;
        args = List.map (fun (k, v) -> (k, Json.Float v)) values;
      }
  end

(* A buffer's live events in chronological (emission) order. *)
let buffer_events b =
  let size = Array.length b.b_ring in
  let start = if b.b_len < size then 0 else b.b_head in
  List.init b.b_len (fun i -> b.b_ring.((start + i) mod size))

(** All recorded events, merged across domains into the deterministic order
    (timestamp, domain, sequence). Call after worker domains are joined. *)
let events () =
  Mutex.lock lock;
  let bufs = !buffers in
  Mutex.unlock lock;
  let all = List.concat_map buffer_events bufs in
  List.sort
    (fun a b ->
      match Int64.compare a.ts b.ts with
      | 0 -> ( match compare a.tid b.tid with 0 -> compare a.seq b.seq | c -> c)
      | c -> c)
    all

(* ---- Chrome trace_event export ------------------------------------------- *)

let phase_str = function Complete -> "X" | Instant -> "i" | Counter -> "C"

let event_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String (if e.cat = "" then "default" else e.cat));
      ("ph", Json.String (phase_str e.phase));
      ("ts", Json.Float (Clock.ns_to_us e.ts));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
    ]
  in
  let dur =
    match e.phase with
    | Complete -> [ ("dur", Json.Float (Clock.ns_to_us e.dur)) ]
    | _ -> []
  in
  let scope = match e.phase with Instant -> [ ("s", Json.String "t") ] | _ -> [] in
  let args = match e.args with [] -> [] | l -> [ ("args", Json.Obj l) ] in
  Json.Obj (base @ dur @ scope @ args)

(** Inject Chrome-format event objects recorded by another process (the
    serve daemon's spans for a remote job): {!to_chrome} includes them under
    pid 2 so the viewer shows the daemon as its own process row next to the
    client's. *)
let add_external evs =
  let repid = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function "pid", _ -> ("pid", Json.Int 2) | kv -> kv)
             fields)
    | j -> j
  in
  let evs = List.map repid evs in
  Mutex.lock lock;
  external_events := !external_events @ evs;
  Mutex.unlock lock

(** The whole trace as a Chrome [trace_event] JSON object, with thread-name
    metadata naming the coordinator and worker-domain lanes (and, when
    external events were merged in, process-name metadata separating this
    process from the remote daemon). *)
let to_chrome () =
  let evs = events () in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.tid) evs)
  in
  let main = Atomic.get main_tid in
  let meta =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                [
                  ( "name",
                    Json.String
                      (if tid = main then "coordinator"
                       else Printf.sprintf "worker domain %d" tid) );
                ] );
          ])
      tids
  in
  Mutex.lock lock;
  let externals = !external_events in
  Mutex.unlock lock;
  let proc_meta =
    if externals = [] then []
    else
      List.map
        (fun (pid, name) ->
          Json.Obj
            [
              ("name", Json.String "process_name");
              ("ph", Json.String "M");
              ("pid", Json.Int pid);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("name", Json.String name) ]);
            ])
        [ (1, "client"); (2, "scalehls-serve") ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (proc_meta @ meta @ List.map event_json evs @ externals) );
      ("displayTimeUnit", Json.String "ms");
    ]

(** Write the Chrome trace JSON to [path]; atomic (tmp + rename), so a crash
    mid-flush never leaves a truncated trace. *)
let write_chrome path =
  let json = to_chrome () in
  Metrics.write_atomic path (fun oc -> output_string oc (Json.to_string json))
