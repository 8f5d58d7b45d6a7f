(** The search-quality event log: an append-only JSONL sink for structured,
    per-job timeline events (hypervolume over evaluations, frontier size,
    strategy counters, surrogate calibration). One line per event:

    {v {"ev":"dse.round","seq":12,"ts_s":3.14,"job":"0","explored":48,...} v}

    The sink is process-global (like the metrics registries): {!configure}
    opens the destination in append mode — a serve daemon's log accumulates
    every job it ever ran, and concurrent jobs interleave with each line
    self-identifying via its ["job"] field — and every line is flushed as it
    is written, so a crash loses at most the line being written (append-only
    logs need no tmp+rename dance).

    Disabled cost is one atomic load: {!emit} takes the field list as a
    thunk, evaluated only when a sink is configured. Timestamps are
    monotonic seconds since {!configure} (deltas are meaningful; absolute
    wall-clock is not recorded). *)

let enabled_flag = Atomic.make false
let lock = Mutex.create ()
let sink : out_channel option ref = ref None
let seq = ref 0
let epoch = ref 0L

(** Open [path] (append, created if missing) as the event destination. *)
let configure path =
  Mutex.lock lock;
  (match !sink with Some oc -> (try close_out oc with Sys_error _ -> ()) | None -> ());
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  sink := Some oc;
  seq := 0;
  epoch := Clock.now_ns ();
  Atomic.set enabled_flag true;
  Mutex.unlock lock

(** Flush and close the sink; {!emit} becomes a no-op again. *)
let close () =
  Atomic.set enabled_flag false;
  Mutex.lock lock;
  (match !sink with Some oc -> (try close_out oc with Sys_error _ -> ()) | None -> ());
  sink := None;
  Mutex.unlock lock

(** [emit ev fields] appends one event line; [fields] is a thunk so callers
    pay nothing to build the payload when no sink is configured. Safe from
    any thread (serialized on the sink lock). *)
let emit ev fields =
  if Atomic.get enabled_flag then begin
    let fields = fields () in
    Mutex.lock lock;
    (match !sink with
    | Some oc ->
        let s = !seq in
        seq := s + 1;
        let row =
          Json.Obj
            (("ev", Json.String ev)
            :: ("seq", Json.Int s)
            :: ("ts_s", Json.Float (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) !epoch)))
            :: fields)
        in
        (try
           output_string oc (Json.to_string row);
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ())
    | None -> ());
    Mutex.unlock lock
  end
