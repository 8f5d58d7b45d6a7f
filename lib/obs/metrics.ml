(** Typed metrics in named registries: monotonic counters, gauges and
    log-bucketed histograms. Counters and gauges are lock-free (a CAS loop
    over an [Atomic] cell) and safe to bump from any domain; histogram
    observations serialize on a per-instrument mutex (observations are rare
    relative to the work they measure). A rate is derived at scrape time
    from a counter or a histogram's [_count].
    Instruments are get-or-create by (registry, name, labels) — looking the
    same series up twice returns the same cell, so modules can re-resolve
    instruments without threading handles around.

    Unlike tracing, metrics are always on: an increment is a few nanoseconds,
    and the cells only turn into output when an exporter ({!write_jsonl},
    {!to_prometheus}, {!pp_summary}) is asked for them.

    Naming scheme (shared by every subsystem and documented in the README):
    the registry is the subsystem ([dse], [serve], [fuzz], [trace]) and the
    metric name is dot-separated within it ([eval_cache.hits]); dimensions
    that would otherwise be encoded in the name ([worker.3.busy]) are labels
    instead ([worker.busy_fraction{worker="3"}]). The Prometheus exposition
    renders the pair as [scalehls_<registry>_<metric>] with dots mapped to
    underscores. *)

type counter = { c_v : float Atomic.t }
type gauge = { g_v : float Atomic.t }

(* Log-spaced histogram buckets: bucket [i] (0-based) has the inclusive
   upper bound [bucket_lo * 2^i]; the last bucket is the +infinity overflow.
   The span 1e-6 .. ~5.5e5 covers microseconds to days when observations are
   seconds, which every histogram in this codebase is. Doubling bounds keep
   interpolated quantiles within a factor of two of the truth everywhere,
   which is all a scrape-side latency quantile needs. *)
let num_buckets = 40
let bucket_lo = 1e-6

let bucket_bound i =
  if i >= num_buckets - 1 then Float.infinity
  else bucket_lo *. Float.pow 2. (float_of_int i)

(* First bucket whose upper bound is >= v (linear scan: observations are
   rare, and the scan is exact on the boundaries where a log/floor computation
   would be at the mercy of rounding). *)
let bucket_index v =
  let rec go i =
    if i >= num_buckets - 1 then num_buckets - 1
    else if v <= bucket_bound i then i
    else go (i + 1)
  in
  go 0

type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (** per-bucket counts (not cumulative) *)
}

type instrument = C of counter | G of gauge | H of histogram

(* A series key: metric name plus its (sorted, canonical) label set. *)
type series = { s_name : string; s_labels : (string * string) list }

type registry = {
  r_name : string;
  r_lock : Mutex.t;
  mutable r_items : (series * instrument) list;  (** insertion order, newest first *)
}

let registries_lock = Mutex.create ()
let all_registries : registry list ref = ref []

(* Collectors are pull hooks run once per export: components that own
   derived state (queue depths, cache sizes, ages) register a callback that
   refreshes their gauges, so a scrape always sees current values without
   the component polling on its own. Registration survives {!reset} — the
   component outlives test-isolation resets; its gauges are simply
   re-created in the fresh registry on the next export. *)
let collectors_lock = Mutex.create ()
let collectors : (unit -> unit) list ref = ref []

let register_collector f =
  Mutex.lock collectors_lock;
  collectors := f :: !collectors;
  Mutex.unlock collectors_lock

(** Remove a collector registered with {!register_collector}, found by
    physical identity — a component that stops must drop its hook, or the
    hook keeps the component reachable for the rest of the process. *)
let unregister_collector f =
  Mutex.lock collectors_lock;
  collectors := List.filter (fun g -> g != f) !collectors;
  Mutex.unlock collectors_lock

let collect () =
  Mutex.lock collectors_lock;
  let fs = List.rev !collectors in
  Mutex.unlock collectors_lock;
  List.iter (fun f -> try f () with _ -> ()) fs

(** The registry named [name], created on first use. *)
let registry name =
  Mutex.lock registries_lock;
  let r =
    match List.find_opt (fun r -> r.r_name = name) !all_registries with
    | Some r -> r
    | None ->
        let r = { r_name = name; r_lock = Mutex.create (); r_items = [] } in
        all_registries := r :: !all_registries;
        r
  in
  Mutex.unlock registries_lock;
  r

let registries () =
  Mutex.lock registries_lock;
  let rs = !all_registries in
  Mutex.unlock registries_lock;
  List.sort (fun a b -> compare a.r_name b.r_name) rs

(** Drop every registry (test isolation; running instruments handed out
    earlier keep working but are no longer exported). Registered collectors
    persist — they repopulate the fresh registries at the next export. *)
let reset () =
  Mutex.lock registries_lock;
  all_registries := [];
  Mutex.unlock registries_lock

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare (a : string) b) labels

let find_or_make r name labels make classify =
  let key = { s_name = name; s_labels = canon_labels labels } in
  Mutex.lock r.r_lock;
  let i =
    match
      List.find_opt (fun (s, _) -> s.s_name = key.s_name && s.s_labels = key.s_labels) r.r_items
    with
    | Some (_, i) -> i
    | None ->
        let i = make () in
        r.r_items <- (key, i) :: r.r_items;
        i
  in
  Mutex.unlock r.r_lock;
  match classify i with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %s/%s already exists with another type"
           r.r_name name)

let counter ?(labels = []) r name =
  find_or_make r name labels
    (fun () -> C { c_v = Atomic.make 0. })
    (function C c -> Some c | _ -> None)

let gauge ?(labels = []) r name =
  find_or_make r name labels
    (fun () -> G { g_v = Atomic.make 0. })
    (function G g -> Some g | _ -> None)

let histogram ?(labels = []) r name =
  find_or_make r name labels
    (fun () ->
      H
        {
          h_lock = Mutex.create ();
          h_count = 0;
          h_sum = 0.;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          h_buckets = Array.make num_buckets 0;
        })
    (function H h -> Some h | _ -> None)

(* CAS loop: [Atomic.compare_and_set] on the boxed float compares the box we
   just read, so the update is atomic under contention from any number of
   domains. *)
let rec atomic_add cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then atomic_add cell d

let add c d = atomic_add c.c_v d
let incr c = add c 1.
let value c = Atomic.get c.c_v

(** Absolute store into a counter — for collectors that mirror an externally
    accumulated monotonic total (e.g. dropped trace spans) into the registry
    at export time. Not for hot paths: those use {!add}/{!incr}. *)
let counter_set c v = Atomic.set c.c_v v

let set g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

let observe h v =
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  Mutex.unlock h.h_lock;
  ()

let histogram_count h =
  Mutex.lock h.h_lock;
  let c = h.h_count in
  Mutex.unlock h.h_lock;
  c

(** [quantile h q] estimates the [q]-quantile ([0..1]) from the log buckets:
    the bucket holding the rank is found by cumulative count and the value is
    interpolated linearly inside it, then clamped to the observed [min, max]
    (which makes the estimate exact at q=0/q=1 and keeps the overflow bucket
    finite). Returns 0 for an empty histogram. Cross-domain merge is free:
    observations from every domain land in the same mutex-guarded buckets. *)
let quantile h q =
  Mutex.lock h.h_lock;
  let count = h.h_count in
  let buckets = Array.copy h.h_buckets in
  let mn = h.h_min and mx = h.h_max in
  Mutex.unlock h.h_lock;
  if count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int count in
    let rec find i cum =
      if i >= num_buckets - 1 then i
      else
        let cum' = cum + buckets.(i) in
        if float_of_int cum' >= rank && buckets.(i) > 0 then i
        else find (i + 1) cum'
    in
    (* cumulative count strictly before the chosen bucket *)
    let rec before i j acc = if j >= i then acc else before i (j + 1) (acc + buckets.(j)) in
    let i = find 0 0 in
    let lower = if i = 0 then 0. else bucket_bound (i - 1) in
    let upper = if i = num_buckets - 1 then mx else bucket_bound i in
    let in_bucket = buckets.(i) in
    let v =
      if in_bucket = 0 then upper
      else
        let cum0 = float_of_int (before i 0 0) in
        let frac = (rank -. cum0) /. float_of_int in_bucket in
        lower +. (Float.max 0. (Float.min 1. frac) *. (upper -. lower))
    in
    Float.max mn (Float.min mx v)
  end

(* ---- Export --------------------------------------------------------------- *)

let instrument_fields = function
  | C c -> [ ("type", Json.String "counter"); ("value", Json.Float (value c)) ]
  | G g -> [ ("type", Json.String "gauge"); ("value", Json.Float (gauge_value g)) ]
  | H h ->
      Mutex.lock h.h_lock;
      let count = h.h_count and sum = h.h_sum and mn = h.h_min and mx = h.h_max in
      Mutex.unlock h.h_lock;
      [
        ("type", Json.String "histogram");
        ("count", Json.Int count);
        ("sum", Json.Float sum);
        ("min", Json.Float (if count = 0 then 0. else mn));
        ("max", Json.Float (if count = 0 then 0. else mx));
        ("mean", Json.Float (if count = 0 then 0. else sum /. float_of_int count));
        ("p50", Json.Float (quantile h 0.5));
        ("p90", Json.Float (quantile h 0.9));
        ("p99", Json.Float (quantile h 0.99));
      ]

let label_fields s =
  match s.s_labels with
  | [] -> []
  | ls -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]

let items_of r =
  Mutex.lock r.r_lock;
  let items = List.rev r.r_items in
  Mutex.unlock r.r_lock;
  items

(** One JSON object per metric:
    [{"registry": ..., "metric": ..., "type": ..., ...}], metrics in
    registration order within each registry. *)
let rows () =
  collect ();
  List.concat_map
    (fun r ->
      List.map
        (fun (s, i) ->
          Json.Obj
            ([ ("registry", Json.String r.r_name); ("metric", Json.String s.s_name) ]
            @ label_fields s @ instrument_fields i))
        (items_of r))
    (registries ())

let series_key s =
  match s.s_labels with
  | [] -> s.s_name
  | ls ->
      Printf.sprintf "%s{%s}" s.s_name
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls))

(** One JSON object for the whole process: registries keyed by name, each an
    object of its metrics — the shape a status/introspection endpoint
    returns. Nested rather than row-per-metric so consumers can index
    [.dse."eval_cache.hit_rate"] directly; labelled series render their
    labels into the key ([worker.busy_fraction{worker="3"}]). *)
let snapshot () =
  collect ();
  Json.Obj
    (List.map
       (fun r ->
         ( r.r_name,
           Json.Obj
             (List.map
                (fun (s, i) -> (series_key s, Json.Obj (instrument_fields i)))
                (items_of r)) ))
       (registries ()))

(* Crash-safe file write shared by the exporters: the content lands in
   [path ^ ".tmp"] and is renamed over [path] only once fully written (the
   same discipline as the serve store's checkpoints), so a crash mid-flush
   never leaves a truncated artifact behind. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match content oc with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

(** Write the metrics as JSON Lines (one object per line); atomic
    (tmp + rename). *)
let write_jsonl path =
  let rows = rows () in
  write_atomic path (fun oc ->
      List.iter
        (fun row ->
          output_string oc (Json.to_string row);
          output_char oc '\n')
        rows)

(* ---- Prometheus text exposition ------------------------------------------- *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; every other byte maps
   to '_' and a leading digit gets a '_' prefix. *)
let prom_name ~registry:rn name =
  let sane s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      s
  in
  let full = Printf.sprintf "scalehls_%s_%s" (sane rn) (sane name) in
  if String.length full > 0 && full.[0] >= '0' && full.[0] <= '9' then "_" ^ full
  else full

(* Label values escape backslash, double-quote and newline per the text
   exposition format. *)
let prom_escape v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | ls ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) ls))

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(** The whole process state in the Prometheus text exposition format
    (version 0.0.4): counters and gauges one series per line, histograms as
    cumulative [_bucket{le=...}] series plus [_sum]/[_count] and
    [_p50]/[_p90]/[_p99] convenience gauges (interpolated from the log
    buckets, so a scrape sees latency quantiles without PromQL). Output ordering is deterministic: registries, then
    metric names, then label sets, all lexicographic. *)
let to_prometheus () =
  collect ();
  let b = Buffer.create 4096 in
  let line name labels v =
    Buffer.add_string b name;
    Buffer.add_string b (prom_labels labels);
    Buffer.add_char b ' ';
    Buffer.add_string b (prom_float v);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun r ->
      (* Group series into families (same metric name) for one TYPE line per
         family; sort for deterministic output. *)
      let items =
        List.sort
          (fun (a, _) (b, _) ->
            match compare a.s_name b.s_name with
            | 0 -> compare a.s_labels b.s_labels
            | c -> c)
          (items_of r)
      in
      let last_family = ref "" in
      List.iter
        (fun (s, i) ->
          let name = prom_name ~registry:r.r_name s.s_name in
          let labels = s.s_labels in
          let typ =
            match i with
            | C _ -> "counter"
            | G _ -> "gauge"
            | H _ -> "histogram"
          in
          if !last_family <> name then begin
            Buffer.add_string b
              (Printf.sprintf "# TYPE %s %s\n" name typ);
            last_family := name
          end;
          match i with
          | C c -> line name labels (value c)
          | G g -> line name labels (gauge_value g)
          | H h ->
              Mutex.lock h.h_lock;
              let count = h.h_count and sum = h.h_sum in
              let buckets = Array.copy h.h_buckets in
              Mutex.unlock h.h_lock;
              let cum = ref 0 in
              Array.iteri
                (fun bi n ->
                  cum := !cum + n;
                  let le =
                    if bi = num_buckets - 1 then "+Inf"
                    else prom_float (bucket_bound bi)
                  in
                  line (name ^ "_bucket")
                    (labels @ [ ("le", le) ])
                    (float_of_int !cum))
                buckets;
              line (name ^ "_sum") labels sum;
              line (name ^ "_count") labels (float_of_int count);
              List.iter
                (fun (suffix, q) ->
                  Buffer.add_string b
                    (Printf.sprintf "# TYPE %s%s gauge\n" name suffix);
                  line (name ^ suffix) labels (quantile h q))
                [ ("_p50", 0.5); ("_p90", 0.9); ("_p99", 0.99) ])
        items)
    (registries ());
  Buffer.contents b

(* ---- Human-readable summary ------------------------------------------------ *)

let pp_value fmt = function
  | C c -> Fmt.pf fmt "%.6g" (value c)
  | G g -> Fmt.pf fmt "%.6g" (gauge_value g)
  | H h ->
      Mutex.lock h.h_lock;
      let count = h.h_count and sum = h.h_sum and mn = h.h_min and mx = h.h_max in
      Mutex.unlock h.h_lock;
      if count = 0 then Fmt.pf fmt "count=0"
      else
        Fmt.pf fmt "count=%d mean=%.6g p50=%.6g p99=%.6g min=%.6g max=%.6g" count
          (sum /. float_of_int count)
          (quantile h 0.5) (quantile h 0.99) mn mx

(** Human-readable dump of every registry. *)
let pp_summary fmt () =
  collect ();
  List.iter
    (fun r ->
      let items = items_of r in
      if items <> [] then begin
        Fmt.pf fmt "[%s]@\n" r.r_name;
        let width =
          List.fold_left (fun w (s, _) -> max w (String.length (series_key s))) 0 items
        in
        List.iter
          (fun (s, i) ->
            Fmt.pf fmt "  %-*s  %a@\n" width (series_key s) pp_value i)
          items
      end)
    (registries ())
