(** The disk-backed fingerprint cache: persists the DSE evaluation cache and
    the estimator's band memos across daemon restarts, so a design (or a
    design sharing band shapes with one) that was ever searched starts hot.

    On-disk format: JSON Lines. The first line is a header
    [{"magic":"scalehls-store","version":N}]; every following line is one
    record, [{"t":"eval","platform":P,"k":{...},"v":...}] for an
    evaluation-cache entry or [{"t":"band","k":"<fp-hex>","v":{...}}] for a
    band summary. Evaluation entries are segregated per platform — the
    cache key does not encode the platform, but feasibility does depend on
    it — under the platform's canonical name, so an alias ("vu9p") shares
    its platform's cache, also in a file written before aliases were
    resolved. Band summaries are platform-independent and shared.

    Loading is corruption-tolerant by construction: a version or magic
    mismatch discards the whole file (the service starts cold, never
    migrates), and any undecodable line — truncated tail from a killed
    writer, stray garbage — is skipped and counted, keeping every record
    that did survive. Saving goes through a temp file and rename, so a crash
    mid-checkpoint leaves the previous store intact. *)

open Scalehls
module Json = Obs.Json

let magic = "scalehls-store"
let version = 1

type t = {
  path : string option;  (** [None] = in-memory only (no persistence) *)
  lock : Mutex.t;  (** serializes checkpoints and the platform-cache table *)
  caches : (string, Dse.eval_cache) Hashtbl.t;  (** per canonical platform name *)
  memos : Estimator.memos;
  mutable loaded_evals : int;  (** records restored by the initial load *)
  mutable loaded_bands : int;
  mutable skipped_lines : int;  (** undecodable lines ignored by the load *)
  mutable cold_reason : string option;
      (** why the load started cold ([None] = warm or no file) *)
}

(** The evaluation cache for the platform named [platform], created on first
    use. A name {!Vhls.Platform.of_name} knows is replaced by its platform's
    canonical name, so every alias of a platform reaches one cache. Safe
    from any thread. *)
let cache_for t platform =
  let platform =
    match Vhls.Platform.of_name platform with
    | Some p -> p.Vhls.Platform.name
    | None -> platform
  in
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.caches platform with
    | Some c -> c
    | None ->
        let c : Dse.eval_cache = Eval_cache.create () in
        Hashtbl.replace t.caches platform c;
        c
  in
  Mutex.unlock t.lock;
  c

let memos t = t.memos

let load_line t line =
  match Json.of_string line with
  | Error _ -> t.skipped_lines <- t.skipped_lines + 1
  | Ok j -> (
      match
        match Json.member "t" j with
        | Some (Json.String "eval") ->
            let platform = Codec.to_string (Codec.member "platform" j) in
            let k = Codec.eval_key_of_json (Codec.member "k" j) in
            let v = Codec.evaluated_opt_of_json (Codec.member "v" j) in
            Eval_cache.add (cache_for t platform) k v;
            t.loaded_evals <- t.loaded_evals + 1
        | Some (Json.String "band") ->
            let k = Codec.fp_of_json (Codec.member "k" j) in
            let v = Codec.band_summary_of_json (Codec.member "v" j) in
            Estimator.import_bands t.memos [ (k, v) ];
            t.loaded_bands <- t.loaded_bands + 1
        | _ -> raise (Codec.Malformed "unknown record type")
      with
      | () -> ()
      | exception Codec.Malformed _ -> t.skipped_lines <- t.skipped_lines + 1)

let load_file t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match input_line ic with
      | exception End_of_file -> t.cold_reason <- Some "empty store file"
      | header -> (
          match Json.of_string header with
          | Ok j
            when Json.member "magic" j = Some (Json.String magic)
                 && Json.member "version" j = Some (Json.Int version) -> (
              let rec lines () =
                match input_line ic with
                | line ->
                    load_line t line;
                    lines ()
                | exception End_of_file -> ()
              in
              lines ())
          | Ok _ -> t.cold_reason <- Some "version or magic mismatch"
          | Error _ -> t.cold_reason <- Some "unreadable header"))

(** Open a store. With [?path] pointing at an existing file, its records are
    loaded (tolerantly — see the header comment); otherwise, or with no
    [path], the store starts cold. *)
let open_ ?path () =
  let t =
    {
      path;
      lock = Mutex.create ();
      caches = Hashtbl.create 4;
      memos = Estimator.create_memos ();
      loaded_evals = 0;
      loaded_bands = 0;
      skipped_lines = 0;
      cold_reason = None;
    }
  in
  (match path with
  | Some p when Sys.file_exists p -> (
      try load_file t p
      with Sys_error msg -> t.cold_reason <- Some msg)
  | _ -> ());
  t

(* Records are written in sorted key order so identical contents produce
   identical files (useful for tests and for diffing checkpoints). *)
let rows t =
  Mutex.lock t.lock;
  let caches = Hashtbl.fold (fun p c acc -> (p, c) :: acc) t.caches [] in
  Mutex.unlock t.lock;
  let evals =
    List.concat_map
      (fun (platform, cache) ->
        List.map
          (fun (k, v) ->
            Json.Obj
              [
                ("t", Json.String "eval");
                ("platform", Json.String platform);
                ("k", Codec.eval_key_to_json k);
                ("v", Codec.evaluated_opt_to_json v);
              ])
          (List.sort compare (Eval_cache.bindings cache)))
      (* Sort on the platform key only: [Eval_cache.t] holds a [Mutex.t],
         which polymorphic compare would reject if it ever reached it. *)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) caches)
  in
  let bands =
    List.map
      (fun (k, v) ->
        Json.Obj
          [
            ("t", Json.String "band");
            ("k", Codec.fp_to_json k);
            ("v", Codec.band_summary_to_json v);
          ])
      (List.sort compare (Estimator.export_bands t.memos))
  in
  evals @ bands

(** Checkpoint the store to disk (no-op for an in-memory store). Atomic
    ({!Obs.Metrics.write_atomic}): a failed write leaves the previous store
    and no temp file behind. Returns the record count written. *)
let save t =
  match t.path with
  | None -> 0
  | Some path ->
      (* Snapshot first ([rows] takes the lock itself), then hold the lock
         only around the file write so concurrent checkpoints serialize. *)
      let rows = rows t in
      Mutex.protect t.lock (fun () ->
          Obs.Metrics.write_atomic path (fun oc ->
              List.iter
                (fun row ->
                  output_string oc (Json.to_string row);
                  output_char oc '\n')
                (Json.Obj
                   [ ("magic", Json.String magic); ("version", Json.Int version) ]
                :: rows));
          List.length rows)

(* ---- Introspection ----------------------------------------------------------- *)

let eval_stats t =
  Mutex.lock t.lock;
  let caches = Hashtbl.fold (fun _ c acc -> c :: acc) t.caches [] in
  Mutex.unlock t.lock;
  List.fold_left
    (fun (len, hits, misses) c ->
      (len + Eval_cache.length c, hits + Eval_cache.hits c, misses + Eval_cache.misses c))
    (0, 0, 0) caches

let to_status_json t =
  let evals, eval_hits, eval_misses = eval_stats t in
  Json.Obj
    [
      ( "path",
        match t.path with Some p -> Json.String p | None -> Json.Null );
      ("evals", Json.Int evals);
      ("bands", Json.Int (Estimator.memo_length t.memos));
      ("eval_hits", Json.Int eval_hits);
      ("eval_misses", Json.Int eval_misses);
      ("band_hits", Json.Int (Estimator.memo_hits t.memos));
      ("band_misses", Json.Int (Estimator.memo_misses t.memos));
      ("loaded_evals", Json.Int t.loaded_evals);
      ("loaded_bands", Json.Int t.loaded_bands);
      ("skipped_lines", Json.Int t.skipped_lines);
      ( "cold_reason",
        match t.cold_reason with Some r -> Json.String r | None -> Json.Null );
    ]
