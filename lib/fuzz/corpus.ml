(** The seeded regression corpus: reproducer files for fuzzer findings.

    There is no IR parser in this repository, so a reproducer does not store
    IR — it stores the *recipe*: the program seed and the pass pipeline. The
    generator's determinism contract ({!Rng}, {!Gen}) guarantees the seed
    regenerates the exact module on any platform. The printed IR may be
    embedded as ["#"] comments for human readers; it is ignored on load.

    File format (one finding per [.repro] file, [key: value] lines):
    {v
    name: cse-constant-type-confusion
    oracle: interp-diff
    seed: 49
    pipeline: affine-loop-unroll cse
    note: CSE merged 4 : index with 4.0 : f32 (same printed attr)
    gen: v1-default
    # <printed IR, informational only>
    v} *)

type oracle_kind =
  | Interp_diff  (** differential interpretation over the pipeline *)
  | Qor_pipeline  (** pipelining-latency monotonicity *)
  | Qor_estimator  (** estimator vs virtual-synth agreement *)
  | Dse_jobs  (** -j N vs -j 1 determinism *)
  | Dse_symbolic  (** symbolic vs materialized point evaluation *)
  | Dse_incremental  (** warm band-delta estimates vs cold full re-estimation *)
  | Dse_strategy  (** surrogate frontier eps-covers the exhaustive frontier *)

(** Every oracle kind with its name: the one table that the corpus file
    format, the campaign's verdict counters and {!Engine.classify} read. *)
let oracle_kinds =
  [
    (Interp_diff, "interp-diff");
    (Qor_pipeline, "qor-pipeline");
    (Qor_estimator, "qor-estimator");
    (Dse_symbolic, "dse-symbolic");
    (Dse_incremental, "dse-incremental");
    (Dse_jobs, "dse-jobs");
    (Dse_strategy, "dse-strategy");
  ]

let oracle_kind_to_string k = List.assoc k oracle_kinds

let oracle_kind_of_string s =
  List.find_map (fun (k, name) -> if name = s then Some k else None) oracle_kinds

(** Run the oracle of [kind] on [m]: the one dispatch the campaign, the
    reducer and corpus replay share. [pipeline] feeds the differential
    oracle; the others ignore it. *)
let check kind ~seed m ~top ~pipeline : Oracle.failure list =
  match kind with
  | Interp_diff -> Oracle.differential ~seed m ~top ~pipeline
  | Qor_pipeline -> Oracle.qor_pipelining_monotone m ~top
  | Qor_estimator -> Oracle.qor_estimator_agrees m ~top
  | Dse_jobs -> Oracle.dse_jobs_deterministic ~seed m ~top
  | Dse_symbolic -> Oracle.dse_symbolic_equiv ~seed m ~top
  | Dse_incremental -> Oracle.dse_incremental ~seed m ~top
  | Dse_strategy -> Oracle.dse_strategy_frontier_consistent ~seed m ~top

type entry = {
  name : string;
  oracle : oracle_kind;
  seed : int;
  pipeline : string list;  (** empty for the non-differential oracles *)
  note : string;
  gen : string;  (** generator revision tag; only ["v1-default"] exists *)
}

let gen_current = "v1-default"

let to_string ?ir e =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "name: %s\n" e.name);
  Buffer.add_string b (Printf.sprintf "oracle: %s\n" (oracle_kind_to_string e.oracle));
  Buffer.add_string b (Printf.sprintf "seed: %d\n" e.seed);
  Buffer.add_string b
    (Printf.sprintf "pipeline: %s\n"
       (match e.pipeline with [] -> "-" | ps -> String.concat " " ps));
  Buffer.add_string b (Printf.sprintf "note: %s\n" e.note);
  Buffer.add_string b (Printf.sprintf "gen: %s\n" e.gen);
  (match ir with
  | None -> ()
  | Some ir ->
      String.split_on_char '\n' ir
      |> List.iter (fun l -> Buffer.add_string b ("# " ^ l ^ "\n")));
  Buffer.contents b

let of_string s =
  let kv = Hashtbl.create 8 in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ':' with
           | Some i ->
               let k = String.trim (String.sub line 0 i) in
               let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
               Hashtbl.replace kv k v
           | None -> ());
  let find k = Hashtbl.find_opt kv k in
  match (find "name", find "oracle", find "seed") with
  | Some name, Some oracle_s, Some seed_s -> (
      match (oracle_kind_of_string oracle_s, int_of_string_opt seed_s) with
      | Some oracle, Some seed ->
          let pipeline =
            match find "pipeline" with
            | None | Some "-" | Some "" -> []
            | Some ps -> String.split_on_char ' ' ps |> List.filter (( <> ) "")
          in
          Ok
            {
              name;
              oracle;
              seed;
              pipeline;
              note = Option.value (find "note") ~default:"";
              gen = Option.value (find "gen") ~default:gen_current;
            }
      | _ -> Error "corpus entry: bad oracle or seed field")
  | _ -> Error "corpus entry: missing name/oracle/seed field"

let save ?ir path e =
  let oc = open_out path in
  output_string oc (to_string ?ir e);
  close_out oc

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

(** Replay [e]: regenerate the program from its seed and run the recorded
    oracle. Returns the oracle's failures — the empty list means the finding
    is fixed (the expected state for checked-in corpus entries). *)
let replay (e : entry) : Oracle.failure list =
  let p = Gen.program ~seed:e.seed () in
  check e.oracle ~seed:e.seed p.Gen.module_ ~top:p.Gen.top ~pipeline:e.pipeline
