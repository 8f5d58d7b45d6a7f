(** Results files and the host stamp. Every run writes
    [<dir>/<workload>.seed<seed>.<run|trace>.json] holding the host stamp,
    the seed, the metrics and the raw per-rep values behind them; [compare]
    reads these files back. *)

module Json = Obs.Json

(** Where runs write: results, traces, the serve socket and store. *)
let out_dir = "perfbench/out"

let default_dir = Filename.concat out_dir "results"
let floats l = Json.List (List.map (fun x -> Json.Float x) l)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let first_line path = try String.trim (List.hd (String.split_on_char '\n' (read_file path))) with _ -> "unavailable"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* CPUs this process may run on (what [nproc] prints): the size of
   Cpus_allowed_list in /proc/self/status, e.g. "0-1" or "0,2-3". *)
let nproc () =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some v ->
      List.fold_left
        (fun acc r ->
          match String.split_on_char '-' r with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc)
        0 (String.split_on_char ',' v)
  | None -> 0
  | exception _ -> 0

(* The checked-out commit, when the checkout is a git work tree. *)
let commit () =
  let resolve ref_ =
    let loose = Filename.concat ".git" ref_ in
    if Sys.file_exists loose then Some (first_line loose)
    else
      match read_file ".git/packed-refs" with
      | s ->
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ sha; r ] when r = ref_ -> Some sha
              | _ -> None)
            (String.split_on_char '\n' s)
      | exception Sys_error _ -> None
  in
  match first_line ".git/HEAD" with
  | "unavailable" -> "unknown"
  | head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> Option.value ~default:"unknown" (resolve r)
      | _ -> head)

let loadavg () = first_line "/proc/loadavg"

let host ~loadavg_start =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("commit", Json.String (commit ()));
      ("loadavg_start", Json.String loadavg_start);
      ("loadavg_end", Json.String (loadavg ()));
    ]

let file ~dir ~workload ~seed ~trace =
  Filename.concat dir
    (Printf.sprintf "%s.seed%d.%s.json" workload seed (if trace then "trace" else "run"))

let metrics_json (spec : Spec.metric list) metrics =
  Json.Obj
    (List.map
       (fun (m : Spec.metric) ->
         ( m.name,
           Json.Obj
             [ ("value", Json.Float (List.assoc m.name metrics)); ("unit", Json.String m.unit_) ] ))
       spec)

let write ~dir ~workload ~seed ~trace ~host ~tally ~spec ~metrics ~raw =
  mkdir_p dir;
  let path = file ~dir ~workload ~seed ~trace in
  Obs.Metrics.write_atomic path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String workload);
                ("seed", Json.Int seed);
                ("trace", Json.Bool trace);
                ("host", host);
                ("attempted", Json.Int (Tally.attempted tally));
                ("failed", Json.Int (Tally.failed tally));
                ("failures", Json.List (List.map (fun s -> Json.String s) (List.rev tally.Tally.failures)));
                ("metrics", metrics_json spec metrics);
                ("raw", Json.Obj raw);
              ]));
      output_char oc '\n')

(** The run's result line: the last line of standard output. *)
let summary_line ~tally ~spec ~metrics =
  let failed = Tally.failed tally in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int (Tally.attempted tally));
         ("failed", Json.Int failed);
         ("metrics", metrics_json spec metrics);
       ])
