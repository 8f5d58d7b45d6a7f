(* The repository benchmark. See README.md.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--results DIR]
     e2e.exe compare DIR_A DIR_B
     e2e.exe golden

   A run (--trace 0) measures the workload's end-to-end metrics for S
   seconds; a traced run (--trace 1) measures its per-layer metrics. Both
   check every output, print each metric with its unit, write a results
   file, and end standard output with one JSON line
   {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
   when no operation failed. [golden] rewrites golden_seed42.json.
   [setup WORKLOAD] is the child process of one set-up sample (setup.ml). *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--results DIR]\n\
    \       e2e.exe compare DIR_A DIR_B\n\
    \       e2e.exe golden";
  exit 2

let flags = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--results" ]

let run_workload (spec : Spec.t) args =
  let opt name = List.assoc_opt name args in
  let int_opt name d = match opt name with Some v -> int_of_string v | None -> d in
  let workload =
    match Option.bind (opt "--workload") Workload.find with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload; one of: " ^ String.concat ", " spec.workloads);
        exit 2
  in
  let seed = int_opt "--seed" 42 in
  let seconds =
    match opt "--seconds" with Some v -> float_of_string v | None -> spec.run_seconds
  in
  let trace = int_opt "--trace" 0 <> 0 in
  let dir = Option.value ~default:Results.default_dir (opt "--results") in
  Results.mkdir_p Results.out_dir;
  let loadavg_start = Results.loadavg () in
  let tally = Tally.create () in
  let designs = workload.Workload.designs and jobs = Workload.jobs workload in
  let reps = Workload.reps workload ~seconds in
  let metrics, raw =
    if trace then Replay.run ~tally ~seed ~seconds ~name:workload.name ~jobs designs
    else
      let after_rep, setups = Setup.spread ~tally ~reps workload in
      let metrics, raw =
        match workload.kind with
        | Workload.Dse _ -> Dse_workload.run ~tally ~seed ~reps ~after_rep ~jobs designs
        | Workload.Serve_mixed { fill; cold } ->
            Serve_workload.run ~tally ~seed ~reps ~after_rep ~fill ~cold
      in
      let setups = setups () in
      (("setup_s", Stats.median setups) :: metrics, ("setup_s", Results.floats setups) :: raw)
  in
  let declared = if trace then spec.per_layer else spec.end_to_end in
  let names l = List.sort compare l in
  if names (List.map fst metrics) <> names (List.map (fun (m : Spec.metric) -> m.name) declared)
  then failwith "the measured metrics differ from the ones BENCHMARK.json declares";
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "%-34s %16.6f %s\n" m.name (List.assoc m.name metrics) m.unit_)
    declared;
  Results.write ~dir ~workload:workload.name ~seed ~trace
    ~host:(Results.host ~loadavg_start) ~tally ~spec:declared ~metrics ~raw;
  print_endline (Results.summary_line ~tally ~spec:declared ~metrics);
  if Tally.failed tally > 0 then 1 else 0

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | [ "compare"; a; b ] -> Compare.run (Spec.load ()) a b
      | [ "golden" ] ->
          Golden.write (Workload.all_designs ());
          0
      | [ "setup"; name ] -> (
          match Workload.find name with Some w -> Setup.child w | None -> usage ())
      | args ->
          let rec pairs = function
            | k :: v :: rest when List.mem k flags -> (k, v) :: pairs rest
            | [] -> []
            | _ -> usage ()
          in
          run_workload (Spec.load ()) (pairs args)
    with e ->
      prerr_endline ("e2e: " ^ Printexc.to_string e);
      2
  in
  exit code
