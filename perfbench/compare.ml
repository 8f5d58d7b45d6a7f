(** [compare A B]: two result sets (directories of run files, e.g. ten
    seeds of a parent commit and ten of a change), one row per workload and
    end-to-end metric, judged by this rule:

    - better: B beats A in at least 9 of 10 pairs (runs paired by seed)
      and the medians differ by more than A's interquartile range — or
      every run of B beats every run of A;
    - unresolved: otherwise, when either side's spread (IQR / median)
      exceeds the metric's bound;
    - worse: B's median is worse than A's by more than the bound;
    - same: within the bound.

    Exits non-zero if any row is worse. *)

module Json = Obs.Json

(* workload -> (seed, metric -> value) list, from the run files of [dir] *)
let load dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".run.json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match Json.of_string (Results.read_file (Filename.concat dir f)) with
         | Error _ -> None
         | Ok j -> (
             match (Json.member "workload" j, Json.member "seed" j, Json.member "metrics" j) with
             | Some (Json.String w), Some (Json.Int seed), Some (Json.Obj ms) ->
                 let value (k, v) =
                   Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float_opt)
                 in
                 Some (w, (seed, List.filter_map value ms))
             | _ -> None))

let runs_of data w = List.filter_map (fun (w', r) -> if w' = w then Some r else None) data

let verdict (m : Spec.metric) a b =
  let gain x y = if m.lower_is_better then x -. y else y -. x in
  let med_a = Stats.median (List.map snd a) and med_b = Stats.median (List.map snd b) in
  let q1a, q3a = Stats.quartiles (List.map snd a) and q1b, q3b = Stats.quartiles (List.map snd b) in
  let spread = Float.max ((q3a -. q1a) /. med_a) ((q3b -. q1b) /. med_b) in
  (* Pair runs by seed where both sides have it, else by position. *)
  let pairs =
    let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
    let by_seed = List.filter_map (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a in
    if by_seed <> [] then by_seed else zip (List.map snd a) (List.map snd b)
  in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.) pairs) in
  let all_better = List.for_all (fun (_, y) -> List.for_all (fun (_, x) -> gain x y > 0.) a) b in
  let worse_by = -.gain med_a med_b /. med_a in
  if
    all_better
    || (float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
       && gain med_a med_b > q3a -. q1a)
  then "better"
  else if spread > m.bound then "unresolved"
  else if worse_by > m.bound then "worse"
  else "same"

let run (spec : Spec.t) dir_a dir_b =
  let a = load dir_a and b = load dir_b in
  let worse = ref 0 in
  Printf.printf "%-14s %-20s %12s %25s %12s %25s %8s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      match (runs_of a w, runs_of b w) with
      | [], _ | _, [] -> Printf.printf "%-14s (no runs on one side)\n" w
      | ra, rb ->
          List.iter
            (fun (m : Spec.metric) ->
              let vals r = List.filter_map (fun (s, ms) -> Option.map (fun v -> (s, v)) (List.assoc_opt m.name ms)) r in
              match (vals ra, vals rb) with
              | [], _ | _, [] -> ()
              | va, vb ->
                  let v = verdict m va vb in
                  if v = "worse" then incr worse;
                  let med x = Stats.median (List.map snd x) in
                  let q x =
                    let q1, q3 = Stats.quartiles (List.map snd x) in
                    Printf.sprintf "[%.6g, %.6g]" q1 q3
                  in
                  Printf.printf "%-14s %-20s %12.6g %25s %12.6g %25s %+7.1f%%  %s\n" w m.name (med va) (q va)
                    (med vb) (q vb)
                    (100. *. (med vb -. med va) /. med va)
                    v)
            spec.end_to_end)
    spec.workloads;
  if !worse > 0 then 1 else 0
