(** The in-process workloads ([kernels-j1], [trmm-estimate], [kernels-j2]):
    [reps] reps of cold searches, one per design. Rep [r] searches with
    [Search.rep_seed ~seed r]. *)

open Scalehls
module Json = Obs.Json

(* What the run keeps of a rep (the first rep's outcomes are also kept
   whole, for the checks). *)
type rep = {
  wall : float;
  explored : int;
  cycles : float list;
  design_walls : (string * Json.t) list;
}

let run ~tally ~seed ~reps:n_reps ~after_rep ~jobs designs =
  let pool = if jobs > 1 then Some (Parpool.create ~jobs ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Parpool.shutdown pool) @@ fun () ->
  let lock = Mutex.create () in
  let evals = ref [] in
  let on_eval s =
    Mutex.lock lock;
    evals := s :: !evals;
    Mutex.unlock lock
  in
  let first = ref [] and reps = ref [] in
  for r = 0 to n_reps - 1 do
    (* Each rep starts from a collected heap, so one rep's garbage is not
       collected on the next one's time. *)
    Gc.full_major ();
    let seed = Search.rep_seed ~seed r in
    let outcomes, wall =
      Obs.Clock.time_s (fun () ->
          List.filter_map
            (fun d ->
              Tally.guard tally (Search.label d) (fun () ->
                  Search.run ?pool ~on_eval ~seed d))
            designs)
    in
    if r = 0 then first := outcomes;
    let rep =
      {
        wall;
        explored = List.fold_left (fun a (o : Search.outcome) -> a + o.explored) 0 outcomes;
        cycles = List.map (fun (o : Search.outcome) -> float_of_int o.cycles) outcomes;
        design_walls =
          List.map (fun (o : Search.outcome) -> (Search.label o.design, Json.Float o.wall_s)) outcomes;
      }
    in
    reps := rep :: !reps;
    after_rep r
  done;
  let reps = List.rev !reps and first = !first in
  (* ---- Checks of the first rep, outside the timed region ---- *)
  List.iter
    (fun (o : Search.outcome) ->
      Golden.check tally ~seed o.design o.frontier;
      List.iter (Tally.check tally) (Search.check_outcome ~seed o))
    first;
  (* -j N must reproduce -j 1 exactly: re-run each design sequentially. *)
  if jobs > 1 then
    List.iter
      (fun (o : Search.outcome) ->
        let what = Printf.sprintf "%s at -j 1" (Search.label o.design) in
        match Tally.guard tally what (fun () -> Search.run ~seed o.design) with
        | Some o1 -> Tally.expect tally ~what:(what ^ " vs -j " ^ string_of_int jobs) o1.frontier o.frontier
        | None -> ())
      first;
  let walls = List.map (fun r -> r.wall) reps in
  let evals = !evals in
  let explored = List.fold_left (fun a r -> a + r.explored) 0 reps in
  let metrics =
    [
      ("wall_s", Stats.median walls);
      ("op_p95_ms", 1e3 *. Stats.quantile 0.95 evals);
      ("ops_per_s", float_of_int explored /. Stats.sum walls);
      ("best_cycles_geomean", Stats.geomean (List.concat_map (fun r -> r.cycles) reps));
    ]
  in
  let raw =
    [
      ("rep_wall_s", Results.floats walls);
      ("evaluations", Json.Int (List.length evals));
      ("eval_p50_ms", Json.Float (1e3 *. Stats.quantile 0.5 evals));
      ("peak_heap_mb", Json.Float (Results.peak_heap_mb ()));
      ("points_explored", Json.Int explored);
      ("rep_design_wall_s", Json.List (List.map (fun r -> Json.Obj r.design_walls) reps));
    ]
  in
  (metrics, raw)
