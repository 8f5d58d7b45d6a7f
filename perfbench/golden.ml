(** The golden frontiers: for seed 42, the Pareto-frontier digest of every
    design a workload searches, computed by an in-process [-j 1] search. A
    seed-42 run compares every frontier it obtains against this file —
    whether the search ran in-process at any worker count or behind the
    serve protocol — so one file pins all of them to the same answer. *)

module Json = Obs.Json

let path = "perfbench/golden_seed42.json"
let seed = 42

let table =
  lazy
    (let ic = open_in_bin path in
     let s =
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     in
     match Json.of_string s with
     | Ok j -> (
         match Json.member "frontiers" j with
         | Some (Json.Obj kvs) ->
             List.map (fun (k, v) -> (k, Search.digest_of_json v)) kvs
         | _ -> failwith (path ^ ": no \"frontiers\" object"))
     | Error msg -> failwith (path ^ ": " ^ msg))

(** Check [digest] of design [d] against the golden file; a no-op for any
    seed but 42. *)
let check tally ~seed:s (d : Search.design) digest =
  if s = seed then
    let label = Search.label d in
    match List.assoc_opt label (Lazy.force table) with
    | Some want -> Tally.expect tally ~what:(label ^ " frontier vs golden") want digest
    | None -> Tally.fail tally (label ^ ": no golden frontier in " ^ path)
    | exception e -> Tally.fail tally (Printexc.to_string e)

(** Recompute the golden file for [designs]. *)
let write designs =
  let frontiers =
    List.map
      (fun d ->
        let o = Search.run ~seed d in
        (Search.label d, Search.digest_to_json o.Search.frontier))
      designs
  in
  let oc = open_out_bin path in
  output_string oc
    (Json.to_string (Json.Obj [ ("seed", Json.Int seed); ("frontiers", Json.Obj frontiers) ]));
  output_char oc '\n';
  close_out oc
