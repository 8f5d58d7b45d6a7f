(** The benchmark's declared workloads and metrics, read from
    BENCHMARK.json at the checkout root: the single catalog of metric names,
    units, directions and regression bounds. The run checks that it
    measured exactly the declared metrics; compare reads the bounds. *)

module Json = Obs.Json

let path = "BENCHMARK.json"

type metric = { name : string; unit_ : string; lower_is_better : bool; bound : float }

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load () =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j = match Json.of_string s with Ok j -> j | Error m -> failwith (path ^ ": " ^ m) in
  let field k o =
    match Json.member k o with Some v -> v | None -> failwith (Printf.sprintf "%s: missing %S" path k)
  in
  let str = function Json.String s -> s | _ -> failwith (path ^ ": expected a string") in
  let list = function Json.List l -> l | _ -> failwith (path ^ ": expected a list") in
  let metric o =
    {
      name = str (field "name" o);
      unit_ = str (field "unit" o);
      lower_is_better = str (field "better" o) = "lower";
      bound = Option.value ~default:0. (Option.bind (Json.member "bound" o) Json.to_float_opt);
    }
  in
  {
    run_seconds = Option.get (Json.to_float_opt (field "run_seconds" j));
    workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" j));
    end_to_end = List.map metric (list (field "end_to_end" j));
    per_layer = List.map metric (list (field "per_layer" j));
  }
