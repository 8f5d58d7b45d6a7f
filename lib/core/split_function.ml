(** The [-split-function] pass (§5.1.2): after dataflow legalization, cluster
    the procedures of each dataflow stage into a new sub-function and replace
    them with a function call; the original function becomes the dataflow
    top. The [min-gran] parameter merges at least that many adjacent stages
    into one sub-function, exposing the throughput–area tradeoff of Figure
    4(d). Weight nodes move into the (unique) stage that consumes them. *)

open Mir
open Dialects

(** Split a legalized graph function into a dataflow top + per-stage
    sub-functions, with [min_gran] adjacent stages per sub-function.
    Returns the rewritten module. *)
let split ~min_gran ctx m ~func_name : Ir.op =
  let f = Ir.find_func_exn m func_name in
  let body = Func.func_body f in
  let n_stages = Legalize_dataflow.num_stages f in
  if n_stages <= 1 then m
  else begin
    let min_gran = max 1 min_gran in
    let group_of_stage s = s / min_gran in
    let n_groups = ((n_stages - 1) / min_gran) + 1 in
    (* Assign each op to a group: procs by stage; weights to the group of
       their unique consumer; other ops (returns) stay in the top. *)
    let arr = Array.of_list body in
    let group = Array.make (Array.length arr) (-1) in
    Array.iteri
      (fun i o ->
        match Legalize_dataflow.stage_of o with
        | Some s -> group.(i) <- group_of_stage s
        | None -> ())
      arr;
    (* weights: group of first consumer *)
    Array.iteri
      (fun i (o : Ir.op) ->
        if Graph.is_weight o then begin
          let r = Ir.result o in
          let consumer = ref (-1) in
          Array.iteri
            (fun j (c : Ir.op) ->
              if
                !consumer = -1 && group.(j) >= 0
                && List.exists (fun (v : Ir.value) -> v.Ir.vid = r.Ir.vid) c.Ir.operands
              then consumer := group.(j))
            arr;
          group.(i) <- !consumer
        end)
      arr;
    (* For each group: member ops in original order; inputs = free values
       defined outside the group; outputs = results used outside. *)
    let returned_ops, _ = (List.filter Func.is_return body, ()) in
    let sub_funcs = ref [] in
    let top_calls = ref [] in
    let subst = ref Ir.Value_map.empty in
    for g = 0 to n_groups - 1 do
      let members =
        List.filteri (fun i _ -> group.(i) = g) (Array.to_list arr)
      in
      if members <> [] then begin
        let defined =
          List.fold_left
            (fun s (o : Ir.op) ->
              List.fold_left
                (fun s (v : Ir.value) -> Ir.Value_map.add v.Ir.vid v s)
                s o.Ir.results)
            Ir.Value_map.empty members
        in
        let inputs =
          List.fold_left
            (fun acc (o : Ir.op) ->
              List.fold_left
                (fun acc (v : Ir.value) ->
                  if
                    Ir.Value_map.mem v.Ir.vid defined
                    || List.exists (fun (x : Ir.value) -> x.Ir.vid = v.Ir.vid) acc
                  then acc
                  else acc @ [ v ])
                acc o.Ir.operands)
            [] members
        in
        let outputs =
          List.concat_map
            (fun (o : Ir.op) ->
              List.filter
                (fun (r : Ir.value) ->
                  let used_outside =
                    List.exists
                      (fun (c : Ir.op) ->
                        (not (List.memq c members))
                        && List.exists
                             (fun (v : Ir.value) -> v.Ir.vid = r.Ir.vid)
                             c.Ir.operands)
                      body
                    || List.exists
                         (fun (ret : Ir.op) ->
                           List.exists
                             (fun (v : Ir.value) -> v.Ir.vid = r.Ir.vid)
                             ret.Ir.operands)
                         returned_ops
                  in
                  used_outside)
                o.Ir.results)
            members
        in
        let sub_name = Printf.sprintf "%s_stage%d" func_name g in
        (* Clone members into the sub-function with inputs as block args. *)
        let args = List.map (fun (v : Ir.value) -> Ir.Ctx.fresh ctx v.Ir.vty) inputs in
        let seed =
          List.fold_left2
            (fun s (v : Ir.value) arg -> Ir.Value_map.add v.Ir.vid arg s)
            Ir.Value_map.empty inputs args
        in
        let cloned, final_subst = Clone.ops ~subst:seed ctx members in
        let cloned_outputs =
          List.map
            (fun (r : Ir.value) -> Ir.Value_map.find r.Ir.vid final_subst)
            outputs
        in
        let sub =
          Func.func_raw ~name:sub_name ~args
            ~outputs:(List.map (fun (v : Ir.value) -> v.Ir.vty) outputs)
            (cloned @ [ Func.return_ cloned_outputs ])
        in
        sub_funcs := sub :: !sub_funcs;
        let call, results =
          Func.call ctx ~callee:sub_name
            ~result_tys:(List.map (fun (v : Ir.value) -> v.Ir.vty) outputs)
            inputs
        in
        List.iter2
          (fun (r : Ir.value) nv -> subst := Ir.Value_map.add r.Ir.vid nv !subst)
          outputs results;
        top_calls := call :: !top_calls
      end
    done;
    (* New top body: calls in group order + the return, with outputs
       substituted. Call operands that are outputs of earlier groups must be
       substituted too. *)
    let calls = List.rev !top_calls in
    let calls =
      List.map
        (fun (c : Ir.op) ->
          {
            c with
            Ir.operands =
              List.map
                (fun (v : Ir.value) ->
                  match Ir.Value_map.find_opt v.Ir.vid !subst with
                  | Some nv -> nv
                  | None -> v)
                c.Ir.operands;
          })
        calls
    in
    let rets =
      List.map
        (fun (r : Ir.op) ->
          {
            r with
            Ir.operands =
              List.map
                (fun (v : Ir.value) ->
                  match Ir.Value_map.find_opt v.Ir.vid !subst with
                  | Some nv -> nv
                  | None -> v)
                r.Ir.operands;
          })
        returned_ops
    in
    let top = Func.with_func_body f (calls @ rets) in
    let top = Func_pipeline.set_dataflow top in
    let m = Ir.replace_func m top in
    List.fold_left Ir.replace_func m (List.rev !sub_funcs)
  end

(** The pass form: split every function of the module, one stage per
    sub-function. *)
let pass =
  Pass.make "split-function" (fun ctx m ->
      List.fold_left
        (fun m f -> split ~min_gran:1 ctx m ~func_name:(Ir.func_name f))
        m (Ir.module_funcs m))
