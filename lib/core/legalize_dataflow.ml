(** The [-legalize-dataflow] pass (§5.1.1): downstream dataflow pipelining
    requires each intermediate result to have one producer and one consumer
    and forbids bypass paths. This pass assigns each graph "procedure" node a
    dataflow stage (its longest-path level) and then either

    - conservatively merges the stages spanned by a bypass edge into one
      (Figure 4(b)), or
    - with [insert_copy], breaks bypass edges by inserting [graph.copy]
      nodes at the intermediate stages (Figure 4(c)),

    until every edge connects adjacent stages. Stage ids are recorded as a
    [dataflow.stage] attribute consumed by [-split-function]. *)

open Mir
open Dialects

let stage_attr = "dataflow.stage"

let stage_of o = Option.map Attr.as_int (Ir.attr o stage_attr)

(* Producer index of each value among [ops]. *)
let producers ops =
  let tbl = Hashtbl.create 32 in
  List.iteri
    (fun i (o : Ir.op) ->
      List.iter (fun (r : Ir.value) -> Hashtbl.replace tbl r.Ir.vid i) o.Ir.results)
    ops;
  tbl

(* Longest-path level of each proc node (non-proc ops get level -1). *)
let levels ops =
  let prod = producers ops in
  let arr = Array.of_list ops in
  let lvl = Array.make (Array.length arr) (-1) in
  Array.iteri
    (fun i (o : Ir.op) ->
      if Graph.is_proc o then begin
        let m =
          List.fold_left
            (fun acc (v : Ir.value) ->
              match Hashtbl.find_opt prod v.Ir.vid with
              | Some j when Graph.is_proc arr.(j) -> max acc lvl.(j)
              | _ -> acc)
            (-1) o.Ir.operands
        in
        lvl.(i) <- m + 1
      end)
    arr;
  lvl

(* Edges between proc nodes: (src idx, dst idx). *)
let proc_edges ops =
  let prod = producers ops in
  let arr = Array.of_list ops in
  let edges = ref [] in
  Array.iteri
    (fun j (o : Ir.op) ->
      if Graph.is_proc o then
        List.iter
          (fun (v : Ir.value) ->
            match Hashtbl.find_opt prod v.Ir.vid with
            | Some i when Graph.is_proc arr.(i) -> edges := (i, j) :: !edges
            | _ -> ())
          o.Ir.operands)
    arr;
  !edges

(* Conservative legalization: union-find over levels; a bypass edge
   (gap > 1 in the compacted stage order) merges all intermediate stages. *)
let merge_levels nlevels edges lvl =
  let parent = Array.init nlevels Fun.id in
  let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); parent.(x)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* compact stage order = sorted distinct roots *)
    let roots = List.sort_uniq compare (List.init nlevels find) in
    let order = List.mapi (fun pos r -> (r, pos)) roots in
    let pos_of l = List.assoc (find l) order in
    List.iter
      (fun (i, j) ->
        let pi = pos_of lvl.(i) and pj = pos_of lvl.(j) in
        if pj - pi > 1 then begin
          (* merge all levels whose position is within (pi, pj] into one *)
          List.iter
            (fun (r, pos) -> if pos > pi && pos <= pj then union r lvl.(j))
            order;
          changed := true
        end)
      edges
  done;
  let roots = List.sort_uniq compare (List.init nlevels find) in
  let order = List.mapi (fun pos r -> (r, pos)) roots in
  fun l -> List.assoc (find l) order

(** Legalize the dataflow of a graph-level function. Returns the function
    with [dataflow.stage] attributes on every proc node (copy nodes included
    when [insert_copy]). Non-proc ops (weights) are left unstaged. *)
let legalize ?(insert_copy = false) ctx (f : Ir.op) : Ir.op =
  let body = Func.func_body f in
  let lvl = levels body in
  let arr = Array.of_list body in
  let nlevels = Array.fold_left max 0 lvl + 1 in
  if nlevels = 0 then f
  else if insert_copy then begin
    (* Break bypass edges with copy chains placed right before the consumer
       (Figure 4(c)). *)
    let edges = proc_edges body in
    (* per consumer index: copies to insert before it, plus operand rewires *)
    let inserts : (int, Ir.op list) Hashtbl.t = Hashtbl.create 8 in
    let rewires : (int, (int * Ir.value) list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (i, j) ->
        let gap = lvl.(j) - lvl.(i) in
        if gap > 1 then begin
          let carried =
            List.find
              (fun (v : Ir.value) ->
                List.exists (fun (r : Ir.value) -> r.Ir.vid = v.Ir.vid) arr.(i).Ir.results)
              arr.(j).Ir.operands
          in
          let cur = ref carried in
          let chain = ref [] in
          for s = lvl.(i) + 1 to lvl.(j) - 1 do
            let op, r = Graph.copy ctx !cur in
            let op = Ir.set_attr op stage_attr (Attr.Int s) in
            chain := op :: !chain;
            cur := r
          done;
          Hashtbl.replace inserts j
            (Option.value ~default:[] (Hashtbl.find_opt inserts j) @ List.rev !chain);
          Hashtbl.replace rewires j
            ((carried.Ir.vid, !cur)
            :: Option.value ~default:[] (Hashtbl.find_opt rewires j))
        end)
      edges;
    let body' =
      List.concat
        (List.mapi
           (fun j (o : Ir.op) ->
             let o =
               if Graph.is_proc o then Ir.set_attr o stage_attr (Attr.Int lvl.(j)) else o
             in
             let o =
               match Hashtbl.find_opt rewires j with
               | Some rw ->
                   {
                     o with
                     Ir.operands =
                       List.map
                         (fun (v : Ir.value) ->
                           match List.assoc_opt v.Ir.vid rw with
                           | Some nv -> nv
                           | None -> v)
                         o.Ir.operands;
                   }
               | None -> o
             in
             Option.value ~default:[] (Hashtbl.find_opt inserts j) @ [ o ])
           body)
    in
    Func.with_func_body f body'
  end
  else begin
    let edges = proc_edges body in
    let stage = merge_levels nlevels edges lvl in
    let body' =
      List.mapi
        (fun j (o : Ir.op) ->
          if Graph.is_proc o then Ir.set_attr o stage_attr (Attr.Int (stage lvl.(j)))
          else o)
        body
    in
    Func.with_func_body f body'
  end

(** Number of dataflow stages after legalization. *)
let num_stages f =
  List.fold_left
    (fun acc o -> match stage_of o with Some s -> max acc (s + 1) | None -> acc)
    0 (Func.func_body f)

(** The pass; with [insert_copy] it is registered as
    [-legalize-dataflow-copy]. *)
let pass ?(insert_copy = false) () =
  let name = if insert_copy then "legalize-dataflow-copy" else "legalize-dataflow" in
  Pass.on_funcs name (fun ctx f ->
      if List.exists Graph.is_proc (Func.func_body f) then legalize ~insert_copy ctx f
      else f)
