(** Block-level dependency-graph construction and ASAP scheduling shared
    by the virtual synthesizer and the estimator. Nodes are the ops of one
    block (composite ops — loops, ifs, calls — appear as single nodes whose
    delay is their recursively computed latency); edges are SSA def–use plus
    conservative memory ordering (same-memref accesses are ordered unless
    both are reads). Edges carry no delay: node j starts no earlier than
    each predecessor i finishes, and [asap] reads that finish from the
    node's own delay. The edges do not depend on the delays, so {!redelay}
    gives a built graph other delays without rebuilding it. *)

open Mir
open Dialects

type node = {
  idx : int;
  op : Ir.op;
  delay : int;
  accesses : (int * bool) list;  (** (memref vid, is_store) inside the node *)
}

type graph = { nodes : node array; preds : int list array }
(** [preds.(j)] lists the nodes i that node j must wait for: j starts at
    least [nodes.(i).delay] cycles after i starts. *)

let node_accesses (o : Ir.op) =
  let acc = ref [] in
  Walk.iter_op
    (fun x ->
      if Memref.is_access x then
        acc := ((Memref.accessed_memref x).Ir.vid, Memref.is_store x) :: !acc)
    o;
  !acc

(* A node's accesses folded into one [(memref, writes)] entry per memref:
   composite nodes (loops) carry one access per load or store they contain,
   over few memrefs. *)
let memref_writes accesses =
  let rec add m st = function
    | [] -> [ (m, st) ]
    | (m', w) :: rest when Int.equal m' m -> (m, w || st) :: rest
    | e :: rest -> e :: add m st rest
  in
  List.fold_left (fun acc (m, st) -> add m st acc) [] accesses

(** Build the dependency graph of [ops], with composite delays supplied by
    [delay_of]. *)
let build ~delay_of (ops : Ir.op list) : graph =
  let nodes =
    Array.of_list
      (List.mapi
         (fun idx op -> { idx; op; delay = delay_of op; accesses = node_accesses op })
         ops)
  in
  let n = Array.length nodes in
  let preds = Array.make n [] in
  (* def-use edges: producer of any free value used by node j. *)
  let producer = Ir.Vid_tbl.create 64 in
  Array.iter
    (fun nd ->
      List.iter
        (fun (r : Ir.value) -> Ir.Vid_tbl.replace producer r.Ir.vid nd.idx)
        nd.op.Ir.results)
    nodes;
  Array.iter
    (fun nd ->
      Walk.iter_free_values
        (fun (v : Ir.value) ->
          match Ir.Vid_tbl.find_opt producer v.Ir.vid with
          | Some i when i <> nd.idx -> preds.(nd.idx) <- i :: preds.(nd.idx)
          | _ -> ())
        nd.op)
    nodes;
  (* Memory ordering edges between nodes touching the same memref, at least
     one writing — built per memref as last-store / reads-since-store chains
     instead of the all-pairs conflict scan. The chain edges are a subset of
     the all-pairs edges, and every omitted edge (i, j) is dominated by a
     chain path i -> ... -> j of total weight >= delay(i) (for any
     non-negative delays, so also after {!redelay}), so ASAP start times —
     hence latency and FU concurrency — are exactly those of the full
     conflict graph. The order of a node's predecessors only feeds the max
     in {!asap}. *)
  let last_store = Ir.Vid_tbl.create 16 in
  let reads_since = Ir.Vid_tbl.create 16 in
  for j = 0 to n - 1 do
    let add i = if i <> j then preds.(j) <- i :: preds.(j) in
    List.iter
      (fun (m, w) ->
        (match Ir.Vid_tbl.find_opt last_store m with Some i -> add i | None -> ());
        if w then begin
          List.iter add
            (Option.value ~default:[] (Ir.Vid_tbl.find_opt reads_since m));
          Ir.Vid_tbl.replace last_store m j;
          Ir.Vid_tbl.replace reads_since m []
        end
        else
          Ir.Vid_tbl.replace reads_since m
            (j :: Option.value ~default:[] (Ir.Vid_tbl.find_opt reads_since m)))
      (memref_writes nodes.(j).accesses)
  done;
  { nodes; preds }

(** [g] with each node's delay replaced by [delay_of] of its op: the graph
    {!build} would return for [delay_of], without walking the ops again. *)
let redelay ~delay_of (g : graph) =
  { g with nodes = Array.map (fun nd -> { nd with delay = delay_of nd.op }) g.nodes }

(** ASAP start times (longest path from sources). *)
let asap (g : graph) =
  let n = Array.length g.nodes in
  let t = Array.make n 0 in
  for j = 0 to n - 1 do
    List.iter (fun i -> t.(j) <- max t.(j) (t.(i) + g.nodes.(i).delay)) g.preds.(j)
  done;
  t

(** Critical-path latency of the block (max finish time). *)
let latency (g : graph) =
  let t = asap g in
  Array.fold_left max 0 (Array.mapi (fun i ti -> ti + g.nodes.(i).delay) t)

(** Max number of simultaneously live instances per FU-op name, given start
    times: how many units each op type needs. *)
let fu_concurrency (g : graph) (t : int array) =
  let events : (string, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i nd ->
      if Fu.is_fu_op nd.op.Ir.name && nd.op.Ir.regions = [] then
        let cur = Option.value ~default:[] (Hashtbl.find_opt events nd.op.Ir.name) in
        Hashtbl.replace events nd.op.Ir.name ((t.(i), max 1 nd.delay) :: cur))
    g.nodes;
  Hashtbl.fold
    (fun name intervals acc ->
      (* max overlap via sweep *)
      let pts =
        List.concat_map (fun (s, d) -> [ (s, 1); (s + d, -1) ]) intervals
        |> List.sort compare
      in
      let cur = ref 0 and best = ref 0 in
      List.iter
        (fun (_, delta) ->
          cur := !cur + delta;
          best := max !best !cur)
        pts;
      (name, !best) :: acc)
    events []
