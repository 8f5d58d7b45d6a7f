(** IR statistics — the [-print-op-stats] analog: op / block / region counts,
    broken down by op name and by dialect, collected with one {!Walk} pass.
    The pass instrumentation records the delta of these across each pass, so
    a trace shows what every pass did to the module, not just how long it
    took. *)

type t = {
  ops : int;
  blocks : int;
  regions : int;
  by_name : (string * int) list;  (** sorted by op name *)
  by_dialect : (string * int) list;  (** sorted by dialect *)
}

(** The dialect prefix of a fully-qualified op name ("affine.for" ->
    "affine"); names without a dot count as "builtin". *)
let dialect_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> "builtin"

let sorted_assoc tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let collect (o : Ir.op) : t =
  let ops = ref 0 and blocks = ref 0 and regions = ref 0 in
  let names : (string, int) Hashtbl.t = Hashtbl.create 32 in
  Walk.iter_op
    (fun op ->
      incr ops;
      regions := !regions + List.length op.Ir.regions;
      List.iter (fun r -> blocks := !blocks + List.length r) op.Ir.regions;
      Hashtbl.replace names op.Ir.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt names op.Ir.name)))
    o;
  let by_name = sorted_assoc names in
  let dialects : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (n, c) ->
      let d = dialect_of n in
      Hashtbl.replace dialects d (c + Option.value ~default:0 (Hashtbl.find_opt dialects d)))
    by_name;
  {
    ops = !ops;
    blocks = !blocks;
    regions = !regions;
    by_name;
    by_dialect = sorted_assoc dialects;
  }

(* Pointwise [after - before] over the union of keys, zero entries dropped. *)
let diff_assoc before after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) after;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (Option.value ~default:0 (Hashtbl.find_opt tbl k) - v))
    before;
  List.filter (fun (_, v) -> v <> 0) (sorted_assoc tbl)

(** What a rewrite did: positive entries were created, negative erased. *)
let diff ~before ~after =
  {
    ops = after.ops - before.ops;
    blocks = after.blocks - before.blocks;
    regions = after.regions - before.regions;
    by_name = diff_assoc before.by_name after.by_name;
    by_dialect = diff_assoc before.by_dialect after.by_dialect;
  }

(** The [-print-op-stats] report shape. *)
let pp fmt t =
  Fmt.pf fmt "Operations encountered:@\n";
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 t.by_name
  in
  List.iter (fun (n, c) -> Fmt.pf fmt "  %-*s , %d@\n" width n c) t.by_name;
  Fmt.pf fmt "%d ops, %d blocks, %d regions" t.ops t.blocks t.regions

(** Span-argument encoding of a stats (or stats-delta) record. *)
let to_args prefix t =
  [
    (prefix ^ "ops", Obs.Json.Int t.ops);
    (prefix ^ "blocks", Obs.Json.Int t.blocks);
    (prefix ^ "regions", Obs.Json.Int t.regions);
    ( prefix ^ "by_dialect",
      Obs.Json.Obj (List.map (fun (d, c) -> (d, Obs.Json.Int c)) t.by_dialect) );
  ]
