(** Generic IR traversals: iteration, folding, and post/pre-order rewriting
    over the operation tree.

    The iteration core is written as first-order mutual recursion (no
    intermediate closures or partial applications): these walkers run on the
    DSE hot path — the estimator, the fingerprinter, and the cleanup passes
    traverse every transformed module several times per design point — and
    the closure-per-region variant showed up in allocation profiles. *)

open Ir

(** Pre-order iteration over an op and everything nested in it. *)
let rec iter_op f (o : op) =
  f o;
  iter_regions f o.regions

and iter_regions f = function
  | [] -> ()
  | r :: rest ->
      iter_blocks f r;
      iter_regions f rest

and iter_blocks f = function
  | [] -> ()
  | (b : block) :: rest ->
      iter_seq f b.bops;
      iter_blocks f rest

and iter_seq f = function
  | [] -> ()
  | o :: rest ->
      iter_op f o;
      iter_seq f rest

(** Pre-order fold over an op and everything nested in it. *)
let rec fold_ops f acc (o : op) =
  let acc = f acc o in
  fold_regions f acc o.regions

and fold_regions f acc = function
  | [] -> acc
  | r :: rest -> fold_regions f (fold_blocks f acc r) rest

and fold_blocks f acc = function
  | [] -> acc
  | (b : block) :: rest -> fold_blocks f (fold_seq f acc b.bops) rest

and fold_seq f acc = function
  | [] -> acc
  | o :: rest -> fold_seq f (fold_ops f acc o) rest

(** Collect all ops satisfying [p], pre-order. *)
let collect p o = List.rev (fold_ops (fun acc o -> if p o then o :: acc else acc) [] o)

let count p o = fold_ops (fun n o -> if p o then n + 1 else n) 0 o

let exists p o =
  let module M = struct exception Found end in
  try
    iter_op (fun o -> if p o then raise M.Found) o;
    false
  with M.Found -> true

let with_regions (o : op) regions = if regions == o.regions then o else { o with regions }

(** Post-order rewrite at the op-list level: [f] maps each rebuilt op to a
    list of replacement ops (possibly empty to erase, or several to expand).

    Unchanged subtrees are shared, not copied: an op whose regions came back
    unchanged is passed to [f] as itself, and when [f] returns [[ o ]] for
    that same [o], the op, its list, block and region come back physically.
    A rewrite that changes nothing therefore returns its input ([==]), which
    is how callers detect a fixpoint without comparing trees. [f] sees the
    ops left to right, each after everything nested in it. *)
let rec expand_ops f (ops : op list) =
  match ops with
  | [] -> ops
  | o :: rest -> (
      let o' = with_regions o (expand_regions f o.regions) in
      let here = f o' in
      let rest' = expand_ops f rest in
      match here with
      | [ x ] when x == o && rest' == rest -> ops
      | [ x ] -> x :: rest'
      | _ -> here @ rest')

and expand_regions f (rs : region list) =
  match rs with
  | [] -> rs
  | r :: rest ->
      let r' = expand_blocks f r in
      let rest' = expand_regions f rest in
      if r' == r && rest' == rest then rs else r' :: rest'

and expand_blocks f (bs : block list) =
  match bs with
  | [] -> bs
  | b :: rest ->
      let bops = expand_ops f b.bops in
      let b' = if bops == b.bops then b else { b with bops } in
      let rest' = expand_blocks f rest in
      if b' == b && rest' == rest then bs else b' :: rest'

(** Apply [expand_ops] inside every block of an op (not to the op itself). *)
let expand_in_op f (o : op) = with_regions o (expand_regions f o.regions)

(** Post-order rewrite: children are rewritten first, then [f] is applied to
    the rebuilt op. [f] returns the replacement op. Shares unchanged subtrees
    the way {!expand_ops} does. *)
let map_op f (o : op) = f (expand_in_op (fun o -> [ f o ]) o)

(* [o] with [subst] applied to its operands; [o] itself when none changes. *)
let substitute_operands subst (o : op) =
  let sub v = match Value_map.find_opt v.vid subst with Some v' -> v' | None -> v in
  let operands = List.map sub o.operands in
  if List.for_all2 ( == ) operands o.operands then o else { o with operands }

(** Substitute operand values throughout the tree according to [subst] (a map
    from value id to value). Result values and block args are untouched. *)
let substitute_uses subst o = map_op (substitute_operands subst) o

let substitute_uses_in_ops subst ops =
  expand_ops (fun o -> [ substitute_operands subst o ]) ops

(** All values used as operands anywhere inside [o]. *)
let used_values o =
  fold_ops (fun acc o -> List.fold_left (fun s v -> Value_set.add v.vid s) acc o.operands)
    Value_set.empty o

(** All values defined (results + block args) anywhere inside [o], including
    [o]'s own results. *)
let defined_values o =
  fold_ops
    (fun acc o ->
      let acc = List.fold_left (fun s v -> Value_set.add v.vid s) acc o.results in
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc b -> List.fold_left (fun s v -> Value_set.add v.vid s) acc b.bargs)
            acc r)
        acc o.regions)
    Value_set.empty o

(** Visit each free value of [o] exactly once, in first-use (pre-order)
    order: values used inside [o] but not defined inside it (captures from
    enclosing scopes; operands of [o] itself are included). Leaf ops (no
    regions) take an allocation-free fast path — an SSA op cannot use its own
    results, so every operand is free. The scheduler builds one dependency
    graph per block with a free-value query per node, so no {!Value_set} is
    materialized. *)
let iter_free_values f (o : op) =
  match o.regions with
  | [] -> (
      match o.operands with
      | [] -> ()
      | [ v ] -> f v
      | [ a; b ] ->
          f a;
          if b.vid <> a.vid then f b
      | vs ->
          let seen = ref [] in
          List.iter
            (fun (v : value) ->
              if not (List.memq v.vid !seen) then begin
                seen := v.vid :: !seen;
                f v
              end)
            vs)
  | _ ->
      let defined = Vid_tbl.create 32 in
      iter_op
        (fun o ->
          List.iter (fun (v : value) -> Vid_tbl.replace defined v.vid ()) o.results;
          (* bargs are not visited as ops; collect them per region here *)
          List.iter
            (List.iter (fun (b : block) ->
                 List.iter (fun (v : value) -> Vid_tbl.replace defined v.vid ()) b.bargs))
            o.regions)
        o;
      let seen = Vid_tbl.create 32 in
      iter_op
        (fun o ->
          List.iter
            (fun (v : value) ->
              if not (Vid_tbl.mem defined v.vid || Vid_tbl.mem seen v.vid) then begin
                Vid_tbl.replace seen v.vid ();
                f v
              end)
            o.operands)
        o
