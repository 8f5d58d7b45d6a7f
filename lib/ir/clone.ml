(** Structure-preserving cloning with SSA renaming: every result value and
    block argument in the cloned subtree gets a fresh id; operands defined
    inside the subtree are remapped, and operands captured from outside follow
    [subst] (or stay as-is). Used by loop unrolling, function splitting, and
    the DSE engine (which transforms clones of the input module). *)

open Ir

let rec clone_op ctx (subst : value Value_map.t ref) (o : op) : op =
  let map_use v =
    match Value_map.find_opt v.vid !subst with Some v' -> v' | None -> v
  in
  let operands = List.map map_use o.operands in
  let results =
    List.map
      (fun v ->
        let v' = Ctx.fresh ctx v.vty in
        subst := Value_map.add v.vid v' !subst;
        v')
      o.results
  in
  let regions =
    List.map
      (List.map (fun b ->
           let bargs =
             List.map
               (fun v ->
                 let v' = Ctx.fresh ctx v.vty in
                 subst := Value_map.add v.vid v' !subst;
                 v')
               b.bargs
           in
           { bargs; bops = List.map (clone_op ctx subst) b.bops }))
      o.regions
  in
  { o with operands; results; regions }

(** Clone an op subtree. *)
let op ctx o = clone_op ctx (ref Value_map.empty) o

(** Clone a list of ops sharing one substitution environment (definitions made
    by earlier ops are visible to later ones). Returns the clones and the
    final substitution. *)
let ops ?(subst = Value_map.empty) ctx os =
  let s = ref subst in
  let clones = List.map (clone_op ctx s) os in
  (clones, !s)
