(** The [-simplify-memref-access] pass (§5.4): folds identical memory reads
    (same memref, same access map and operands) within a block when no
    intervening operation may write the memref — reducing memory port
    pressure before scheduling.

    Ops that carry regions ([affine.for], [affine.if], ...) act as barriers
    even when their bodies provably never write the memref: unroll/guard
    specialization can delete one side of a load pair that straddles a
    region op, so coalescing across it on the rolled module would pin the
    surviving load at a different position than cleanup of the materialized
    (unrolled) module chooses. Keeping the pass straight-line makes the
    symbolic and materialized evaluation paths converge structurally. *)

open Mir
open Dialects

module Key = Affine_d.Access_key
module Key_tbl = Affine_d.Access_tbl

let run_on_func _ctx f =
  let subst = ref Ir.Value_map.empty in
  let rec rewrite_block (b : Ir.block) =
    let seen : Ir.value Key_tbl.t = Key_tbl.create 16 in
    let bops =
      List.filter_map
        (fun o ->
          let o = rewrite_regions o in
          if o.Ir.name = "affine.load" then begin
            let k = Key.of_op o in
            match Key_tbl.find_opt seen k with
            | Some v ->
                subst := Ir.Value_map.add (Ir.result o).Ir.vid v !subst;
                None
            | None ->
                Key_tbl.replace seen k (Ir.result o);
                Some o
          end
          else if o.Ir.regions <> [] then begin
            (* Region ops are barriers (see header comment). *)
            Key_tbl.reset seen;
            Some o
          end
          else begin
            (* Writes invalidate the loads of that memref; a call may write
               any. No other op without regions writes memory. *)
            if Func.is_call o then Key_tbl.reset seen
            else if Memref.is_store o then begin
              let vid = (Memref.accessed_memref o).Ir.vid in
              let keys =
                Key_tbl.fold
                  (fun k _ acc -> if k.Key.memref = vid then k :: acc else acc)
                  seen []
              in
              List.iter (Key_tbl.remove seen) keys
            end;
            Some o
          end)
        b.Ir.bops
    in
    { b with Ir.bops = bops }
  and rewrite_regions (o : Ir.op) =
    { o with Ir.regions = List.map (List.map rewrite_block) o.Ir.regions }
  in
  let f = rewrite_regions f in
  if Ir.Value_map.is_empty !subst then f else Walk.substitute_uses !subst f

let pass = Pass.on_funcs "simplify-memref-access" run_on_func
