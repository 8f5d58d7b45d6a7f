(** The [-affine-store-forward] pass (§5.4): store-to-load forwarding and
    dead-store/dead-memory elimination.

    Rules implemented:
    1. Block-local forwarding: a load whose address (map + operands) matches
       a preceding store in the same block, with no intervening write to the
       memref, is replaced by the stored value.
    2. Dead store elimination: a store overwritten by a later store to the
       same address in the same block, with no intervening read of the
       memref, is dropped.
    3. Unused-memory elimination: a locally allocated memref that is never
       read has its stores and allocation removed. *)

open Mir
open Dialects

module Key = Affine_d.Access_key
module Key_tbl = Affine_d.Access_tbl

(* Does op [o] (recursively) read/write the memref [vid]? Used to decide
   whether a region op kills forwarding. Calls kill everything. *)
let touches ~write_only vid o =
  Walk.exists
    (fun x ->
      Func.is_call x
      || (Memref.is_store x && (Memref.accessed_memref x).Ir.vid = vid)
      || ((not write_only) && Memref.is_load x && (Memref.accessed_memref x).Ir.vid = vid))
    o

(* Rule 1 + 2 within a block; returns rewritten ops and a substitution for
   forwarded loads. *)
let forward_block (b : Ir.block) subst =
  (* available: access key -> (stored value, the store op), for forwarding. *)
  let available : (Ir.value * Ir.op) Key_tbl.t = Key_tbl.create 16 in
  let invalidate_memref vid =
    let keys =
      Key_tbl.fold (fun k _ acc -> if k.Key.memref = vid then k :: acc else acc) available []
    in
    List.iter (Key_tbl.remove available) keys
  in
  (* Invalidate only the entries a store may alias: provably-distinct
     addresses survive (essential after unrolling, where MAC chains to many
     distinct offsets of the same array interleave). *)
  let invalidate_may_alias (store : Ir.op) =
    let vid = (Memref.accessed_memref store).Ir.vid in
    let keys =
      Key_tbl.fold
        (fun k (_, prev) acc ->
          if k.Key.memref = vid && not (Affine_d.accesses_distinct store prev) then
            k :: acc
          else acc)
        available []
    in
    List.iter (Key_tbl.remove available) keys
  in
  let ops =
    List.filter_map
      (fun o ->
        if Memref.is_store o && o.Ir.name = "affine.store" then begin
          let k = Key.of_op o in
          invalidate_may_alias o;
          Key_tbl.replace available k (Memref.stored_value o, o);
          Some o
        end
        else if Memref.is_load o && o.Ir.name = "affine.load" then begin
          match Key_tbl.find_opt available (Key.of_op o) with
          | Some (v, _) ->
              subst := Ir.Value_map.add (Ir.result o).Ir.vid v !subst;
              None
          | None -> Some o
        end
        else begin
          (* Region ops / calls / plain memref ops invalidate what they may
             write. *)
          if o.Ir.regions <> [] || Func.is_call o || Memref.is_access o then begin
            let vids =
              Key_tbl.fold (fun k _ acc -> k.Key.memref :: acc) available []
              |> List.sort_uniq compare
            in
            List.iter
              (fun vid -> if touches ~write_only:true vid o then invalidate_memref vid)
              vids
          end;
          Some o
        end)
      b.Ir.bops
  in
  (* only loads are dropped: equal lengths mean nothing was forwarded *)
  if List.compare_lengths ops b.Ir.bops = 0 then b else { b with Ir.bops = ops }

(* Dead store elimination within a block (backward scan). *)
let dead_stores_block (b : Ir.block) =
  let overwritten : Ir.op Key_tbl.t = Key_tbl.create 16 in
  let keep = ref [] in
  List.iter
    (fun o ->
      if Memref.is_store o && o.Ir.name = "affine.store" then begin
        let k = Key.of_op o in
        if Key_tbl.mem overwritten k then () (* drop: dead store *)
        else begin
          Key_tbl.replace overwritten k o;
          keep := o :: !keep
        end
      end
      else begin
        (* A read of a memref (direct or nested) clears the pending
           overwrites it may alias; loads with provably distinct addresses
           keep theirs. Only region ops, calls and memref accesses can read
           memory: [touches] is false for every other op. *)
        let clear_for_load (load : Ir.op) =
          let vid = (Memref.accessed_memref load).Ir.vid in
          let keys =
            Key_tbl.fold
              (fun k later acc ->
                if k.Key.memref = vid && not (Affine_d.accesses_distinct load later)
                then k :: acc
                else acc)
              overwritten []
          in
          List.iter (Key_tbl.remove overwritten) keys
        in
        if Memref.is_load o && o.Ir.name = "affine.load" then clear_for_load o
        else if o.Ir.regions <> [] || Func.is_call o || Memref.is_access o then begin
          let vids =
            Key_tbl.fold (fun k _ acc -> k.Key.memref :: acc) overwritten []
            |> List.sort_uniq compare
          in
          List.iter
            (fun vid ->
              if touches ~write_only:false vid o then begin
                let keys =
                  Key_tbl.fold
                    (fun k _ acc -> if k.Key.memref = vid then k :: acc else acc)
                    overwritten []
                in
                List.iter (Key_tbl.remove overwritten) keys
              end)
            vids
        end;
        keep := o :: !keep
      end)
    (List.rev b.Ir.bops);
  if List.compare_lengths !keep b.Ir.bops = 0 then b else { b with Ir.bops = !keep }

(** Rule 3's victims in [f]: [writeonly_memory f o] holds when [o] is an
    alloc nothing reads, or a store to a memref nothing reads. A memref is
    read when an op loads it, copies it, passes it to a call or returns it;
    the function's arguments are externally visible, so they count as read. *)
let writeonly_memory f =
  let loaded = Ir.Vid_tbl.create 32 in
  let mark (v : Ir.value) = Ir.Vid_tbl.replace loaded v.Ir.vid () in
  Walk.iter_op
    (fun o ->
      if Memref.is_load o then mark (Memref.accessed_memref o)
      else if Func.is_call o || o.Ir.name = "memref.copy" || Func.is_return o then
        List.iter mark o.Ir.operands)
    f;
  List.iter mark (Func.func_args f);
  fun o ->
    (o.Ir.name = "memref.alloc" && not (Ir.Vid_tbl.mem loaded (Ir.result o).Ir.vid))
    || (Memref.is_store o && not (Ir.Vid_tbl.mem loaded (Memref.accessed_memref o).Ir.vid))

(* Rule 3: allocs never loaded -> drop their stores and the alloc. *)
let drop_writeonly_memrefs f =
  let dead = writeonly_memory f in
  Walk.expand_in_op (fun o -> if dead o then [] else [ o ]) f

let run_on_func _ctx f =
  let subst = ref Ir.Value_map.empty in
  (* Rewrites every block inside out; a subtree nothing changed in is kept
     as is. *)
  let rec rewrite (o : Ir.op) : Ir.op =
    let regions = List.map (List.map rewrite_block) o.Ir.regions in
    if List.for_all2 (List.for_all2 ( == )) regions o.Ir.regions then o
    else { o with Ir.regions }
  and rewrite_block (b : Ir.block) =
    let bops = List.map rewrite b.Ir.bops in
    let b = if List.for_all2 ( == ) bops b.Ir.bops then b else { b with Ir.bops } in
    dead_stores_block (forward_block b subst)
  in
  let f = rewrite f in
  let f = if Ir.Value_map.is_empty !subst then f else Walk.substitute_uses !subst f in
  drop_writeonly_memrefs f

let pass = Pass.on_funcs "affine-store-forward" run_on_func
