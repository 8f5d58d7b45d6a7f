(** The core IR data structures: SSA values, operations carrying attributes
    and nested regions, blocks, and regions — a faithful miniature of MLIR's
    op/region model (§2.1 of the paper). Operations are immutable trees;
    transformations build new subtrees, and fresh SSA values are minted from a
    {!Ctx.t}. *)

type value = { vid : int; vty : Ty.t }

type op = {
  name : string;  (** fully-qualified, e.g. ["affine.for"] *)
  operands : value list;
  results : value list;
  attrs : (string * Attr.t) list;
  regions : region list;
}

and block = { bargs : value list; bops : op list }
and region = block list

module Ctx = struct
  (* Atomic so that a context can be shared across domains: the parallel DSE
     engine evaluates design points concurrently, and every mint must stay
     unique even under contention. *)
  type t = { next_id : int Atomic.t }

  let create () = { next_id = Atomic.make 0 }

  let fresh ctx vty =
    let vid = Atomic.fetch_and_add ctx.next_id 1 in
    { vid; vty }

  (** Create a context whose counter is past every value in [op] — used when
      resuming transformation of a parsed/deserialized module. *)
  let rec seed_from_op ctx (o : op) =
    let rec bump v =
      let cur = Atomic.get ctx.next_id in
      if v.vid >= cur && not (Atomic.compare_and_set ctx.next_id cur (v.vid + 1))
      then bump v
    in
    List.iter bump o.results;
    List.iter bump o.operands;
    List.iter
      (List.iter (fun b ->
           List.iter bump b.bargs;
           List.iter (seed_from_op ctx) b.bops))
      o.regions

  let of_op o =
    let ctx = create () in
    seed_from_op ctx o;
    ctx
end

module Value_map = Map.Make (Int)
module Value_set = Set.Make (Int)

(** Hash tables keyed by value id. Monomorphic: a lookup hashes and
    compares one int inline, where a polymorphic [Hashtbl] calls the
    runtime's generic hash and compare. Value ids are small, dense and
    non-negative, so the identity is a good hash. *)
module Vid_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(* ---- Construction ------------------------------------------------------- *)

let mk ?(attrs = []) ?(regions = []) name ~operands ~results =
  { name; operands; results; attrs; regions }

(** Build an op minting fresh result values of the given types. Returns the op
    together with its results. *)
let mk_fresh ctx ?(attrs = []) ?(regions = []) name ~operands ~result_tys =
  let results = List.map (Ctx.fresh ctx) result_tys in
  (mk ~attrs ~regions name ~operands ~results, results)

let block ?(args = []) ops = { bargs = args; bops = ops }

(* ---- Attribute access --------------------------------------------------- *)

(* First-order scan with a physical-equality fast path: directive keys are
   shared constants ([Hlscpp.loop_directive_key]), so the common case
   resolves without byte-wise string comparison — this lookup runs once per
   op per directive-aware walk on the DSE hot path. *)
let attr o key =
  let rec find = function
    | [] -> None
    | (k, v) :: rest -> if k == key || String.equal k key then Some v else find rest
  in
  find o.attrs

let has_attr o key =
  let rec find = function
    | [] -> false
    | (k, _) :: rest -> k == key || String.equal k key || find rest
  in
  find o.attrs

let attr_exn o key =
  match attr o key with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ir.attr_exn: op %s has no attr %s" o.name key)

let set_attr o key v = { o with attrs = (key, v) :: List.remove_assoc key o.attrs }

let int_attr o key = Attr.as_int (attr_exn o key)
let str_attr o key = Attr.as_str (attr_exn o key)
let map_attr o key = Attr.as_map (attr_exn o key)

(* ---- Accessors ---------------------------------------------------------- *)

let result o =
  match o.results with
  | [ r ] -> r
  | _ -> invalid_arg (Printf.sprintf "Ir.result: op %s has %d results" o.name (List.length o.results))

let region o i =
  match List.nth_opt o.regions i with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Ir.region: op %s has no region %d" o.name i)

(** The single block of the op's single region (e.g. loop bodies). *)
let body_block o =
  match o.regions with
  | [ [ b ] ] -> b
  | _ -> invalid_arg (Printf.sprintf "Ir.body_block: op %s" o.name)

let body_ops o = (body_block o).bops

let with_body o ops =
  match o.regions with
  | [ [ b ] ] -> { o with regions = [ [ { b with bops = ops } ] ] }
  | _ -> invalid_arg (Printf.sprintf "Ir.with_body: op %s" o.name)

(* ---- Module / function conventions -------------------------------------- *)

(** A module is the op ["module"] with one region, one block, containing
    ["func"] ops. *)
let module_ ops = mk "module" ~operands:[] ~results:[] ~regions:[ [ block ops ] ]

let module_funcs m =
  if m.name <> "module" then invalid_arg "Ir.module_funcs: not a module";
  List.filter (fun o -> o.name = "func") (body_ops m)

let module_map_funcs f m =
  with_body m (List.map (fun o -> if o.name = "func" then f o else o) (body_ops m))

let func_name f = str_attr f "sym_name"

let func_type f =
  match Attr.as_ty (attr_exn f "function_type") with
  | Ty.Fn { inputs; outputs } -> (inputs, outputs)
  | _ -> invalid_arg "Ir.func_type"

let find_func m name =
  List.find_opt (fun f -> func_name f = name) (module_funcs m)

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Ir.find_func_exn: no func %s" name)

(** Replace (by symbol name) or append a function in a module. *)
let replace_func m f =
  let name = func_name f in
  let found = ref false in
  let ops =
    List.map
      (fun o ->
        if o.name = "func" && func_name o = name then begin
          found := true;
          f
        end
        else o)
      (body_ops m)
  in
  with_body m (if !found then ops else ops @ [ f ])
