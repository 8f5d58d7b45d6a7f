(** Structural fingerprinting: a 64-bit bottom-up hash of an operation tree
    that is invariant under SSA value renumbering but sensitive to every
    structural feature — op names, attributes (with constructor tags, so
    [Int 4] and [Float 4.] differ), result/operand types, region shape, and
    the def-use wiring between ops.

    Value identity is abstracted by local value numbering: results and block
    arguments are numbered in pre-order definition order, and operands defined
    outside the fingerprinted tree ("free" values) are numbered by first use
    under a distinct tag. Two ops built by independent {!Ir.Ctx}s therefore
    fingerprint equally iff they are structurally identical.

    The DSE uses fingerprints as O(1) cache keys: for the evaluation cache
    (pre-module fingerprint × directive configuration) and for the estimator
    memo table (transformed-module fingerprint). *)

(* splitmix64 finalizer: a cheap, well-distributed 64-bit mixer. *)
let mix (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let combine (h : int64) (x : int64) : int64 =
  mix (Int64.add (Int64.mul h 0x9e3779b97f4a7c15L) x)

let of_int h i = combine h (Int64.of_int i)

let of_string h s =
  (* FNV-1a over the bytes, folded into the running hash. *)
  let fnv = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    fnv :=
      Int64.mul
        (Int64.logxor !fnv (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  combine h !fnv

(* Constructor tags keep differently-typed but identically-printed payloads
   apart (e.g. Attr.Int 4 vs Attr.Float 4., or a Str that spells a type). *)
let tag h t = combine h (Int64.of_int (0x51 + t))

(* Local value numbering state: vid -> local number, plus a per-walk type
   memo (a module mentions few distinct types but very many values; keeping
   the memo walk-local avoids shared mutable state across DSE domains).

   [free_hook] is folded into the hash at the first use of each free value:
   callers use it to hash the *environment* of a subtree (e.g. the ranges of
   enclosing induction variables) so the fingerprint keys analyses whose
   result depends on context, not just on subtree structure. [attr_hook] can
   rewrite attributes before hashing (e.g. normalize a directive field the
   analysis is independent of). *)
type numbering = {
  nums : (int, int) Hashtbl.t;
  tys : (Ty.t, int64) Hashtbl.t;
  mutable next : int;
  free_hook : Ir.value -> int64;
  attr_hook : string -> Attr.t -> Attr.t;
}

let no_free_hook (_ : Ir.value) = 0L
let no_attr_hook (_ : string) (a : Attr.t) = a

(* Types hash via their precise printed form (layout maps and memory spaces
   included). *)
let ty_hash st (t : Ty.t) : int64 =
  match Hashtbl.find_opt st.tys t with
  | Some h -> h
  | None ->
      let h = of_string (tag 0L 1) (Ty.to_string t) in
      Hashtbl.add st.tys t h;
      h

(* Affine payloads hash structurally rather than via their printed form:
   map/set attributes are the most common attrs on the DSE hot path
   (affine.load/store/apply/if all carry one) and pretty-printing them
   dominated the old hash cost. *)
let rec expr_hash (e : Affine.Expr.t) : int64 =
  match e with
  | Affine.Expr.Dim i -> of_int (tag 0L 20) i
  | Affine.Expr.Sym i -> of_int (tag 0L 21) i
  | Affine.Expr.Const c -> of_int (tag 0L 22) c
  | Affine.Expr.Add (a, b) -> combine (combine (tag 0L 23) (expr_hash a)) (expr_hash b)
  | Affine.Expr.Mul (a, b) -> combine (combine (tag 0L 24) (expr_hash a)) (expr_hash b)
  | Affine.Expr.Mod (a, b) -> combine (combine (tag 0L 25) (expr_hash a)) (expr_hash b)
  | Affine.Expr.Floor_div (a, b) ->
      combine (combine (tag 0L 26) (expr_hash a)) (expr_hash b)
  | Affine.Expr.Ceil_div (a, b) ->
      combine (combine (tag 0L 27) (expr_hash a)) (expr_hash b)

let map_hash (m : Affine.Map.t) : int64 =
  let h = of_int (of_int (tag 0L 17) (Affine.Map.num_dims m)) (Affine.Map.num_syms m) in
  List.fold_left (fun h e -> combine h (expr_hash e)) h (Affine.Map.results m)

let set_hash (s : Affine.Set_.t) : int64 =
  let h = of_int (of_int (tag 0L 18) (Affine.Set_.num_dims s)) (Affine.Set_.num_syms s) in
  List.fold_left
    (fun h (c : Affine.Set_.constraint_) ->
      combine (combine h (expr_hash c.Affine.Set_.expr)) (if c.Affine.Set_.eq then 1L else 2L))
    h
    (Affine.Set_.constraints s)

let rec attr_hash st (a : Attr.t) : int64 =
  match a with
  | Attr.Unit -> tag 0L 10
  | Attr.Bool b -> combine (tag 0L 11) (if b then 1L else 0L)
  | Attr.Int i -> of_int (tag 0L 12) i
  | Attr.Float f -> combine (tag 0L 13) (Int64.bits_of_float f)
  | Attr.Str s -> of_string (tag 0L 14) s
  | Attr.Ty t -> combine (tag 0L 15) (ty_hash st t)
  | Attr.Arr xs ->
      List.fold_left (fun h x -> combine h (attr_hash st x)) (tag 0L 16) xs
  | Attr.Map m -> map_hash m
  | Attr.Set s -> set_hash s
  | Attr.Dict kvs ->
      List.fold_left
        (fun h (k, v) -> combine (of_string h k) (attr_hash st v))
        (tag 0L 19) kvs

let free_bit = 1 lsl 30 (* distinguishes free values from local definitions *)

let number st v =
  Hashtbl.replace st.nums v.Ir.vid st.next;
  st.next <- st.next + 1

(* Operand hash: local number + type, plus the free-environment hash the
   first time a free value is seen. *)
let operand_hash st h v =
  match Hashtbl.find_opt st.nums v.Ir.vid with
  | Some n -> combine (of_int h n) (ty_hash st v.Ir.vty)
  | None ->
      (* Free value: number by first use, tagged apart from definitions. *)
      let n = st.next lor free_bit in
      Hashtbl.replace st.nums v.Ir.vid n;
      st.next <- st.next + 1;
      combine (combine (of_int h n) (ty_hash st v.Ir.vty)) (st.free_hook v)

let rec op_hash st (o : Ir.op) : int64 =
  let h = of_string (tag 0L 2) o.Ir.name in
  let h = List.fold_left (fun h v -> operand_hash st h v) (tag h 3) o.Ir.operands in
  (* Results are numbered here (pre-order definition point) and their types
     folded in; their local numbers are implied by position. *)
  let h =
    List.fold_left
      (fun h v ->
        number st v;
        combine h (ty_hash st v.Ir.vty))
      (tag h 4) o.Ir.results
  in
  let h =
    List.fold_left
      (fun h (k, v) -> combine (of_string h k) (attr_hash st (st.attr_hook k v)))
      (tag h 5) o.Ir.attrs
  in
  List.fold_left
    (fun h (r : Ir.region) ->
      List.fold_left
        (fun h (b : Ir.block) ->
          let h =
            List.fold_left
              (fun h v ->
                number st v;
                combine h (ty_hash st v.Ir.vty))
              (tag h 7) b.Ir.bargs
          in
          List.fold_left (fun h o -> combine h (op_hash st o)) h b.Ir.bops)
        (tag h 6) r)
    h o.Ir.regions

let fresh_st ?(free_hook = no_free_hook) ?(attr_hook = no_attr_hook) () =
  { nums = Hashtbl.create 256; tys = Hashtbl.create 16; next = 0; free_hook; attr_hook }

(** Fingerprint of an operation tree. Pure function of the op's structure:
    independent of vids, of the minting {!Ir.Ctx}, and of physical sharing. *)
let op (o : Ir.op) : int64 = op_hash (fresh_st ()) o

(** Fingerprint of a subtree *in context*: like {!op}, but [free_hook] is
    folded in at the first use of every free value (letting callers hash the
    subtree's environment — e.g. enclosing loop ranges), and [attr_hook] can
    rewrite attributes before hashing (e.g. zero out a directive field the
    keyed analysis is independent of). This is the key for the DSE's per-band
    estimator memo: two bands collide iff they are structurally identical
    *and* sit in hash-identical environments. *)
let subtree ?free_hook ?attr_hook (o : Ir.op) : int64 =
  op_hash (fresh_st ?free_hook ?attr_hook ()) o

(** Per-function fingerprints of a module: [(name, fp)] for each func op,
    each numbered independently (so a function's hash is stable when sibling
    functions change). *)
let funcs (m : Ir.op) : (string * int64) list =
  List.map (fun f -> (Ir.func_name f, op f)) (Ir.module_funcs m)

(** Fingerprint as a hex string (stable across runs; handy for logs/keys). *)
let to_hex (h : int64) = Printf.sprintf "%016Lx" h
