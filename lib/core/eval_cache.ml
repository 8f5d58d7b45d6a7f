(** A small thread-safe memoization table with hit/miss accounting, shared by
    the DSE engine's memos: the (lp, rvb) preprocessing cache (4 combos,
    previously recomputed for every design point), the transform memo, the
    estimator's band memo and the per-point evaluation cache. Keys use
    structural equality/hashing.

    Safe to use from multiple domains: lookups and inserts are serialized by a
    mutex, but {!find_or_add} runs the producer *outside* the lock so slow
    computations (a full transform pipeline) don't stall other workers.
    Fills are single-flight: the first caller to miss a key marks it pending
    and produces it; any other caller that asks for a pending key waits for
    that value instead of computing it again, and counts as a hit. A cache
    shared by [N] domains therefore runs each producer once and counts
    exactly the hits and misses one domain would, whatever the interleaving.
    A producer that raises clears its mark and wakes the waiters; one of
    them then produces (a miss, as a sequential retry would be), and a
    failed key is never cached.

    Invariant: a producer never looks up its own key in the same cache — it
    would wait for itself. The engine's producers (preprocessing, the
    transform pipeline, band scheduling) touch no memo at all: a band is
    memoizable only without nested pipelined loops or calls, so its schedule
    never consults the band memo. *)

type ('k, 'v) t = {
  tbl : ('k, 'v) Hashtbl.t;
  pending : ('k, unit) Hashtbl.t;  (** keys whose producer is running *)
  lock : Mutex.t;
  filled : Condition.t;  (** broadcast whenever a pending key resolves *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(size = 64) () =
  {
    tbl = Hashtbl.create size;
    pending = Hashtbl.create 8;
    lock = Mutex.create ();
    filled = Condition.create ();
    hits = 0;
    misses = 0;
  }

let with_lock c f = Mutex.protect c.lock f

(** Counted lookup: bumps the hit or miss counter. Never waits: a pending
    key is a miss. *)
let find_opt c k =
  with_lock c (fun () ->
      match Hashtbl.find_opt c.tbl k with
      | Some v ->
          c.hits <- c.hits + 1;
          Some v
      | None ->
          c.misses <- c.misses + 1;
          None)

(** Uncounted lookup: reads a binding without touching the hit/miss
    counters (a pending key is absent). *)
let peek c k = with_lock c (fun () -> Hashtbl.find_opt c.tbl k)

(** Insert-if-absent; an existing binding is kept (first writer wins). *)
let add c k v =
  with_lock c (fun () -> if not (Hashtbl.mem c.tbl k) then Hashtbl.add c.tbl k v)

(** [find_or_add c k produce] returns the cached value for [k], computing and
    inserting it with [produce] on a miss. [produce] runs outside the lock,
    at most once per key at a time (see the header). A call counts a miss
    exactly when its own [produce] runs, and a hit otherwise — so a caller
    can keep its own per-call counts by watching its producer. *)
let find_or_add c k produce =
  (* Under the lock: [Some v] on a hit (waiting out a pending fill first),
     [None] once this caller owns the fill. *)
  let rec claim () =
    match Hashtbl.find_opt c.tbl k with
    | Some v ->
        c.hits <- c.hits + 1;
        Some v
    | None when Hashtbl.mem c.pending k ->
        Condition.wait c.filled c.lock;
        claim ()
    | None ->
        c.misses <- c.misses + 1;
        Hashtbl.replace c.pending k ();
        None
  in
  match with_lock c claim with
  | Some v -> v
  | None -> (
      let resolve insert =
        with_lock c (fun () ->
            let r = insert () in
            Hashtbl.remove c.pending k;
            Condition.broadcast c.filled;
            r)
      in
      match produce () with
      | v ->
          resolve (fun () ->
              match Hashtbl.find_opt c.tbl k with
              | Some existing -> existing (* an [add] got there first *)
              | None ->
                  Hashtbl.add c.tbl k v;
                  v)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          resolve ignore;
          Printexc.raise_with_backtrace e bt)

let hits c = with_lock c (fun () -> c.hits)
let misses c = with_lock c (fun () -> c.misses)
let length c = with_lock c (fun () -> Hashtbl.length c.tbl)

(** Snapshot of the current bindings, e.g. for persistence. Taken under the
    lock; the order is unspecified (callers that need a stable order sort by
    key). Pending keys are not bindings yet. *)
let bindings c =
  with_lock c (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.tbl [])
