(** The job registry: one record per submitted search, driving the [status]
    endpoint. Connection threads update their own job; status readers
    snapshot under the lock. Finished jobs are retained (bounded) so a
    client can see recent history. *)

module Json = Obs.Json

type state = Queued | Running | Done | Failed of string

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

type job = {
  id : int;
  label : string;  (** e.g. ["gemm-64"] or the top function name *)
  mutable state : state;
  mutable explored : int;  (** points merged so far (streamed progress) *)
  mutable frontier_size : int;
  submitted_ns : int64;
  mutable wall_s : float;  (** running: elapsed so far; finished: total *)
}

type t = {
  lock : Mutex.t;
  mutable jobs : job list;  (** newest first *)
  mutable next_id : int;
}

(** Finished jobs retained. *)
let keep = 64

let create () = { lock = Mutex.create (); jobs = []; next_id = 0 }

let finished j = match j.state with Done | Failed _ -> true | _ -> false

let submit t ~label =
  Mutex.lock t.lock;
  let j =
    {
      id = t.next_id;
      label;
      state = Queued;
      explored = 0;
      frontier_size = 0;
      submitted_ns = Obs.Clock.now_ns ();
      wall_s = 0.;
    }
  in
  t.next_id <- t.next_id + 1;
  let fresh, old = List.partition (fun j -> not (finished j)) t.jobs in
  t.jobs <- (j :: fresh) @ List.filteri (fun i _ -> i < keep) old;
  Mutex.unlock t.lock;
  j

(* Field writes are single-word stores under the registry lock so status
   snapshots never observe a half-updated record. *)
let update t j f =
  Mutex.lock t.lock;
  f j;
  j.wall_s <- Obs.Clock.since_s j.submitted_ns;
  Mutex.unlock t.lock

let start t j = update t j (fun j -> j.state <- Running)
let finish t j = update t j (fun j -> j.state <- Done)
let fail t j msg = update t j (fun j -> j.state <- Failed msg)

let progress t j ~explored ~frontier_size =
  update t j (fun j ->
      j.explored <- explored;
      j.frontier_size <- frontier_size)

let counts t =
  Mutex.lock t.lock;
  let count p = List.length (List.filter p t.jobs) in
  let r =
    ( count (fun j -> j.state = Queued),
      count (fun j -> j.state = Running),
      count (fun j -> j.state = Done),
      count (fun j -> match j.state with Failed _ -> true | _ -> false) )
  in
  Mutex.unlock t.lock;
  r

let to_status_json t =
  Mutex.lock t.lock;
  let jobs = t.jobs in
  let rows =
    List.map
      (fun j ->
        Json.Obj
          ([
             ("id", Json.Int j.id);
             ("label", Json.String j.label);
             ("state", Json.String (state_to_string j.state));
             ("explored", Json.Int j.explored);
             ("frontier_size", Json.Int j.frontier_size);
             ("wall_s", Json.Float j.wall_s);
           ]
          @
          match j.state with
          | Failed msg -> [ ("error", Json.String msg) ]
          | _ -> []))
      jobs
  in
  Mutex.unlock t.lock;
  Json.List rows
