(** An in-process [Serve.Server] on a Unix socket inside the checkout, and
    the client side of its line-delimited JSON protocol. The socket path is
    relative (to the checkout root the benchmark runs from), which keeps it
    under the Unix-socket path limit wherever the checkout lives. *)

module Json = Obs.Json

let socket = Filename.concat Results.out_dir "serve.sock"
let store_path = Filename.concat Results.out_dir "serve-store.jsonl"

(* [Server.create] registers a metrics collector that is never removed, so
   it keeps the server — its store, and the modules its estimator memo pins —
   alive for the rest of the process. A daemon creates one server; this
   benchmark creates two per rep, so it puts the collector list back when a
   server has stopped, or every rep would keep the previous reps' servers
   (tens of MB each) and peak memory would grow with the rep count. *)
let collectors () = Mutex.protect Obs.Metrics.collectors_lock (fun () -> !Obs.Metrics.collectors)

let restore_collectors saved =
  Mutex.protect Obs.Metrics.collectors_lock (fun () -> Obs.Metrics.collectors := saved)

(** Run [f] while a server with 2 worker domains serves the store file,
    with periodic checkpoints off (the benchmark checkpoints explicitly).
    Afterwards the server is stopped and waited for: it drains, checkpoints,
    shuts its pool down and removes the socket. *)
let with_server f =
  let saved = collectors () in
  let t = Serve.Server.create ~socket ~store_path ~jobs:2 ~checkpoint_every:0. () in
  let th = Thread.create Serve.Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop t;
      Thread.join th;
      restore_collectors saved)
    f

type conn = { ic : in_channel; oc : out_channel }

(** Connect, retrying for up to 10 s while the server is still binding its
    socket. Retries yield to the server's thread rather than sleep, so the
    time to connect (part of the restart set-up sample) carries no sleep
    granularity. *)
let connect () =
  let t0 = Obs.Clock.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Obs.Clock.since_s t0 < 10. ->
        Unix.close fd;
        Thread.yield ();
        go ()
  in
  go ()

let close c = try close_in c.ic with Sys_error _ -> ()

let with_conn f =
  let c = connect () in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

(** Send one request and wait for its final response, skipping the
    streamed [ack] and [frontier] lines. Returns the response and the
    client-side latency from request write to response line. *)
let call c req =
  let t0 = Obs.Clock.now_ns () in
  output_string c.oc (Json.to_string req);
  output_char c.oc '\n';
  flush c.oc;
  let rec read () =
    match Json.of_string (input_line c.ic) with
    | Error msg -> failwith ("undecodable response: " ^ msg)
    | Ok j -> (
        match Json.member "resp" j with
        | Some (Json.String ("ack" | "frontier")) -> read ()
        | _ -> j)
  in
  let j = read () in
  (j, Obs.Clock.since_s t0)

let simple req = Json.Obj [ ("req", Json.String req) ]

(** A finished search as the protocol reports it. *)
type reply = {
  frontier : Search.digest;
  best : Scalehls.Dse.point option;
  server_wall : float;  (** the server's own wall time for the search *)
  hits : int;  (** evaluation-cache hits: points served warm *)
  misses : int;
  latency : float;  (** client-side, request write to result line *)
}

let search c ~seed (d : Search.design) =
  let req =
    Serve.Protocol.search_request
      ~design:(Serve.Protocol.C_source { src = Search.source d; top = Search.top d })
      ~config:(Search.config ~seed d)
  in
  let j, latency = call c req in
  match Json.member "resp" j with
  | Some (Json.String "result") ->
      let list k = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
      let stat k =
        match Option.bind (Json.member "stats" j) (Json.member k) with
        | Some (Json.Int i) -> i
        | _ -> failwith ("result without stats." ^ k)
      in
      {
        frontier = Search.digest (List.map Serve.Codec.evaluated_of_json (list "pareto"));
        best =
          (match Json.member "best" j with
          | Some Json.Null | None -> None
          | Some b -> Some (Serve.Codec.evaluated_of_json b).Scalehls.Dse.point);
        server_wall =
          (match Option.bind (Json.member "wall_s" j) Json.to_float_opt with
          | Some w -> w
          | None -> failwith "result without wall_s");
        hits = stat "cache_hits";
        misses = stat "cache_misses";
        latency;
      }
  | Some (Json.String "error") ->
      failwith
        (match Json.member "message" j with
        | Some (Json.String m) -> "server error: " ^ m
        | _ -> "server error")
  | _ -> failwith ("unexpected response " ^ Json.to_string j)
