(** Operations attempted and failed in one run. Every search, request and
    output check counts as one operation; a failure is printed to stderr
    as it happens. Thread-safe: serve client threads record here too. *)

type t = { lock : Mutex.t; mutable attempted : int; mutable failures : string list }

let create () = { lock = Mutex.create (); attempted = 0; failures = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ok t = locked t (fun () -> t.attempted <- t.attempted + 1)

let fail t msg =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      t.failures <- msg :: t.failures);
  prerr_endline ("FAILED: " ^ msg)

let check t = function Ok () -> ok t | Error msg -> fail t msg

(** Compare an output with its expected value. *)
let expect t ~what want got =
  if want = got then ok t else fail t (what ^ ": output differs from the expected one")

(** Run one operation; an exception is a failure and yields [None]. *)
let guard t what f =
  match f () with
  | v ->
      ok t;
      Some v
  | exception e ->
      fail t (what ^ ": " ^ Printexc.to_string e);
      None

let attempted t = locked t (fun () -> t.attempted)
let failed t = locked t (fun () -> List.length t.failures)
