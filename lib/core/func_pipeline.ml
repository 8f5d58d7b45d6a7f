(** The [-func-pipelining] pass (§5.3.1): legalizes the target function by
    fully unrolling all loops it contains (and pipelining sub-functions),
    then sets the function pipeline directive with target II 1. Also hosts
    the function [dataflow] directive setter used by the graph-level flow. *)

open Mir
open Dialects

let pipeline_func ctx f =
  match Loop_unroll.unroll_nested ctx f with
  | None -> None
  | Some legalized ->
      Some
        (Hlscpp.set_func_directive legalized
           { Hlscpp.default_func_directive with Hlscpp.pipeline = true; target_ii = 1 })

(** Mark a function as a dataflow region (§4.3.1): all sub-functions called
    from it become concurrently executing, ping-pong-buffered stages. *)
let set_dataflow f =
  Hlscpp.set_func_directive f
    { Hlscpp.default_func_directive with Hlscpp.dataflow = true }

let pass =
  Pass.on_funcs "func-pipelining" (fun ctx f ->
      match pipeline_func ctx f with Some f' -> f' | None -> f)
