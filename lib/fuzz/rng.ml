(** A self-contained splitmix64 PRNG for the fuzzing subsystem.

    The generator's determinism contract — identical seed ⇒ identical program
    stream, on every platform and OCaml release — is part of the corpus
    format ({!Corpus}), so the fuzzer cannot depend on [Stdlib.Random]'s
    unspecified, version-dependent algorithm. Splitmix64 is exactly specified
    over 64-bit integers, which [Int64] models losslessly everywhere. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* Finalization mix of splitmix64. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** Uniform draw in [0, bound); [bound] must be positive. Modulo bias is
    immaterial at fuzzing bounds (all well below 2^32). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(** True with probability [pct]/100. *)
let chance t pct = int t 100 < pct

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

(** An independent deterministic sub-stream: used to derive the per-program
    seed [i] of a run from the run seed without coupling the streams. *)
let derive seed i = Int64.to_int (Int64.shift_right_logical (mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int i))) 1)
