(** The four workloads. Each names the designs it searches; the reasons
    they were chosen are in README.md and BENCHMARK.json. Problem sizes are
    small enough that one rep takes a few seconds, so a run of
    [--seconds] holds several reps and reports medians. *)

module Poly = Models.Polybench

type kind =
  | Dse of { jobs : int }  (** in-process searches; [jobs > 1]: one shared pool *)
  | Serve_mixed of { fill : Search.design list; cold : Search.design list }

type t = {
  name : string;
  kind : kind;
  designs : Search.design list;
  rep_s : float;  (** nominal seconds of one rep on the reference host (README) *)
}

let kernels = Poly.[ Bicg; Gemm; Gesummv; Syrk; Syr2k ]
let design strategy n kernel = { Search.kernel; n; strategy }

(* Sizes at which every kernel's search costs about the same (0.25-0.5 s
   on the reference host), so that no one search dominates a rep: one search's time moves
   10-20 % with its seed, and a rep's time averages over all five. *)
let table3 =
  List.map
    (fun (k, n) -> design "exhaustive" n k)
    Poly.[ (Bicg, 16); (Gemm, 12); (Gesummv, 16); (Syrk, 12); (Syr2k, 12) ]

(* The serve fill is sized apart from the cold searches ([table3]), so the
   two share no evaluation-cache entry; at N=10 each fill search takes
   tens of milliseconds, and most of a rep is the mixed phase. *)
let fill =
  List.concat_map
    (fun k -> [ design "exhaustive" 10 k; design "surrogate" 10 k ])
    kernels

(* trmm-12's best design moves with the seed (two modes, 2x apart); the
   smaller sizes, whose searches are cheap and always find the same best
   design, keep the run's quality geomean from following one search. *)
let trmm = List.map (fun n -> design "exhaustive" n Poly.Trmm) [ 6; 10; 12 ]

let all =
  [
    { name = "kernels-j1"; kind = Dse { jobs = 1 }; designs = table3; rep_s = 1.75 };
    { name = "trmm-estimate"; kind = Dse { jobs = 1 }; designs = trmm; rep_s = 1.3 };
    { name = "kernels-j2"; kind = Dse { jobs = 2 }; designs = table3; rep_s = 2.2 };
    {
      name = "serve-mixed";
      kind = Serve_mixed { fill; cold = table3 };
      designs = fill @ table3;
      rep_s = 4.1;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(** Every run makes at least this many reps, whatever its [--seconds]. *)
let min_reps = 3

(** The reps a run of [seconds] makes: as many as fill [seconds] at the
    nominal rep time, and at least [min_reps]. The count is fixed rather
    than "until the time is up" so that every run measures the same
    searches: on a slow moment a time-bounded run would drop its last reps,
    and its medians would move with which searches it dropped. *)
let reps w ~seconds = max min_reps (int_of_float (Float.round (seconds /. w.rep_s)))

(** Worker domains a workload's searches run on. *)
let jobs w = match w.kind with Dse { jobs } -> jobs | Serve_mixed _ -> 2

(** Every distinct design, for the golden file. *)
let all_designs () =
  List.sort_uniq compare (List.concat_map (fun w -> w.designs) all)
