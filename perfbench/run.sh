#!/bin/sh
# Build the benchmark from source in the current checkout, then run it:
#
#   sh perfbench/run.sh --workload kernels-j1 --seed 42 --seconds 20 --trace 0
#   sh perfbench/run.sh compare DIR_A DIR_B
#
# Run from the root of a checkout. Build output stays in the checkout
# (_build/, plus dune's XDG cache redirected under .bench_build/); the
# shared dune cache is disabled so nothing is written outside it.
set -eu
mkdir -p .bench_build
XDG_CACHE_HOME="$(pwd)/.bench_build/xdg-cache"
export XDG_CACHE_HOME
dune build --root . --cache=disabled --display=quiet ./perfbench/e2e.exe 1>&2
exec ./_build/default/perfbench/e2e.exe "$@"
