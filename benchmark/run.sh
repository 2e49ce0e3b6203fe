#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (README.md in this directory lists them).  The build
# goes to .bench_build, dune's shared cache stays off, and the build log
# goes to standard error, so the last line on standard output is the
# benchmark's result.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./benchmark/run.exe 1>&2
exec .bench_build/default/benchmark/run.exe "$@"
