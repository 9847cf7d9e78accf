#!/bin/sh
# Build the benchmark from the sources of the checkout it runs in, then
# run one workload.  From the repository root:
#
#   sh bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project or lib/ here; run it from the repository root" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout: keep the build inside.
DUNE_CACHE=disabled dune build --root . bench/e2e/sintra_bench.exe 1>&2
exec ./_build/default/bench/e2e/sintra_bench.exe "$@"
