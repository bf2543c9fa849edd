#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it.
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error; the benchmark's report, ending in
# one JSON line, to standard output.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
