#!/usr/bin/env bash
# Build the loop benchmark from source and run it; see loopbench/NOTES.md.
#
#   bash loopbench/run.sh --workload check-cold|edit-recheck|simulate|verify \
#     --seed N --seconds S --trace 0|1
#
# Runs from the root of a checkout of the repository. Build output goes
# to stderr; the benchmark's report goes to stdout, ending with one
# JSON line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "loopbench: not a checkout of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --profile release ./loopbench/main.exe 1>&2
exec ./_build/default/loopbench/main.exe "$@"
