#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it:
#   bash perf/run.sh --workload W --seed S --seconds T --trace 0|1
#   bash perf/run.sh run [--quick] [--seed S]
#   bash perf/run.sh compare A/ B/
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"
