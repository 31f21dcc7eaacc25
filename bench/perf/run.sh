#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one benchmark
# invocation from the root of the checkout:
#
#   bash bench/perf/run.sh --workload query-mem --seed 3 --seconds 10 --trace 0
#
# Every argument goes to `perf.exe run`.  The build output goes to stderr,
# so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled

dune build --root . bin/rta_cli.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run --cli ./_build/default/bin/rta_cli.exe "$@"
