#!/usr/bin/env bash
# Run one fault-matrix preset, print its report, and fail if the matrix
# fails or if the report shows a count below its floor, so that a change
# which silently checks less fails too.
#
#   bash .github/fault-matrix.sh 'LABEL=MIN'... -- PRESET [FLAGS]
#   bash .github/fault-matrix.sh 'crash images=146' checked=80 -- crash --smoke
#
# RTA_CLI names the command that runs rta_cli (default: through opam and
# dune from the repository root).
set -u
floors=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  floors+=("$1")
  shift
done
[ $# -gt 0 ] && shift
# shellcheck disable=SC2086 # RTA_CLI is a command line, split on purpose
out=$(${RTA_CLI:-opam exec -- dune exec bin/rta_cli.exe --} fault-matrix "$@")
status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
for floor in "${floors[@]}"; do
  label=${floor%=*}
  min=${floor##*=}
  n=$(echo "$out" | sed -n "s/.*[:,] $label \([0-9][0-9]*\).*/\1/p" | head -n 1)
  [ "${n:-0}" -ge "$min" ] || { echo "$label: ${n:-missing}, fewer than $min"; exit 1; }
done
