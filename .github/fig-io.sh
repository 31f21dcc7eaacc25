#!/usr/bin/env bash
# The paper's figures at smoke scale, reduced to what is exact from run
# to run: every page count, record count and page read and write.  What
# bench/main.exe derives from CPU time (the estimates, the CPU seconds
# and the speedups, printed with four decimals, or as a one-decimal
# factor before a reads/writes column) is masked to "~".
#
#   bash .github/fig-io.sh | diff bench/results/fig-io-smoke.txt -
#
# BENCH names the command that runs bench/main.exe (default: the built
# binary, from the repository root).
set -eo pipefail
${BENCH:-./_build/default/bench/main.exe} --smoke fig4a update-time fig4b fig4c ablation-root-star \
  | sed -E 's/[0-9]+\.[0-9]{4}/~/g; s/[0-9]+\.[0-9]x( +[0-9]+\/[0-9]+)/~x\1/'
