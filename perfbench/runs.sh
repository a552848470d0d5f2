#!/usr/bin/env bash
# Runs every workload ten times, each with another seed, and stores the
# results in perfbench/out/<name>/ for --compare. Run from the repository
# root:
#
#   bash perfbench/runs.sh a            # end-to-end runs, seeds 1..10
#   bash perfbench/runs.sh a 1          # traced runs instead
#   bash perfbench/run.sh --compare perfbench/out/a            # spreads
#   bash perfbench/run.sh --compare perfbench/out/a perfbench/out/b
set -euo pipefail

name="${1:?usage: runs.sh <name> [trace 0|1] [first seed]}"
trace="${2:-0}"
first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="perfbench/out/$name"
mkdir -p "$(dirname "$here")/$out"

for workload in paper_sweep fabric_dense fabric_sparse session_churn; do
	for ((seed = first; seed < first + 10; seed++)); do
		bash "$here/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" | tail -n 1
	done
done
