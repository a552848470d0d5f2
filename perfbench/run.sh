#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; results and traces go to perfbench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep everything the toolchain writes inside the checkout, and off the network.
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# The module replaces mmr with the parent directory, so this fails (and the
# script exits non-zero) anywhere but inside the repository.
(cd "$here" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" "$@"
