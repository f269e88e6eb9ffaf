#!/usr/bin/env bash
# Builds the cellbench benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash cellbench/run.sh --workload ring-ac3 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the
# serve workload's checkpoints, and traced runs' spans and folded
# profiles. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/out"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters under the
# user config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/cellbench" .)
exec "$build/cellbench" --out "$build/out" "$@"
