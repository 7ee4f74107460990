#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload paper_cold --seed 1 --seconds 15 --trace 0
#
# It builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Everything the Go toolchain writes (build cache, link
# scratch space, its own configuration and counters) is pointed into
# .bench_build/ too, so nothing outside the checkout is touched; the first
# run of a checkout therefore also compiles the standard library. Snapshots
# and span files go to .bench_build/work. In a directory without the
# repository's go.mod and internal/ packages the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/work" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/racesim-bench" .) >&2
exec "$build/racesim-bench" -workdir "$build/work" "$@"
