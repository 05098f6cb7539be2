#!/usr/bin/env bash
# The benchmark's one command. Builds the programs under test
# (cmd/caesar, cmd/lrgen) and the benchmark's own two programs from
# source, then hands every argument to the driver:
#
#   benchmark/run.sh                       all six workloads, gated metrics
#   benchmark/run.sh --traced              all six, per-layer metrics
#   benchmark/run.sh --workload toll --seed 3 --seconds 12 --trace 0
#                                          one workload, ending in one JSON line
#   benchmark/run.sh --selfcheck           the suite twice, must agree
#   benchmark/run.sh --regen-golden        rewrite golden/ for --seed
#   benchmark/run.sh --compare A.json B.json
#
# Everything it writes stays inside the checkout: binaries, the Go
# build cache and scratch files under .bench_build/, result files
# under benchmark/results/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$root" && go build -o "$build/bin/" ./cmd/caesar ./cmd/lrgen)
(cd "$root/benchmark" && go build -o "$build/bin/benchdriver" ./driver)

# The layer probe imports the engine's packages and may stop compiling
# when they are refactored; the end-to-end side must not care.
if ! (cd "$root/benchmark" && go build -tags benchlayers -o "$build/bin/benchlayers" ./layers); then
	rm -f "$build/bin/benchlayers"
	echo "layers: unavailable, the probe no longer compiles (only the traced run uses it)" >&2
fi

exec "$build/bin/benchdriver" -root "$root" -bin "$build/bin" -tmp "$build/tmp" "$@"
