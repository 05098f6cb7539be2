#!/usr/bin/env sh
# CI-grade verification: formatting, vet, build, the full test suite
# under the race detector, and a benchmark smoke run. The
# distributor/worker hand-off is concurrent by design, so every PR
# runs with -race.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# staticcheck is optional tooling: gate on it when present, skip
# gracefully (with a note) when the box doesn't have it installed.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping"
fi

echo "== go build ./..."
go build ./...

# The benchmark is a module of its own: its layer probe builds engine
# configs through internal/core, so a renamed config field fails here
# rather than as "layers: unavailable" in a later benchmark run.
echo "== benchmark module: vet (with the layer probe) and tests"
(cd benchmark && go vet -tags benchlayers ./... && go test ./...)

echo "== go test -race ./..."
go test -race ./...

# Focused race pass over the telemetry layer and its runtime callers:
# the live-scrape contract (lock-free counters read while N workers
# write) is exactly what the race detector exercises here, with the
# stress tests' higher iteration counts.
echo "== go test -race (telemetry focus)"
go test -race -count=2 ./internal/telemetry/ ./internal/runtime/

# Smoke-run the pattern kernel benchmarks so a change that breaks the
# steady-state harness (or its alloc accounting) fails CI rather than
# the next perf investigation.
echo "== bench smoke (pattern kernel)"
go test -run=NONE -bench=Pattern -benchtime=100x ./internal/algebra/

# Zero-allocation guard: the PR1/PR2/PR4 hot paths must stay at 0
# allocs/op even with instrumentation compiled in. Parse -benchmem
# output and fail on any nonzero allocs/op figure.
check_zero_allocs() {
    out=$(go test -run=NONE -bench="$1" -benchmem -benchtime=200x "$2")
    echo "$out"
    bad=$(echo "$out" | awk '/allocs\/op/ && $(NF-1) != 0 { print }')
    if [ -n "$bad" ]; then
        echo "bench-guard: nonzero allocs/op on a zero-alloc hot path:" >&2
        echo "$bad" >&2
        exit 1
    fi
}
echo "== bench guard (0 allocs/op hot paths)"
check_zero_allocs 'BenchmarkPatternTwoStepJoin$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternExtensionHeavy$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternNegationHeavy$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternNegationHit$' ./internal/algebra/
check_zero_allocs 'BenchmarkDistributor$' ./internal/runtime/
check_zero_allocs 'BenchmarkShardRouter$' ./internal/runtime/
check_zero_allocs 'BenchmarkSpscRing$' ./internal/runtime/
check_zero_allocs 'BenchmarkIngestReader$' ./internal/event/

# PR 8: the dispatch-bound hot paths must stay allocation-free with
# the stage tracer enabled at sample rate 1 (every tick spanned) —
# pooled spans, seqlock recorder slots and atomic histograms only.
echo "== bench guard (0 allocs/op with stage tracing enabled)"
check_zero_allocs 'BenchmarkDistributorTraced$' ./internal/runtime/
check_zero_allocs 'BenchmarkEngineShardedTraced$' ./internal/runtime/

# PR 9: derived-event construction itself must be allocation-free in
# the sharded steady state — every event derives through the slab
# arena and slabs recycle behind the watermark.
echo "== bench guard (0 allocs/op derived-event arena)"
check_zero_allocs 'BenchmarkEngineDerivedHeavy$' ./internal/runtime/

# Whole-run alloc ceiling: unlike the steady-state harnesses above,
# BenchmarkEngineSharded rebuilds a full Run per op, so per-run
# incidentals (goroutines, ring channels, registration closures)
# remain. The ceiling catches construction cost creeping back into
# the per-run path; pre-arena this figure was 849 allocs/op.
check_alloc_ceiling() {
    out=$(go test -run=NONE -bench="$1" -benchmem -benchtime=30x "$2")
    echo "$out"
    bad=$(echo "$out" | awk -v max="$3" '/allocs\/op/ && $(NF-1) + 0 > max + 0 { print }')
    if [ -n "$bad" ]; then
        echo "bench-guard: allocs/op above ceiling $3:" >&2
        echo "$bad" >&2
        exit 1
    fi
}
echo "== bench guard (whole-run alloc ceilings)"
check_alloc_ceiling 'BenchmarkEngineSharded$/shards=2$' . 50
check_alloc_ceiling 'BenchmarkEngineContextAware$' . 7000

# Differentials under the race detector, at higher counts than the
# suite-wide pass. Every toll run configuration (worker pool, wire and
# generator ingest, 1/2/4 shards, fused plan, 64-event derived slabs)
# must hit the one recorded toll fingerprint; the shared-run automaton
# must stay emission-identical to the pre-arena reference kernel
# (refPattern) and the brute-force enumerator; chained derived events
# must survive slab recycling; and cached-run reuse must reproduce a
# run exactly (DESIGN.md §3.4-§3.8).
echo "== go test -race (toll fingerprint, kernel, arena and reuse differentials)"
go test -race -count=2 -run 'TestTollFingerprint|TestIngestPathsByteIdentical|TestShardedTollByteIdentical|TestDerivedArenaTollByteIdentical|TestKernelDifferentialFuzz|TestPatternKernelEquivalence|TestPatternMatchesBruteForce|TestDerivedChainSurvivesReclamation|TestRunReuseIdenticalOutputs|TestShardedMatchesLegacy|TestShardedOrderedOutput|TestSpscRing' . ./internal/algebra/ ./internal/runtime/

# The engine never sizes itself from GOMAXPROCS, so the runtime and the
# root differentials must pass the same way on one, two and eight cores.
echo "== go test (GOMAXPROCS 1, 2, 8)"
for p in 1 2 8; do
    GOMAXPROCS=$p go test -count=3 ./internal/runtime/ .
done

# PR 10: crash recovery differential under the race detector — a run
# killed at a tick boundary and recovered (snapshot restore + WAL
# replay + live dedup) must reproduce an uninterrupted run's output
# byte for byte on both runtimes, plus the WAL torn-write fuzz and
# snapshot round-trip property tests. The WAL-disabled hot paths are
# covered by the 0 allocs/op guards above (BenchmarkDistributor and
# BenchmarkShardRouter run without a durable dir, so durability may
# add nothing but nil checks there).
echo "== go test -race (durability: crash recovery differential)"
go test -race -count=2 -run 'TestCrashRecoveryDifferential|TestDurableResumeAfterCleanFinish' ./internal/runtime/
go test -race -count=2 ./internal/durability/ ./internal/wire/

# Output path (DESIGN.md §3.10) under the race detector on one and two
# cores: lockstep clients must receive each tick's derived lines
# before sending more (TCP on both runtimes, and stdin/stdout), a
# stalled reader loses nothing, and a dead client ends its session.
echo "== go test -race (output path: lockstep latency, dead client)"
for procs in 1 2; do
    GOMAXPROCS=$procs go test -race -count=3 ./internal/server/
    GOMAXPROCS=$procs go test -race -count=3 -run 'TestLockstepOutputPipes' ./cmd/caesar/
done

echo "== ci OK"
