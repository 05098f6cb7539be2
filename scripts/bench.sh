#!/usr/bin/env sh
# Benchmark harness: runs the BenchmarkPattern* family plus the engine
# end-to-end benchmarks into BENCH_pattern.json, the ingest pipeline
# family (decoder, batcher, end-to-end wire/batch/sync) into
# BENCH_ingest.json, the sharded runtime's scaling series
# (BenchmarkEngineSharded/shards=1..8 on the dispatch-bound workload,
# tracer on at the default rate) into BENCH_scaling.json, the
# stage tracer's per-stage latency breakdown (from
# BenchmarkEngineShardedTraced's custom metrics) into
# BENCH_stages.json, and the durability family (WAL append,
# snapshot round trip, recovery replay) into BENCH_durability.json,
# all at the repo root. Pure POSIX sh + awk; no dependencies beyond
# the go toolchain.
#
# Usage: scripts/bench.sh [count]   (default benchmark -count is 3;
# the median run per benchmark is reported)
set -eu
cd "$(dirname "$0")/.."

count=${1:-3}
tmp=$(mktemp)
tmp2=$(mktemp)
tmp3=$(mktemp)
tmp4=$(mktemp)
tmp5=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5"' EXIT

echo "== running pattern kernel benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkPattern' -benchmem -count="$count" \
    ./internal/algebra/ | tee -a "$tmp" >&2
echo "== running engine benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkEngine(ContextAware$|DispatchBound)' -benchmem -count="$count" \
    . | tee -a "$tmp" >&2

echo "== running ingest benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkIngest' -benchmem -count="$count" \
    ./internal/event/ | tee -a "$tmp2" >&2
go test -run=NONE -bench='BenchmarkEngine(WireIngest|BatchStream)' -benchmem -count="$count" \
    . | tee -a "$tmp2" >&2

echo "== running shard scaling benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkEngineSharded$' -benchmem -count="$count" \
    . | tee -a "$tmp3" >&2
go test -run=NONE -bench='BenchmarkEngineDerivedHeavy$' -benchmem -count="$count" \
    ./internal/runtime/ | tee -a "$tmp3" >&2

echo "== running stage tracing benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkEngineShardedTraced|BenchmarkDistributorTraced' \
    -benchmem -count="$count" ./internal/runtime/ | tee -a "$tmp4" >&2

echo "== running durability benchmarks (count=$count)" >&2
go test -run=NONE -bench='BenchmarkWALAppend' -benchmem -count="$count" \
    ./internal/durability/ | tee -a "$tmp5" >&2
go test -run=NONE -bench='BenchmarkSnapshotRoundTrip|BenchmarkRecoveryReplay' \
    -benchmem -count="$count" ./internal/runtime/ | tee -a "$tmp5" >&2

# Parse `BenchmarkName  N  t ns/op [x ns/event|x events/op]  b B/op
# a allocs/op` lines, take the median ns/op run per benchmark, and
# emit JSON. Benchmarks that report events/op instead of ns/event
# (the engine end-to-end family) get ns_per_event derived as
# ns/op ÷ events/op.
render_json='
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = be = bop = aop = ev = "null"
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns  = $i
        if ($(i+1) == "ns/event")  be  = $i
        if ($(i+1) == "events/op") ev  = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") aop = $i
    }
    if (ns == "null") next
    if (be == "null" && ev != "null" && ev + 0 > 0) be = ns / ev
    n = ++runs[name]
    nsv[name, n] = ns; bev[name, n] = be
    bopv[name, n] = bop; aopv[name, n] = aop
    if (!(name in seen)) { order[++nb] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= nb; k++) {
        name = order[k]
        # median by ns/op: selection sort of the (few) run indices
        n = runs[name]
        for (i = 1; i <= n; i++) idx[i] = i
        for (i = 1; i <= n; i++)
            for (j = i + 1; j <= n; j++)
                if (nsv[name, idx[j]] + 0 < nsv[name, idx[i]] + 0) {
                    t = idx[i]; idx[i] = idx[j]; idx[j] = t
                }
        m = idx[int((n + 1) / 2)]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_event\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, nsv[name, m], bev[name, m], bopv[name, m], aopv[name, m], \
            (k < nb ? "," : "")
    }
    printf "  ]\n}\n"
}'

awk "$render_json" "$tmp" > BENCH_pattern.json
echo "== wrote BENCH_pattern.json" >&2
cat BENCH_pattern.json

awk "$render_json" "$tmp2" > BENCH_ingest.json
echo "== wrote BENCH_ingest.json" >&2
cat BENCH_ingest.json

awk "$render_json" "$tmp3" > BENCH_scaling.json
echo "== wrote BENCH_scaling.json" >&2
cat BENCH_scaling.json

awk "$render_json" "$tmp5" > BENCH_durability.json
echo "== wrote BENCH_durability.json" >&2
cat BENCH_durability.json

# Parse the stage tracer's custom metrics (`v <stage>_pNN_ns` pairs on
# the traced benchmark lines), pick the median run by ns/op, and emit
# the per-stage latency breakdown.
render_stages='
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = aop = "null"; sm = ""
    for (i = 2; i < NF; i++) {
        u = $(i+1)
        if (u == "ns/op")          ns  = $i
        else if (u == "allocs/op") aop = $i
        else if (u ~ /_p(50|95|99)_ns$/) sm = sm u "=" $i ";"
    }
    if (ns == "null") next
    n = ++runs[name]
    nsv[name, n] = ns; aopv[name, n] = aop; smv[name, n] = sm
    if (!(name in seen)) { order[++nb] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= nb; k++) {
        name = order[k]
        n = runs[name]
        for (i = 1; i <= n; i++) idx[i] = i
        for (i = 1; i <= n; i++)
            for (j = i + 1; j <= n; j++)
                if (nsv[name, idx[j]] + 0 < nsv[name, idx[i]] + 0) {
                    t = idx[i]; idx[i] = idx[j]; idx[j] = t
                }
        m = idx[int((n + 1) / 2)]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"stages_ns\": {", \
            name, nsv[name, m], aopv[name, m]
        np = split(smv[name, m], pairs, ";")
        first = 1
        for (pi = 1; pi <= np; pi++) {
            if (pairs[pi] == "") continue
            split(pairs[pi], kv, "=")
            key = kv[1]
            sub(/_ns$/, "", key)
            printf "%s\"%s\": %s", (first ? "" : ", "), key, kv[2]
            first = 0
        }
        printf "}}%s\n", (k < nb ? "," : "")
    }
    printf "  ]\n}\n"
}'

awk "$render_stages" "$tmp4" > BENCH_stages.json
echo "== wrote BENCH_stages.json" >&2
cat BENCH_stages.json
