package runtime

import (
	"math"
	gort "runtime"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// BenchmarkShardRouter measures the router's per-event serial work in
// isolation: partition key rendering into the reused scratch plus the
// FNV-1a hash and the bitmask shard pick. This is everything the
// single-threaded stage of the sharded runtime does per event besides
// one slice append, so it bounds the design's serial fraction. Must
// report 0 allocs/op.
func BenchmarkShardRouter(b *testing.B) {
	r := &shardedRun{
		keyer:  newKeyer([]string{"xway", "dir", "seg"}),
		shards: make([]*engineShard, 4),
		smask:  powerOfTwoMask(4),
	}
	ev := distEvent(1, 3, 1, 42, 7)
	r.shardOf(ev) // warm the schema key plan

	b.ReportAllocs()
	b.ResetTimer()
	var si uint32
	for i := 0; i < b.N; i++ {
		si = r.shardOf(ev)
	}
	if int(si) >= len(r.shards) {
		b.Fatalf("bad shard %d", si)
	}
}

// BenchmarkEngineShardedTraced measures the sharded runtime's steady-
// state per-tick cost end to end — router, SPSC hand-off, shard-side
// partition interning and kernel execution — with the stage tracer on
// at sample rate 1, so every tick carries a span through every stage.
// (The root package's BenchmarkEngineSharded is the whole-run scaling
// series; this one isolates the pipeline steady state.) The stream is
// position reports in the default (clear) context, so plans stay
// suspended and the measurement isolates pipeline cost from
// derivation cost. Steady state must report 0 allocs/op with tracing
// enabled (the ci.sh bench guard enforces this); the tracer's
// per-stage quantiles are re-exported as custom metrics, which
// scripts/bench.sh renders into BENCH_stages.json.
func BenchmarkEngineShardedTraced(b *testing.B) {
	const nShards, parts, tickSize = 4, 24, 512
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		b.Fatal(err)
	}
	tr := telemetry.NewStageTracer(1, 256)
	eng, err := New(p, Config{PartitionBy: []string{"seg"}, Shards: nShards, Stages: tr})
	if err != nil {
		b.Fatal(err)
	}

	// The routing + shard plumbing of runSharded, without the ingest
	// goroutine: the benchmark loop plays the router, re-timing one
	// preallocated tick per iteration.
	rm := newRunMetrics(eng, nShards)
	r := &shardedRun{
		e:       eng,
		rm:      rm,
		keyer:   newKeyer(eng.cfg.PartitionBy),
		smask:   powerOfTwoMask(nShards),
		pending: make([]*shardMsg, nShards),
		start:   time.Now(),
		slack:   eng.reclaimSlack(),
		stages:  rm.stages,
	}
	r.ctrlShard = pickIdx(fnv1a(controlKey), nShards, r.smask)
	r.watermark.Store(math.MinInt64)
	r.health = registerRunHealth(nil, "shards", func() int64 { return 0 }, func() int64 { return 0 })
	r.shards = make([]*engineShard, nShards)
	for i := range r.shards {
		r.shards[i] = newEngineShard(eng, i, rm)
	}
	for _, s := range r.shards {
		r.wg.Add(1)
		go func(s *engineShard) {
			defer r.wg.Done()
			s.loop()
		}(s)
	}

	sch, ok := m.Registry.Lookup("PositionReport")
	if !ok {
		b.Fatal("no PositionReport schema")
	}
	evs := make([]*event.Event, tickSize)
	for i := range evs {
		evs[i] = event.MustNew(sch, 1,
			event.Int64(int64(i)), event.Int64(int64(i%parts)), event.Int64(1), event.Int64(1))
	}
	batch := &event.Batch{Events: evs}
	retime := func(ts event.Time) {
		for _, ev := range evs {
			ev.Time = event.Point(ts)
		}
	}
	// await blocks until every shard has executed tick ts. The events
	// are shared across iterations, so the next retime must not touch
	// them while a shard still reads them; each op therefore measures
	// the full route → ring → execute traversal of one tick.
	await := func(ts event.Time) {
		for _, s := range r.shards {
			for s.sentTS == int64(ts) && s.completed.Load() < int64(ts) {
				gort.Gosched()
			}
		}
	}
	// Warm until the steady state settles: partition tables and plan
	// instances, grant buffers, the span pool, and the histograms'
	// lazily-allocated buckets (tail latencies populate new buckets
	// for a while).
	const warm = 300
	for i := 0; i < warm; i++ {
		ts := event.Time(i + 1)
		retime(ts)
		if err := r.routeBatch(batch); err != nil {
			b.Fatal(err)
		}
		await(ts)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := event.Time(i + warm + 1)
		retime(ts)
		if err := r.routeBatch(batch); err != nil {
			b.Fatal(err)
		}
		await(ts)
	}
	b.StopTimer()
	for _, s := range r.shards {
		s.in.close()
	}
	r.wg.Wait()

	b.ReportMetric(tickSize, "events/op")
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		snap := tr.StageSnapshot(st)
		if snap.Count == 0 {
			continue
		}
		b.ReportMetric(float64(snap.Quantile(0.5)), st.String()+"_p50_ns")
		b.ReportMetric(float64(snap.Quantile(0.95)), st.String()+"_p95_ns")
		b.ReportMetric(float64(snap.Quantile(0.99)), st.String()+"_p99_ns")
	}
}

// BenchmarkSpscRing measures the ring's steady-state hand-off cost:
// one push + one pop per iteration with both sides hot (never full,
// never empty past the yield phase). Must report 0 allocs/op.
func BenchmarkSpscRing(b *testing.B) {
	r := newSpscRing[*shardMsg](shardRingDepth)
	msg := &shardMsg{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push(msg)
		if _, ok := r.pop(); !ok {
			b.Fatal("ring closed")
		}
	}
}
