package runtime

import (
	"math"
	gort "runtime"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// derivedHeavySrc makes every input event derive: each position
// report projects a Reading in the default context, and the readings
// feed a per-segment tumbling aggregate whose flush derives a Load —
// a two-deep derivation chain exercised on every tick, so the
// benchmark measures derived-event construction (the arena hot path)
// rather than pattern suspension.
const derivedHeavySrc = `
EVENT P(vid int, seg int, speed int, sec int)
EVENT Reading(vid int, seg int, speed int)
EVENT Load(seg int, cars int, mean float)

CONTEXT clear DEFAULT

DERIVE Reading(p.vid, p.seg, p.speed)
PATTERN P p
WITHIN 5

DERIVE Load(r.seg, count(), avg(r.speed))
PATTERN Reading r
WITHIN 5
TUMBLE 4
`

// BenchmarkEngineDerivedHeavy measures the sharded steady state of a
// derivation-heavy workload: every event derives a chained event, and
// window flushes derive from those. With the slab arena handing out
// derived records and the shard loop's watermark reclamation
// recycling them, the steady state must report 0 allocs/op — the
// scripts/ci.sh bench guard enforces this (the final 849 allocs/op of
// the pre-arena runtime all lived on this path, see DESIGN.md §3.8).
func BenchmarkEngineDerivedHeavy(b *testing.B) {
	const nShards, parts, tickSize = 4, 24, 256
	m, err := model.CompileSource(derivedHeavySrc)
	if err != nil {
		b.Fatal(err)
	}
	eng := newEngine(b, m, Config{PartitionBy: []string{"seg"}, Shards: nShards})

	// The real run scaffolding, driven by the benchmark loop standing
	// in for the router: one preallocated tick re-timed per iteration
	// (same harness as BenchmarkEngineShardedTraced).
	r := newShardedRun(eng, nShards)
	r.start = time.Now()
	r.watermark.Store(math.MinInt64)
	r.health = registerRunHealth(nil, "shards", func() int64 { return 0 }, func() int64 { return 0 })
	for _, s := range r.shards {
		r.wg.Add(1)
		go func(s *engineShard) {
			defer r.wg.Done()
			s.loop()
		}(s)
	}

	sch, ok := m.Registry.Lookup("P")
	if !ok {
		b.Fatal("no P schema")
	}
	evs := make([]*event.Event, tickSize)
	for i := range evs {
		evs[i] = event.MustNew(sch, 1,
			event.Int64(int64(i)), event.Int64(int64(i%parts)),
			event.Int64(int64(40+i%30)), event.Int64(1))
	}
	batch := &event.Batch{Events: evs}
	retime := func(ts event.Time) {
		for _, ev := range evs {
			ev.Time = event.Point(ts)
		}
	}
	await := func(ts event.Time) {
		for _, s := range r.shards {
			for s.sentTS == int64(ts) && s.completed.Load() < int64(ts) {
				gort.Gosched()
			}
		}
	}
	// Warm past the first arena slabs, window flushes and partition
	// interning so the measured loop sees only slab recycling.
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

	// The warm phase alone crosses the retention horizon many times
	// over; zero recycled slabs would mean reclamation never ran and
	// the arena grew unboundedly instead of reaching a steady state.
	var reclaimed uint64
	for _, w := range r.workers {
		reclaimed += w.wm.derivedReclaimed.Value()
	}
	if reclaimed == 0 {
		b.Fatal("derived arena never reclaimed a slab")
	}
	b.ReportMetric(tickSize, "events/op")
	var derived uint64
	for _, w := range r.workers {
		derived += w.wm.outputs.Value()
	}
	b.ReportMetric(float64(derived)/float64(b.N+warm), "derived/op")
}
