package runtime

import (
	"sync"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// benchTick builds one tick of Linear Road-shaped position reports
// spread over nParts partitions.
func benchTick(n, nParts int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		p := i % nParts
		evs = append(evs, distEvent(1, int64(p%4), int64(p%2), int64(p), int64(i)))
	}
	return evs
}

// drainStub empties a stub worker's channel, recycling every buffer
// (and any sampled span) exactly like the worker loop does but
// without executing transactions.
func drainStub(w *worker) {
	for {
		select {
		case msg := <-w.ch:
			msg.span.Finish()
			for i := range msg.buf.txns {
				w.putEventBuf(msg.buf.txns[i].buf)
			}
			w.putTxnBuf(msg.buf)
		default:
			return
		}
	}
}

// BenchmarkDistributor measures the dispatch-only path: partition key
// rendering, interning, batch accumulation and the per-worker
// hand-off, with stub workers drained in place so only distributor
// cost is timed. Steady state must report 0 allocs/op.
func BenchmarkDistributor(b *testing.B) {
	const workers, parts, tickSize = 4, 24, 512
	ws := stubWorkers(workers)
	d := newDistributor(ws, []string{"xway", "dir", "seg"})
	tick := benchTick(tickSize, parts)
	// Warm the partition table and buffer free lists.
	d.route(1, tick, 1, false)
	for _, w := range ws {
		drainStub(w)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.route(event.Time(i+2), tick, 1, false)
		for _, w := range ws {
			drainStub(w)
		}
	}
	b.ReportMetric(tickSize, "events/op")
}

// BenchmarkDistributorConcurrent is the same dispatch load with live
// consumer goroutines — the realistic hand-off including channel
// contention. Allocations stay amortized near zero (buffers are
// minted only while a consumer briefly lags, then recycle forever).
func BenchmarkDistributorConcurrent(b *testing.B) {
	const workers, parts, tickSize = 4, 24, 512
	ws := stubWorkers(workers)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for msg := range w.ch {
				for i := range msg.buf.txns {
					w.putEventBuf(msg.buf.txns[i].buf)
				}
				w.putTxnBuf(msg.buf)
			}
		}(w)
	}
	d := newDistributor(ws, []string{"xway", "dir", "seg"})
	tick := benchTick(tickSize, parts)
	d.route(1, tick, 1, false)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.route(event.Time(i+2), tick, 1, false)
	}
	b.StopTimer()
	for _, w := range ws {
		close(w.ch)
	}
	wg.Wait()
	b.ReportMetric(tickSize, "events/op")
}

// BenchmarkDistributorTraced is BenchmarkDistributor with the stage
// tracer enabled at sample rate 1 — every tick carries spans — so it
// bounds the tracing overhead on the dispatch-bound path. The span
// pool recycles through the stub drain, so steady state must still
// report 0 allocs/op (the ci.sh bench guard enforces this).
func BenchmarkDistributorTraced(b *testing.B) {
	const workers, parts, tickSize = 4, 24, 512
	ws := stubWorkers(workers)
	d := newDistributor(ws, []string{"xway", "dir", "seg"})
	d.trace = &tickTrace{stages: telemetry.NewStageTracer(1, 64)}
	tick := benchTick(tickSize, parts)
	d.route(1, tick, 1, d.trace.stages.SampleTick())
	for _, w := range ws {
		drainStub(w)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.route(event.Time(i+2), tick, 1, d.trace.stages.SampleTick())
		for _, w := range ws {
			drainStub(w)
		}
	}
	b.StopTimer()
	if spans := d.trace.stages.Timelines(); len(spans) == 0 {
		b.Fatal("tracer recorded nothing at sample rate 1")
	}
	b.ReportMetric(tickSize, "events/op")
}

// BenchmarkPartitionKey measures key rendering plus partition table
// lookup for a single event; the interned steady state must be
// allocation-free.
func BenchmarkPartitionKey(b *testing.B) {
	d := newDistributor(stubWorkers(4), []string{"xway", "dir", "seg"})
	ev := distEvent(1, 3, 1, 42, 7)
	d.partitionOf(ev) // intern

	b.ReportAllocs()
	b.ResetTimer()
	var p *partition
	for i := 0; i < b.N; i++ {
		p = d.partitionOf(ev)
	}
	if p == nil || p.key != "3|1|42|" {
		b.Fatalf("bad partition %v", p)
	}
}
