// Ordered output merge layer for the sharded runtime (DESIGN.md
// §3.6). Shards derive events concurrently; when the run has a
// streaming consumer (Config.OnOutput), this thin layer restores a
// deterministic cross-shard order: derived events are delivered
// sorted by (derivation tick, shard id, per-shard emission order),
// from a single merger goroutine.
//
// Release rule: a tick t may be released once every live shard has
// completed t, because a shard pushes all of tick t's output runs
// before publishing completed ≥ t, and the merger always snapshots
// completion marks BEFORE draining the output rings — so by the time
// it sees min(completed) ≥ t, every run of tick t is already in its
// pending queues. Release timing therefore never affects the output
// order, only its batching.
package runtime

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// outRun is one shard's derived events for one tick, in emission
// order. span, non-nil on sampled ticks, is finished by the merger at
// release time, stamping the merge hold-back (shard completion →
// ordered release); the SPSC push/pop pair carries the span writes.
type outRun struct {
	ts   event.Time
	evs  []*event.Event
	span *telemetry.Span
}

// mergeRingDepth bounds how many unreleased ticks' runs a shard may
// buffer before it backpressures (blocks in flushTick).
const mergeRingDepth = 64

type outputMerger struct {
	shards []*engineShard
	out    func(*event.Event)
	idle   func() // Config.OnIdle; nil when unset

	rings []*spscRing[outRun]         // shard → merger
	free  []*spscRing[[]*event.Event] // merger → shard (slice recycling)

	pending [][]outRun // per shard, in push (= tick) order
	heads   []int      // consumed prefix of pending[i]

	wakeCh chan struct{} // nudged by shards after each grant / at exit
	doneCh chan struct{} // closed when the merger has drained everything

	// released publishes the newest tick whose output is fully
	// emitted (MinInt64 before the first release). Shards read it to
	// bound derived-event arena reclamation: an event buffered here
	// must outlive its tick's ordered release, which can trail the
	// producing shard's own completion by however far the slowest
	// shard lags — beyond the watermark slack (DESIGN.md §3.8).
	released atomic.Int64
}

func newOutputMerger(shards []*engineShard, out func(*event.Event), idle func()) *outputMerger {
	m := &outputMerger{
		shards:  shards,
		out:     out,
		idle:    idle,
		rings:   make([]*spscRing[outRun], len(shards)),
		free:    make([]*spscRing[[]*event.Event], len(shards)),
		pending: make([][]outRun, len(shards)),
		heads:   make([]int, len(shards)),
		wakeCh:  make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
	}
	for i := range shards {
		m.rings[i] = newSpscRing[outRun](mergeRingDepth)
		m.free[i] = newSpscRing[[]*event.Event](mergeRingDepth)
		// Pre-seed the recycling ring so the first few ticks' emission
		// buffers come from the pool instead of the heap; after that
		// the released slices themselves keep the pool primed.
		for n := 0; n < 4; n++ {
			m.free[i].tryPush(make([]*event.Event, 0, 32))
		}
	}
	m.released.Store(math.MinInt64)
	return m
}

// reset rearms a cached merger for the next run. The caller guarantees
// the previous merger goroutine has exited (waitDone returned) and all
// shard rings are drained.
func (m *outputMerger) reset() {
	m.doneCh = make(chan struct{})
	m.released.Store(math.MinInt64)
	select { // drop a stale wake token from the previous run
	case <-m.wakeCh:
	default:
	}
	for i := range m.pending {
		m.pending[i] = m.pending[i][:0]
		m.heads[i] = 0
	}
}

// flushTick moves the shard worker's buffered emissions for tick ts
// into the merge ring. Called by the shard goroutine after each tick.
// A tick that emitted nothing has no hold-back to measure: its span
// (if sampled) finishes immediately, merge stage unobserved.
func (m *outputMerger) flushTick(s *engineShard, ts event.Time, sp *telemetry.Span) {
	evs := s.w.mergeSink
	if len(evs) == 0 {
		sp.Finish()
		return
	}
	m.rings[s.id].push(outRun{ts: ts, evs: evs, span: sp})
	// Wake after every push, not just per message: a single grant can
	// carry more ticks than the ring holds, and the merger must drain
	// (into its pending queues) for the next push to unblock.
	m.wake()
	if next, ok := m.free[s.id].tryPop(); ok {
		s.w.mergeSink = next
	} else {
		s.w.mergeSink = nil // next emit allocates a fresh run
	}
}

// wake nudges the merger; safe from any shard (non-blocking send to a
// one-token channel: a pending token already guarantees a new pass).
func (m *outputMerger) wake() {
	select {
	case m.wakeCh <- struct{}{}:
	default:
	}
}

// waitDone blocks until the merger has released every run.
func (m *outputMerger) waitDone() { <-m.doneCh }

func (m *outputMerger) loop() {
	defer close(m.doneCh)
	for {
		// Snapshot progress FIRST (see the release rule above), then
		// drain, then release.
		safe := int64(math.MaxInt64)
		alive := false
		for _, s := range m.shards {
			if s.done.Load() {
				continue
			}
			alive = true
			if c := s.w.completed.Load(); c < safe {
				safe = c
			}
		}
		for i, r := range m.rings {
			for {
				run, ok := r.tryPop()
				if !ok {
					break
				}
				m.pending[i] = append(m.pending[i], run)
			}
		}
		m.release(safe)
		if !alive {
			// All shards exited before the snapshot; everything they
			// ever pushed was drained above and released (safe is
			// MaxInt64 with no live shards). Done.
			return
		}
		if m.idle != nil {
			select {
			case <-m.wakeCh:
				continue // more to release: stay busy
			default:
			}
			m.idle()
		}
		<-m.wakeCh
	}
}

// release emits every pending run with ts ≤ safe, globally ordered by
// (tick, shard id); within a run, emission order is preserved.
func (m *outputMerger) release(safe int64) {
	for {
		best := -1
		var bestTS event.Time
		for i := range m.pending {
			if m.heads[i] >= len(m.pending[i]) {
				continue
			}
			ts := m.pending[i][m.heads[i]].ts
			if int64(ts) > safe {
				continue
			}
			if best < 0 || ts < bestTS {
				best, bestTS = i, ts
			}
		}
		if best < 0 {
			if safe != math.MaxInt64 && safe > m.released.Load() {
				m.released.Store(safe)
			}
			return
		}
		run := m.pending[best][m.heads[best]]
		m.pending[best][m.heads[best]] = outRun{}
		m.heads[best]++
		if m.heads[best] == len(m.pending[best]) {
			m.pending[best] = m.pending[best][:0]
			m.heads[best] = 0
		}
		if run.span != nil {
			// The span's mark is the shard's exec-end instant; the
			// delta is how long ordering held the output back.
			run.span.StampSince(telemetry.StageMerge, time.Now().UnixNano())
			run.span.Finish()
		}
		for _, ev := range run.evs {
			m.out(ev)
		}
		// Hand the consumed slice back to the shard for reuse; if its
		// free ring is momentarily full the slice is simply dropped
		// for GC (output batches allocate anyway).
		m.free[best].tryPush(run.evs[:0])
	}
}
