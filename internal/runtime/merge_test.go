package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// mergeHarness drives an outputMerger directly against fake shards,
// isolating the release rule from the rest of the sharded runtime.
type mergeHarness struct {
	shards []*engineShard
	m      *outputMerger

	mu  sync.Mutex
	out []*event.Event
}

func newMergeHarness(n int) *mergeHarness {
	h := &mergeHarness{}
	for i := 0; i < n; i++ {
		s := &engineShard{id: i, w: &worker{}}
		s.w.completed.Store(math.MinInt64)
		h.shards = append(h.shards, s)
	}
	h.m = newOutputMerger(h.shards, func(e *event.Event) {
		h.mu.Lock()
		h.out = append(h.out, e)
		h.mu.Unlock()
	}, nil)
	go h.m.loop()
	return h
}

// flush pushes one single-event run for tick ts from shard i, the way
// a shard goroutine does after executing a tick.
func (h *mergeHarness) flush(i int, ts event.Time, sp *telemetry.Span) {
	h.shards[i].w.mergeSink = []*event.Event{testEventAt(ts, i)}
	h.m.flushTick(h.shards[i], ts, sp)
}

func (h *mergeHarness) released() []*event.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*event.Event(nil), h.out...)
}

// waitReleased polls until exactly want events have been released (or
// fails after a deadline); used after a state change that must
// unblock the merger.
func (h *mergeHarness) waitReleased(t *testing.T, want int) []*event.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := h.released(); len(got) >= want {
			if len(got) > want {
				t.Fatalf("released %d events, want %d", len(got), want)
			}
			return got
		}
		h.m.wake()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("merger released %d events, want %d", len(h.released()), want)
	return nil
}

// mergeMarkSchema types the merge harness's marker events; the single
// field doubles as the shard id so assertions can recover
// (tick, shard) from the released sequence.
var mergeMarkSchema = event.MustSchema("M", event.Field{Name: "shard", Kind: event.KindInt})

func testEventAt(ts event.Time, shard int) *event.Event {
	e, err := event.New(mergeMarkSchema, ts, event.Int64(int64(shard)))
	if err != nil {
		panic(err)
	}
	return e
}

// TestMergeReleaseRule pins the merge layer's core contract in
// isolation: a tick is held back until EVERY live shard has published
// completed ≥ tick, and release order is (tick, shard id).
func TestMergeReleaseRule(t *testing.T) {
	h := newMergeHarness(2)

	// Shard 0 races ahead: executes and flushes ticks 1 and 2.
	h.flush(0, 1, nil)
	h.flush(0, 2, nil)
	h.shards[0].w.completed.Store(2)
	h.m.wake()

	// Shard 1 has completed nothing, so nothing may be released —
	// even though shard 0's runs sit fully drained in the merger.
	time.Sleep(20 * time.Millisecond)
	if got := h.released(); len(got) != 0 {
		t.Fatalf("released %d events while min(completed) is MinInt64", len(got))
	}

	// Shard 1 completes tick 1: exactly tick 1 releases, shard 0's
	// run first, then shard 1's (tie broken by shard id).
	h.flush(1, 1, nil)
	h.shards[1].w.completed.Store(1)
	got := h.waitReleased(t, 2)
	for i, want := range []struct {
		ts    event.Time
		shard int64
	}{{1, 0}, {1, 1}} {
		if got[i].End() != want.ts || got[i].Values[0].Int != want.shard {
			t.Errorf("release %d = tick %d shard %d, want tick %d shard %d",
				i, got[i].End(), got[i].Values[0].Int, want.ts, want.shard)
		}
	}

	// Tick 2 is still held: shard 1 is alive at completed=1.
	time.Sleep(20 * time.Millisecond)
	if got := h.released(); len(got) != 2 {
		t.Fatalf("tick 2 released behind a lagging live shard (%d events out)", len(got))
	}

	// A shard that exits stops gating release: shard 1 goes done
	// without ever completing tick 2, and tick 2 drains.
	h.shards[1].done.Store(true)
	h.waitReleased(t, 3)
	h.shards[0].done.Store(true)
	h.m.wake()
	h.m.waitDone()

	if got := h.released(); got[2].End() != 2 || got[2].Values[0].Int != 0 {
		t.Errorf("final release = tick %d shard %d, want tick 2 shard 0",
			got[2].End(), got[2].Values[0].Int)
	}
}

// TestMergeStampsSpanAtRelease checks the observability contract of
// the merge stage: a sampled tick's span is finished by the merger at
// release time with StageMerge stamped (the ordered-release
// hold-back), and a tick that emitted nothing finishes its span
// immediately with the merge stage unobserved.
func TestMergeStampsSpanAtRelease(t *testing.T) {
	tr := telemetry.NewStageTracer(1, 8)
	h := newMergeHarness(1)

	// Empty tick: no output, span finishes without a merge stamp.
	sp := tr.Start(7, 0)
	sp.MarkAt(time.Now().UnixNano())
	h.shards[0].w.mergeSink = nil
	h.m.flushTick(h.shards[0], 7, sp)
	if n := tr.StageSnapshot(telemetry.StageMerge).Count; n != 0 {
		t.Fatalf("empty tick observed a merge stage (count %d)", n)
	}
	if got := tr.Timelines(); len(got) != 1 || got[0].Tick != 7 {
		t.Fatalf("empty tick's span not recorded: %+v", got)
	}

	// Emitting tick: the merge stamp lands when the merger releases.
	sp = tr.Start(8, 0)
	sp.MarkAt(time.Now().UnixNano())
	h.flush(0, 8, sp)
	h.shards[0].w.completed.Store(8)
	h.m.wake()
	h.waitReleased(t, 1)
	h.shards[0].done.Store(true)
	h.m.wake()
	h.m.waitDone()

	if n := tr.StageSnapshot(telemetry.StageMerge).Count; n != 1 {
		t.Fatalf("merge stage count = %d, want 1", n)
	}
	tls := tr.Timelines()
	last := tls[len(tls)-1]
	if last.Tick != 8 || last.Stamped&(1<<telemetry.StageMerge) == 0 {
		t.Errorf("released tick's timeline missing merge stage: %+v", last)
	}
}

// TestSpscRingStallAccounting pins the ring's stall telemetry: a
// producer parked on a full ring accrues prodStallNs, a consumer
// parked on an empty ring accrues consStallNs, and an uncontended
// hand-off accrues neither.
func TestSpscRingStallAccounting(t *testing.T) {
	const nap = 30 * time.Millisecond

	// Uncontended: no parking, no stall.
	r := newSpscRing[int](4)
	r.push(1)
	r.pop()
	if p, c := r.stallNs(); p != 0 || c != 0 {
		t.Errorf("uncontended ring accrued stall: producer %d, consumer %d", p, c)
	}

	// Producer stall: fill the ring, block a push, free a slot later.
	r = newSpscRing[int](2)
	r.push(1)
	r.push(2)
	done := make(chan struct{})
	go func() {
		r.push(3) // blocks: ring full
		close(done)
	}()
	time.Sleep(nap) // let the producer yield, then park
	r.pop()
	<-done
	if p, _ := r.stallNs(); p <= 0 {
		t.Errorf("parked producer accrued no stall (%dns)", p)
	}

	// Consumer stall: pop an empty ring, push later.
	r = newSpscRing[int](2)
	done = make(chan struct{})
	go func() {
		r.pop() // blocks: ring empty
		close(done)
	}()
	time.Sleep(nap)
	r.push(1)
	<-done
	if _, c := r.stallNs(); c <= 0 {
		t.Errorf("parked consumer accrued no stall (%dns)", c)
	}
}
