package runtime

import (
	"strings"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// arenaTickSource is a deterministic arena-backed batch source over
// the traffic model: one congestion trigger tick, then one position
// report per segment per tick, every report a fresh vehicle (so each
// derives NewCar and Toll). Events are carved from a small-slab arena
// to force reclamation mid-run.
type arenaTickSource struct {
	arena *event.Arena
	pr    *event.Schema
	trig  *event.Schema
	segs  int
	ticks int
	i     int
}

func newArenaTickSource(t testing.TB, m *model.Model, segs, ticks int) *arenaTickSource {
	t.Helper()
	pr, ok1 := m.Registry.Lookup("PositionReport")
	trig, ok2 := m.Registry.Lookup("Trigger")
	if !ok1 || !ok2 {
		t.Fatal("traffic schemas missing")
	}
	return &arenaTickSource{
		arena: event.NewArena(64),
		pr:    pr, trig: trig,
		segs: segs, ticks: ticks,
	}
}

func (s *arenaTickSource) NextBatch(b *event.Batch) bool {
	b.Epoch = uint64(s.i)
	b.Events = b.Events[:0]
	if s.i > s.ticks {
		return false
	}
	t := event.Time(30 * (s.i + 1))
	for seg := 0; seg < s.segs; seg++ {
		if s.i == 0 {
			e := s.arena.Alloc(s.trig, event.Point(t), 2)
			e.Values[0] = event.Int64(int64(seg))
			e.Values[1] = event.Int64(1) // congestion on
			b.Events = append(b.Events, e)
			continue
		}
		e := s.arena.Alloc(s.pr, event.Point(t), 4)
		e.Values[0] = event.Int64(int64(s.i*100 + seg)) // fresh vid
		e.Values[1] = event.Int64(int64(seg))
		e.Values[2] = event.Int64(0)
		e.Values[3] = event.Int64(int64(t))
		b.Events = append(b.Events, e)
	}
	s.i++
	return s.i <= s.ticks
}

func (s *arenaTickSource) ReclaimBefore(t event.Time) int { return s.arena.ReclaimBefore(t) }

// TestPipelinedIngestMatchesSync is the runtime-level reclamation
// differential: the arena source fed directly (decode goroutine, the
// read-ahead ring, watermark-driven slab reclamation) must
// produce exactly the outputs of the same stream fed event by event
// through the Batcher adapter, which hides the source's Reclaimer so
// no slab is ever recycled. Run under -race this also exercises the
// ring hand-off and the watermark's cross-goroutine publication.
func TestPipelinedIngestMatchesSync(t *testing.T) {
	const segs, ticks = 4, 400

	ref, m1 := buildEngine(t, trafficSrc, false, false, 3)
	stRef, err := ref.Run(event.PerEvent(newArenaTickSource(t, m1, segs, ticks)))
	if err != nil {
		t.Fatal(err)
	}
	piped, m2 := buildEngine(t, trafficSrc, false, false, 3)
	stPiped, err := piped.RunBatches(newArenaTickSource(t, m2, segs, ticks))
	if err != nil {
		t.Fatal(err)
	}

	if stRef.Events != stPiped.Events || stRef.OutputCount != stPiped.OutputCount ||
		stRef.Transitions != stPiped.Transitions || stRef.Partitions != stPiped.Partitions {
		t.Fatalf("stats diverge:\nper-event: %+v\npiped:     %+v", stRef, stPiped)
	}
	a, b := sortedRenderings(stRef), sortedRenderings(stPiped)
	if len(a) == 0 {
		t.Fatal("no outputs at all")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("outputs diverge between per-event and reclaiming batch ingest")
	}

	// The direct run must have recycled slabs behind the watermark
	// (400 ticks span 12 000 time units against a ~600-unit slack).
	if stPiped.Batches == 0 {
		t.Error("pipelined run reported no batches")
	}
	if stPiped.ReclaimedChunks == 0 {
		t.Error("watermark never reclaimed a slab")
	}
	if stRef.ReclaimedChunks != 0 {
		t.Error("per-event run reclaimed slabs it should not touch")
	}
}

// splitTickSource violates the batch protocol: a tick's events are
// spread across two batches.
type splitTickSource struct {
	src  *arenaTickSource
	half []*event.Event
	i    int
}

func (s *splitTickSource) NextBatch(b *event.Batch) bool {
	s.i++
	if len(s.half) > 0 {
		b.Events = append(b.Events[:0], s.half...)
		s.half = nil
		return true
	}
	more := s.src.NextBatch(b)
	if s.i == 3 && len(b.Events) > 1 {
		mid := len(b.Events) / 2
		s.half = append(s.half, b.Events[mid:]...)
		b.Events = b.Events[:mid]
	}
	return more
}

func TestBatchSplitTickRejected(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 2)
	src := &splitTickSource{src: newArenaTickSource(t, m, 4, 20)}
	if _, err := eng.RunBatches(src); err == nil || !strings.Contains(err.Error(), "split tick") {
		t.Errorf("split tick accepted: %v", err)
	}
}

// backwardsSource yields a batch whose timestamps regress.
type backwardsSource struct {
	src *arenaTickSource
	i   int
}

func (s *backwardsSource) NextBatch(b *event.Batch) bool {
	s.i++
	more := s.src.NextBatch(b)
	if s.i == 4 {
		for _, e := range b.Events {
			e.Time = event.Point(1) // far in the past
		}
	}
	return more
}

func TestBatchOutOfOrderRejected(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 2)
	src := &backwardsSource{src: newArenaTickSource(t, m, 4, 20)}
	if _, err := eng.RunBatches(src); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("disorder accepted: %v", err)
	}
}

// TestRunRoutesBatchSources checks Engine.Run's protocol sniffing: a
// plain Source goes through the Batcher adapter and a BatchSource
// feeds the pipeline directly, with identical results.
func TestRunRoutesBatchSources(t *testing.T) {
	var want []string
	for i, mode := range []string{"batcher", "batch"} {
		eng, m := buildEngine(t, trafficSrc, false, false, 2)
		var (
			st  *Stats
			err error
		)
		if mode == "batch" {
			st, err = eng.Run(batchOnly{newArenaTickSource(t, m, 3, 60)})
		} else {
			st, err = eng.Run(event.PerEvent(newArenaTickSource(t, m, 3, 60)))
		}
		if err != nil {
			t.Fatal(err)
		}
		got := sortedRenderings(st)
		if len(got) == 0 {
			t.Fatalf("%s: no outputs", mode)
		}
		if i == 0 {
			want = got
			continue
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("%s outputs diverge from the batcher", mode)
		}
	}
}

// batchOnly satisfies Source only formally: Next panics, proving Run
// prefers the BatchSource protocol when a source offers both.
type batchOnly struct{ src *arenaTickSource }

func (b batchOnly) NextBatch(out *event.Batch) bool { return b.src.NextBatch(out) }
func (b batchOnly) Next() *event.Event              { panic("batch-capable source fed through the per-event path") }
