package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
)

// --- spscRing unit tests -------------------------------------------

func TestSpscRingOrderAndBlocking(t *testing.T) {
	const n = 10000
	r := newSpscRing[int](8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if !r.push(i) {
				t.Error("push reported closed ring")
				return
			}
		}
		r.close()
	}()
	for i := 0; i < n; i++ {
		v, ok := r.pop()
		if !ok {
			t.Fatalf("ring closed after %d of %d values", i, n)
		}
		if v != i {
			t.Fatalf("pop %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
	if _, ok := r.pop(); ok {
		t.Error("pop after close+drain returned a value")
	}
	wg.Wait()
	if p, c := r.stallNs(); p < 0 || c < 0 {
		t.Errorf("negative stall telemetry: %d/%d", p, c)
	}
}

func TestSpscRingTryOps(t *testing.T) {
	r := newSpscRing[int](2)
	if _, ok := r.tryPop(); ok {
		t.Error("tryPop on empty ring succeeded")
	}
	if !r.tryPush(1) || !r.tryPush(2) {
		t.Fatal("tryPush failed below capacity")
	}
	if r.tryPush(3) {
		t.Error("tryPush beyond capacity succeeded")
	}
	if got := r.occupancy(); got != 2 {
		t.Errorf("occupancy = %d, want 2", got)
	}
	if v, ok := r.tryPop(); !ok || v != 1 {
		t.Errorf("tryPop = %d,%v, want 1,true", v, ok)
	}
	if v, ok := r.tryPop(); !ok || v != 2 {
		t.Errorf("tryPop = %d,%v, want 2,true", v, ok)
	}
}

func TestSpscRingCloseUnblocksConsumer(t *testing.T) {
	r := newSpscRing[int](4)
	done := make(chan bool)
	go func() {
		_, ok := r.pop()
		done <- ok
	}()
	r.close()
	if ok := <-done; ok {
		t.Error("pop on closed empty ring returned a value")
	}
}

func TestSpscRingCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d accepted", bad)
				}
			}()
			newSpscRing[int](bad)
		}()
	}
}

// --- shard assignment properties -----------------------------------

// TestShardAssignmentStable is the satellite property test: the
// partition→shard assignment is a pure function of (key, shard
// count) — stable within and across runs for a fixed count — and the
// bitmask fast path is bit-identical to the modulo form.
func TestShardAssignmentStable(t *testing.T) {
	keys := make([]string, 0, 512)
	for x := 0; x < 8; x++ {
		for d := 0; d < 2; d++ {
			for s := 0; s < 32; s++ {
				keys = append(keys, fmt.Sprintf("%d|%d|%d|", x, d, s))
			}
		}
	}
	for n := 1; n <= 9; n++ {
		mask := powerOfTwoMask(n)
		if wantMask := n > 0 && n&(n-1) == 0; (mask != 0) != (wantMask && n > 1) && n != 1 {
			t.Errorf("powerOfTwoMask(%d) = %d", n, mask)
		}
		for _, key := range keys {
			h := fnv1a(key)
			if hb := fnv1aBytes([]byte(key)); hb != h {
				t.Fatalf("fnv1aBytes(%q) = %d, fnv1a = %d", key, hb, h)
			}
			got := pickIdx(h, n, mask)
			if want := h % uint32(n); got != want {
				t.Fatalf("pickIdx(%d, n=%d, mask=%d) = %d, want %d (bitmask diverges from modulo)",
					h, n, mask, got, want)
			}
			if again := pickIdx(fnv1a(key), n, mask); again != got {
				t.Fatalf("assignment of %q unstable: %d then %d", key, got, again)
			}
		}
	}
}

func shardEngine(t testing.TB, src string, shards int) (*Engine, *model.Model) {
	t.Helper()
	m, err := model.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(t, m, Config{
		PartitionBy:    []string{"seg"},
		Shards:         shards,
		CollectOutputs: true,
	}), m
}

// --- sharded differential -------------------------------------------

// TestShardedMatchesLegacy is the tentpole differential: for several
// shard counts, the sharded runtime must reproduce the worker
// pool's outputs and statistics exactly. Run under -race this is
// also the stress test of the ring hand-off, the per-shard completed
// marks and the watermark publication.
func TestShardedMatchesLegacy(t *testing.T) {
	const segs, ticks = 8, 400

	ref, mRef := shardEngine(t, trafficSrc, 1)
	stRef, err := ref.RunBatches(newArenaTickSource(t, mRef, segs, ticks))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRenderings(stRef)
	if len(want) == 0 {
		t.Fatal("reference run derived nothing")
	}

	for _, shards := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, m := shardEngine(t, trafficSrc, shards)
			st, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks))
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedRenderings(st); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("outputs diverge from shards=1 (%d vs %d events)", len(got), len(want))
			}
			if st.Events != stRef.Events || st.Ticks != stRef.Ticks || st.Txns != stRef.Txns ||
				st.OutputCount != stRef.OutputCount || st.Transitions != stRef.Transitions ||
				st.Partitions != stRef.Partitions {
				t.Errorf("stats diverge:\nsharded: %+v\nlegacy:  %+v", st, stRef)
			}
			// The sharded run reclaims arena slabs behind the same
			// watermark protocol (400 ticks span 12 000 time units
			// against a ~600-unit slack; shard completion is published
			// inline, so unlike the worker pool this holds on one P).
			if st.ReclaimedChunks == 0 {
				t.Error("sharded watermark never reclaimed a slab")
			}
		})
	}
}

// TestShardedOrderedOutput checks the merge layer's contract: with
// OnOutput set, a sharded run delivers derived events from one
// goroutine in a deterministic order — non-decreasing derivation
// tick, ties broken by shard id — and repeating the run reproduces
// the sequence exactly.
func TestShardedOrderedOutput(t *testing.T) {
	const segs, ticks = 8, 200
	run := func() []string {
		eng, m := shardEngine(t, trafficSrc, 4)
		eng.cfg.CollectOutputs = false
		var seq []string
		var last event.Time
		eng.cfg.OnOutput = func(e *event.Event) {
			if e.End() < last {
				t.Errorf("merged output regressed: t=%d after t=%d", e.End(), last)
			}
			last = e.End()
			seq = append(seq, e.String())
		}
		if _, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks)); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no outputs")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("merged output sequence is not reproducible across runs")
	}
}

// TestShardedOrderingErrors mirrors the pool's protocol tests on the
// sharded router: disorder and split ticks abort the run.
func TestShardedOrderingErrors(t *testing.T) {
	eng, m := shardEngine(t, trafficSrc, 2)
	if _, err := eng.RunBatches(&backwardsSource{src: newArenaTickSource(t, m, 4, 20)}); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("disorder accepted: %v", err)
	}
	eng, m = shardEngine(t, trafficSrc, 2)
	if _, err := eng.RunBatches(&splitTickSource{src: newArenaTickSource(t, m, 4, 20)}); err == nil || !strings.Contains(err.Error(), "split tick") {
		t.Errorf("split tick accepted: %v", err)
	}
}

func TestShardConfigValidation(t *testing.T) {
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	// Shards=0 is one shard whatever GOMAXPROCS is, with or without an
	// explicit worker pool size.
	for _, cfg := range []Config{{}, {Workers: 2}} {
		eng, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.cfg.Shards != 1 {
			t.Errorf("Shards=0 Workers=%d resolved to %d shards, want 1", cfg.Workers, eng.cfg.Shards)
		}
	}
}
