package runtime

import (
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// TestReplayedTicksUntraced checks that recovery replay never reaches
// the stage tracer on either placement: replayed ticks come from the
// WAL, not from a decoded batch, so a timeline for one would carry
// empty decode and queue-wait stamps. The crash fires before t=1500's
// WAL append with a snapshot at t=1440, so recovery replays t=1470
// and every traced tick must lie beyond it.
func TestReplayedTicksUntraced(t *testing.T) {
	const segs, ticks, every, crashAt = 6, 90, 16, 1500
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			crash, m1, _ := durableEngine(t, shards, dir, every, 1)
			crash.cfg.testCrashTick = crashAt
			if _, err := crash.RunBatches(newArenaTickSource(t, m1, segs, ticks)); !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("crashed run returned %v, want the simulated crash", err)
			}

			rec, m2, _ := durableEngine(t, shards, dir, every, 1)
			tr := telemetry.NewStageTracer(1, 256)
			rec.cfg.Stages = tr
			st, err := rec.RunBatches(newArenaTickSource(t, m2, segs, ticks))
			if err != nil {
				t.Fatal(err)
			}
			if st.ReplayedTicks == 0 {
				t.Fatal("recovery replayed no WAL ticks")
			}
			tls := tr.Timelines()
			if len(tls) == 0 {
				t.Fatal("no live tick was traced")
			}
			for _, tl := range tls {
				if tl.Tick < crashAt {
					t.Errorf("tick %d at or below the recovery point was traced", tl.Tick)
				}
			}
		})
	}
}

// TestRunLeavesNoGoroutines checks that every goroutine a run starts —
// decode, the workers or shards, the merger — has exited when Run
// returns, whether the run finishes, re-runs on its cached
// scaffolding, or aborts on disorder, a split tick or a crash.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const segs, ticks = 4, 40
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/durable=%t", shards, durable), func(t *testing.T) {
				base := gort.NumGoroutine()
				settled := func() {
					t.Helper()
					deadline := time.Now().Add(2 * time.Second)
					for gort.NumGoroutine() > base {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after the run, %d before", gort.NumGoroutine(), base)
						}
						time.Sleep(time.Millisecond)
					}
				}
				build := func() *Engine {
					cfg := Config{PartitionBy: []string{"seg"}, Workers: 3, Shards: shards,
						OnOutput: func(*event.Event) {}}
					if durable {
						cfg.DurableDir, cfg.CheckpointEvery = t.TempDir(), 4
					}
					return newEngine(t, m, cfg)
				}
				eng := build()
				for i := 0; i < 2; i++ { // a clean run, then a cached re-run
					if _, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks)); err != nil {
						t.Fatal(err)
					}
					settled()
				}
				aborts := []struct {
					src  event.BatchSource
					want string
				}{
					{&backwardsSource{src: newArenaTickSource(t, m, segs, ticks)}, "out-of-order"},
					{&splitTickSource{src: newArenaTickSource(t, m, segs, ticks)}, "split tick"},
				}
				for _, a := range aborts {
					if _, err := build().RunBatches(a.src); err == nil || !strings.Contains(err.Error(), a.want) {
						t.Fatalf("run returned %v, want %q", err, a.want)
					}
					settled()
				}
				if durable {
					eng := build()
					eng.cfg.testCrashTick = 600
					if _, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks)); !errors.Is(err, errSimulatedCrash) {
						t.Fatalf("crashed run returned %v, want the simulated crash", err)
					}
					settled()
				}
			})
		}
	}
}
