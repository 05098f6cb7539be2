package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/caesar-cep/caesar/internal/durability"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
)

// outputLog collects derived-event renderings in delivery order.
// Events handed to OnOutput are arena-backed and valid only inside the
// callback, so each is rendered immediately.
type outputLog struct {
	mu  sync.Mutex
	seq []string
}

func (l *outputLog) add(e *event.Event) {
	l.mu.Lock()
	l.seq = append(l.seq, e.String())
	l.mu.Unlock()
}

func (l *outputLog) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seq...)
}

func sameLines(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// durableEngine builds an engine whose OnOutput delivery order is
// deterministic: a single worker on the pool (shards=1),
// the ordered merge layer otherwise. dir == "" runs without
// durability.
func durableEngine(t testing.TB, shards int, dir string, every, walSync int) (*Engine, *model.Model, *outputLog) {
	t.Helper()
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	log := &outputLog{}
	cfg := Config{
		PartitionBy:     []string{"seg"},
		Shards:          shards,
		DurableDir:      dir,
		CheckpointEvery: every,
		WALSync:         walSync,
		OnOutput:        log.add,
	}
	if shards == 1 {
		cfg.Workers = 1
	}
	return newEngine(t, m, cfg), m, log
}

// TestCrashRecoveryDifferential is the headline durability proof: a
// run killed at a random tick boundary and then recovered (snapshot
// restore + WAL replay + live dedup over the re-fed stream) must
// derive byte-identical output to an uninterrupted run. Because the
// sink is non-transactional the guarantee is exactly-once state,
// at-least-once output: the crashed run's deliveries are a prefix of
// the reference sequence, the recovered run's a suffix, and together
// they cover it — the only permitted anomaly is re-delivery of the
// overlap between the last checkpoint and the crash.
func TestCrashRecoveryDifferential(t *testing.T) {
	const segs, ticks, every = 6, 90, 16
	// Tick timestamps run 30, 60, …, 30*(ticks+1); a checkpoint lands
	// every 16 dispatched ticks (t=480, 960, 1440, …). The fault fires
	// at the first tick boundary with ts >= crashAt, before that
	// tick's WAL append.
	cases := []struct {
		name    string
		crashAt int64
		replays bool // WAL tail non-empty at the crash point
	}{
		{"pure-wal", 180, true},         // before the first checkpoint: recovery is WAL-only
		{"post-checkpoint", 510, false}, // right after t=480's checkpoint: WAL tail empty
		{"mid-run", 1500, true},         // snapshot at 1440 plus a short WAL tail
		{"late", 2520, true},
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref, mRef, refLog := durableEngine(t, shards, "", every, 0)
			if _, err := ref.RunBatches(newArenaTickSource(t, mRef, segs, ticks)); err != nil {
				t.Fatal(err)
			}
			want := refLog.lines()
			if len(want) == 0 {
				t.Fatal("reference run derived nothing")
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					dir := t.TempDir()

					crash, m1, crashLog := durableEngine(t, shards, dir, every, 1)
					crash.cfg.testCrashTick = tc.crashAt
					if _, err := crash.RunBatches(newArenaTickSource(t, m1, segs, ticks)); !errors.Is(err, errSimulatedCrash) {
						t.Fatalf("crashed run returned %v, want the simulated crash", err)
					}
					r1 := crashLog.lines()

					rec, m2, recLog := durableEngine(t, shards, dir, every, 1)
					st, err := rec.RunBatches(newArenaTickSource(t, m2, segs, ticks))
					if err != nil {
						t.Fatal(err)
					}
					r2 := recLog.lines()

					nU, n1, n2 := len(want), len(r1), len(r2)
					if n1 > nU || !sameLines(r1, want[:n1]) {
						t.Errorf("crashed run's %d outputs are not a prefix of the reference's %d", n1, nU)
					}
					if n2 > nU || !sameLines(r2, want[nU-n2:]) {
						t.Errorf("recovered run's %d outputs are not a suffix of the reference's %d", n2, nU)
					}
					if n1+n2 < nU {
						t.Errorf("outputs lost across the crash: %d + %d < %d", n1, n2, nU)
					}
					if tc.replays && st.ReplayedTicks == 0 {
						t.Error("recovery replayed no WAL ticks")
					}
					if !tc.replays && st.ReplayedTicks != 0 {
						t.Errorf("recovery replayed %d ticks from a WAL the checkpoint truncated", st.ReplayedTicks)
					}
				})
			}
		})
	}
}

// TestDurableResumeAfterCleanFinish re-feeds a completed run's stream
// into a fresh engine over the same durable directory: the WAL tail
// past the last checkpoint replays (re-emitting only those outputs)
// and every live tick dedups against the recovery point, so the resume
// derives a strict suffix of the original output and nothing new.
func TestDurableResumeAfterCleanFinish(t *testing.T) {
	const segs, ticks, every = 4, 60, 16

	ref, mRef, refLog := durableEngine(t, 1, "", every, 0)
	if _, err := ref.RunBatches(newArenaTickSource(t, mRef, segs, ticks)); err != nil {
		t.Fatal(err)
	}
	want := refLog.lines()
	if len(want) == 0 {
		t.Fatal("reference run derived nothing")
	}

	dir := t.TempDir()
	first, m1, firstLog := durableEngine(t, 1, dir, every, 0)
	if _, err := first.RunBatches(newArenaTickSource(t, m1, segs, ticks)); err != nil {
		t.Fatal(err)
	}
	if got := firstLog.lines(); !sameLines(got, want) {
		t.Fatalf("durable run diverges from the WAL-less reference (%d vs %d outputs)", len(got), len(want))
	}

	second, m2, secondLog := durableEngine(t, 1, dir, every, 0)
	st, err := second.RunBatches(newArenaTickSource(t, m2, segs, ticks))
	if err != nil {
		t.Fatal(err)
	}
	r2 := secondLog.lines()
	if len(r2) >= len(want) {
		t.Errorf("resume re-derived %d of %d outputs: the checkpoint was not honored", len(r2), len(want))
	}
	if !sameLines(r2, want[len(want)-len(r2):]) {
		t.Errorf("resumed run's %d outputs are not a suffix of the reference's %d", len(r2), len(want))
	}
	if st.ReplayedTicks == 0 {
		t.Error("resume replayed no WAL ticks")
	}
}

// TestCorruptSnapshotFallbackRecovery: a corrupt newest snapshot must
// not poison recovery. LoadLatestSnapshot falls back to the older
// retained image, and because checkpoint() truncates the WAL only to
// the oldest retained snapshot's tick, the WAL still holds every tick
// after the fallback image — the resumed run replays through the gap
// and derives a clean suffix of the reference output.
func TestCorruptSnapshotFallbackRecovery(t *testing.T) {
	const segs, ticks, every = 4, 60, 16

	ref, mRef, refLog := durableEngine(t, 1, "", every, 0)
	if _, err := ref.RunBatches(newArenaTickSource(t, mRef, segs, ticks)); err != nil {
		t.Fatal(err)
	}
	want := refLog.lines()
	if len(want) == 0 {
		t.Fatal("reference run derived nothing")
	}

	dir := t.TempDir()
	first, m1, _ := durableEngine(t, 1, dir, every, 0)
	if _, err := first.RunBatches(newArenaTickSource(t, m1, segs, ticks)); err != nil {
		t.Fatal(err)
	}
	newestTick, ok := durability.LatestSnapshotTick(dir)
	if !ok {
		t.Fatal("durable run wrote no snapshot")
	}
	oldestTick, _ := durability.OldestSnapshotTick(dir)
	if oldestTick >= newestTick {
		t.Fatalf("want two retained snapshots, got oldest=%d newest=%d", oldestTick, newestTick)
	}
	newest := filepath.Join(dir, fmt.Sprintf("snap-%d.ckpt", int64(newestTick)))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	second, m2, secondLog := durableEngine(t, 1, dir, every, 0)
	st, err := second.RunBatches(newArenaTickSource(t, m2, segs, ticks))
	if err != nil {
		t.Fatal(err)
	}
	r2 := secondLog.lines()
	if len(r2) == 0 || len(r2) >= len(want) {
		t.Fatalf("resume re-derived %d of %d outputs", len(r2), len(want))
	}
	if !sameLines(r2, want[len(want)-len(r2):]) {
		t.Errorf("recovered run's %d outputs are not a suffix of the reference's %d", len(r2), len(want))
	}
	// Replay must have reached behind the corrupt image: tick
	// timestamps advance by 30, so the tail after the newest snapshot
	// holds (last-newest)/30 ticks, and a fallback to the older image
	// replays strictly more than that.
	tailAfterNewest := (30*int64(ticks+1) - int64(newestTick)) / 30
	if int64(st.ReplayedTicks) <= tailAfterNewest {
		t.Errorf("replayed %d ticks, want > %d: recovery did not fall back past the corrupt snapshot",
			st.ReplayedTicks, tailAfterNewest)
	}
}

// TestDurableConfigValidation: a negative checkpoint interval is
// rejected, and an interval without a durable dir stays inert.
func TestDurableConfigValidation(t *testing.T) {
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{Workers: 1, DurableDir: t.TempDir(), CheckpointEvery: -1}); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
	if _, err := New(p, Config{Workers: 1, CheckpointEvery: 8}); err != nil {
		t.Errorf("checkpoint interval without a durable dir rejected: %v", err)
	}
}

// TestTollDurabilityFingerprint pins the snapshot-compatibility string
// of the toll engine as the CLI builds it. A snapshot restores only
// into an engine with the identical fingerprint, so any change here
// orphans every snapshot directory written before it: the string may
// change only together with a deliberate snapshot-format change.
func TestTollDurabilityFingerprint(t *testing.T) {
	const want = "caesar-snap-v1|mode=context-aware|sharing=false|fusion=false|partition=xway,dir,seg" +
		"|opts=true,true,0,false,false|g|q0(DERIVE SegStat):7:300|q1(SWITCH CONTEXT congestion):2:300" +
		"|q2(SWITCH CONTEXT clear):4:300|q3(DERIVE StoppedCar):6:35|q4(INITIATE CONTEXT accident):6:300" +
		"|q5(TERMINATE CONTEXT accident):1:300|q6(DERIVE TollNotification):3:90" +
		"|q7(DERIVE TollNotification):4:90|q8(DERIVE AccidentWarning):1:300"
	m, err := model.CompileSource(linearroad.ModelSource(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, m, Config{PartitionBy: linearroad.PartitionBy(), Shards: 1})
	if got := eng.durabilityFingerprint(); got != want {
		t.Errorf("durability fingerprint changed:\n got: %s\nwant: %s", got, want)
	}
}

// BenchmarkSnapshotRoundTrip measures one full checkpoint image:
// serializing every live partition's state and restoring it in place,
// over the state a 200-tick traffic run leaves behind.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	const segs, ticks = 8, 200
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		b.Fatal(err)
	}
	eng := newEngine(b, m, Config{PartitionBy: []string{"seg"}, Workers: 1})
	if _, err := eng.RunBatches(newArenaTickSource(b, m, segs, ticks)); err != nil {
		b.Fatal(err)
	}
	r := eng.cached
	if r == nil {
		b.Fatal("clean run did not cache its scaffolding")
	}
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes = 0
		for _, pt := range r.place.(*distributor).table {
			if pt.state == nil {
				continue
			}
			blob, err := savePartitionState(pt.state)
			if err != nil {
				b.Fatal(err)
			}
			bytes += int64(len(blob))
			if err := eng.loadPartitionState(pt.state, blob); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(bytes), "snap-bytes")
}

// BenchmarkRecoveryReplay measures end-to-end crash recovery with a
// checkpoint-free durable directory: every iteration boots a fresh
// engine over a WAL holding the whole 200-tick run, replays it, and
// dedups the re-fed live stream.
func BenchmarkRecoveryReplay(b *testing.B) {
	const segs, ticks = 8, 200
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	cfg := Config{PartitionBy: []string{"seg"}, Workers: 1,
		DurableDir: dir, CheckpointEvery: 1 << 30, WALSync: -1}
	seed, err := New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.RunBatches(newArenaTickSource(b, m, segs, ticks)); err != nil {
		b.Fatal(err)
	}
	var replayed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := eng.RunBatches(newArenaTickSource(b, m, segs, ticks))
		if err != nil {
			b.Fatal(err)
		}
		if st.ReplayedTicks == 0 {
			b.Fatal("recovery replayed nothing")
		}
		replayed += st.Events
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(replayed)/s, "replayed-events/s")
	}
}
