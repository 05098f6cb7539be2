package runtime

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// propertySrc uses only single-event patterns, so context-aware and
// context-independent semantics provably coincide on ANY stream (no
// match can span a context boundary).
const propertySrc = `
EVENT T(seg int, mode int)
EVENT P(v int, seg int, sec int)
EVENT RA(v int, seg int)
EVENT RB(v int, seg int)

CONTEXT idle DEFAULT
CONTEXT busy
CONTEXT alert

SWITCH CONTEXT busy
PATTERN T t
WHERE t.mode = 1
CONTEXT idle

SWITCH CONTEXT idle
PATTERN T t
WHERE t.mode = 0
CONTEXT busy

INITIATE CONTEXT alert
PATTERN T t
WHERE t.mode = 2
CONTEXT idle, busy

TERMINATE CONTEXT alert
PATTERN T t
WHERE t.mode = 3
CONTEXT alert

DERIVE RA(p.v, p.seg)
PATTERN P p
WHERE p.v > 10
CONTEXT busy

DERIVE RB(p.v, p.seg)
PATTERN P p
WHERE p.v > 5
CONTEXT alert
`

// randomControlStream interleaves random context transitions with
// random data events over several partitions.
func randomControlStream(t testing.TB, m *model.Model, rng *rand.Rand, n int) *event.SliceSource {
	sb := &streamBuilder{t: t, m: m}
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(rng.Intn(3))
		seg := int64(rng.Intn(3))
		if rng.Intn(4) == 0 {
			sb.add("T", ts, seg, int64(rng.Intn(4)))
		} else {
			sb.add("P", ts, int64(rng.Intn(30)), seg, int64(ts))
		}
	}
	return sb.source()
}

// runProperty compiles a fresh model, derives the stream from seed,
// and runs it under the given strategy.
func runProperty(t testing.TB, seed int64, n int, baseline, sharing bool, workers int) *Stats {
	t.Helper()
	m, err := model.CompileSource(propertySrc)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, m, Config{
		ContextIndependent: baseline,
		Sharing:            sharing,
		PartitionBy:        []string{"seg"},
		Workers:            workers,
		CollectOutputs:     true,
	})
	src := randomControlStream(t, m, rand.New(rand.NewSource(seed)), n)
	st, err := eng.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func renderings(st *Stats) string {
	out := make([]string, 0, len(st.Outputs))
	for _, e := range st.Outputs {
		out = append(out, e.String())
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestPropertyCAEqualsCI: on single-event-pattern workloads, the
// context-aware engine and the context-independent baseline derive
// exactly the same complex events for arbitrary streams.
func TestPropertyCAEqualsCI(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		ca := runProperty(t, seed, 120, false, false, 3)
		ci := runProperty(t, seed, 120, true, false, 3)
		if renderings(ca) != renderings(ci) {
			t.Fatalf("seed %d: CA and CI outputs differ\nCA: %s\nCI: %s",
				seed, renderings(ca), renderings(ci))
		}
		if ca.OutputCount > 0 && ci.InstanceExecs <= ca.InstanceExecs {
			t.Errorf("seed %d: CI did not work harder (%d vs %d)",
				seed, ci.InstanceExecs, ca.InstanceExecs)
		}
	}
}

// TestPropertyWorkerCountInvariance: the derived output multiset is
// independent of the worker pool size.
func TestPropertyWorkerCountInvariance(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		one := runProperty(t, seed, 150, false, false, 1)
		many := runProperty(t, seed, 150, false, false, 6)
		if renderings(one) != renderings(many) {
			t.Fatalf("seed %d: outputs differ across worker counts", seed)
		}
	}
}

// TestPropertySharingInvariance: with no duplicate queries in the
// model, sharing must not change outputs at all.
func TestPropertySharingInvariance(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		plain := runProperty(t, seed, 120, false, false, 2)
		shared := runProperty(t, seed, 120, false, true, 2)
		if renderings(plain) != renderings(shared) {
			t.Fatalf("seed %d: sharing changed outputs of a duplicate-free model", seed)
		}
	}
}

// TestPropertyDispatchOrderEquivalence: the distributor's batched,
// first-seen-order hand-off (replacing the seed's per-tick sorted-key
// dispatch) changes no outputs — grouped (shared) and ungrouped plan
// sets stay equivalent at every worker count, and results agree
// across worker counts even though per-worker arrival order differs.
func TestPropertyDispatchOrderEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		var base string
		for _, workers := range []int{1, 2, 5} {
			plain := runProperty(t, seed, 150, false, false, workers)
			shared := runProperty(t, seed, 150, false, true, workers)
			if renderings(plain) != renderings(shared) {
				t.Fatalf("seed %d workers %d: grouped and ungrouped outputs diverged",
					seed, workers)
			}
			if base == "" {
				base = renderings(plain)
			} else if renderings(plain) != base {
				t.Fatalf("seed %d: outputs changed at %d workers", seed, workers)
			}
		}
	}
}

// TestPropertyRerunDeterminism: running the same engine twice yields
// identical outputs (fresh partition state per run).
func TestPropertyRerunDeterminism(t *testing.T) {
	a := runProperty(t, 7, 200, false, false, 4)
	b := runProperty(t, 7, 200, false, false, 4)
	if renderings(a) != renderings(b) {
		t.Fatal("same seed, different outputs")
	}
}
