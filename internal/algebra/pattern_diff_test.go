package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

// matchTrace renders matches in emission order, including the match
// interval and arrival stamp — the automaton must reproduce the
// reference kernel's emissions exactly, not merely as a set.
func matchTrace(ms []*Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprintf("%s@[%d,%d]a%d", matchKey(m), m.Time.Start, m.Time.End, m.Arrival)
	}
	return keys
}

// joinHeavyStream generates a stream biased toward wide join
// frontiers: two key values (the float key space for float keys),
// dense duplicate timestamps, a type mix weighted to types[0] (joins
// fan out from step 0), and v values stepping in tens so the NOT-step
// arithmetic filter (query 3) fires regularly.
func joinHeavyStream(rng *rand.Rand, reg *event.Registry, types []string, n int) []*event.Event {
	types = append([]string{types[0]}, types...)
	evs := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			ts += event.Time(rng.Intn(2) + 1)
		}
		s, _ := reg.Lookup(types[rng.Intn(len(types))])
		e := event.MustNew(s, ts,
			event.Int64(int64(rng.Intn(8)*10)), randomKey(rng, s.Field(1).Kind, 2))
		e.Arrival = int64(i + 1)
		evs = append(evs, e)
	}
	return evs
}

// TestKernelDifferentialFuzz drives the shared-run automaton and the
// pre-arena reference kernel (refPattern) over seeded join-heavy
// random streams — runtime-style tick grouping, mid-stream Resets,
// Release after every drain so recycled records are actively reused —
// and requires identical emissions (bindings, order, match intervals,
// arrival stamps) at every drain point, plus counter parity where the
// reference can supply it: EventsSeen is the number of events fed and
// MatchesEmitted the number of matches the reference emitted.
func TestKernelDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1318))
	for qi := 0; qi < patternQueries; qi++ {
		for trial := 0; trial < 40; trial++ {
			spec, m := compileQuerySpec(t, patternModels, qi, int64(10+rng.Intn(80)))
			ak, err := NewPattern(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPattern(spec)
			evs := joinHeavyStream(rng, m.Registry, streamTypes(qi), 80)
			resetAt := -1
			if rng.Intn(3) == 0 {
				resetAt = rng.Intn(len(evs))
			}

			var gotAll, wantAll [][]string
			var scratch []*Match
			emitted := 0
			i := 0
			for i < len(evs) {
				ts := evs[i].End()
				j := i
				for j < len(evs) && evs[j].End() == ts {
					j++
				}
				if resetAt >= i && resetAt < j {
					ak.Reset()
					ref.reset()
				}
				got := ak.Advance(ts, scratch[:0])
				got = ak.Process(evs[i:j], got)
				gotAll = append(gotAll, matchTrace(got))
				ak.Release(got)
				scratch = got

				want := ref.advance(ts, nil)
				want = ref.process(evs[i:j], want)
				wantAll = append(wantAll, matchTrace(want))
				emitted += len(want)
				i = j
			}
			flush := event.Time(1) << 40
			got := ak.Advance(flush, scratch[:0])
			gotAll = append(gotAll, matchTrace(got))
			ak.Release(got)
			want := ref.advance(flush, nil)
			wantAll = append(wantAll, matchTrace(want))
			emitted += len(want)

			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Fatalf("query %d trial %d: kernels disagree\nstream: %v\n automaton: %v\n reference: %v",
					qi, trial, evs, gotAll, wantAll)
			}
			if as := ak.Stats(); as.EventsSeen != uint64(len(evs)) || as.MatchesEmitted != uint64(emitted) {
				t.Fatalf("query %d trial %d: stats diverge: %d events fed, %d matches emitted by the reference; automaton %+v",
					qi, trial, len(evs), emitted, as)
			}
			ak.Reset()
			if f := ak.MemoryFootprint(); f.Retained() != 0 {
				t.Fatalf("query %d trial %d: automaton retains state after Reset: %+v", qi, trial, f)
			}
		}
	}
}
