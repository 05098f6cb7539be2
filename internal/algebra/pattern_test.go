package algebra

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

const patternModels = `
EVENT A(v int, k int)
EVENT B(v int, k int)
EVENT C(v int, k int)
EVENT S(v int, k string)
EVENT F(v int, k float)
EVENT Out(v int)

CONTEXT main DEFAULT

DERIVE Out(a.v)
PATTERN A a
WHERE a.v > 10

DERIVE Out(b.v)
PATTERN SEQ(A a, B b)
WHERE a.k = b.k

DERIVE Out(c.v)
PATTERN SEQ(A a, B b, C c)
WHERE a.k = b.k AND b.k = c.k

DERIVE Out(p2.v)
PATTERN SEQ(NOT A p1, A p2)
WHERE p1.k = p2.k AND p1.v + 30 = p2.v

DERIVE Out(b.v)
PATTERN SEQ(A a, NOT C x, B b)
WHERE a.k = b.k AND x.k = a.k

DERIVE Out(a.v)
PATTERN SEQ(A a, NOT B x)
WHERE x.k = a.k
WITHIN 50

DERIVE Out(b.v)
PATTERN SEQ(S a, NOT S x, S b)
WHERE a.k = b.k AND x.k = a.k

DERIVE Out(p2.v)
PATTERN SEQ(NOT F p1, F p2)
WHERE p1.k = p2.k AND p1.v < p2.v
`

// patternQueries is the number of queries in patternModels. Queries
// 0-5 join on int keys over A, B and C; 6 and 7 are the string- and
// float-keyed negation shapes over S and F.
const patternQueries = 8

// streamTypes returns the event types a random stream for
// patternModels query qi draws from.
func streamTypes(qi int) []string {
	if qi < 6 {
		return []string{"A", "B", "C"}
	}
	return []string{"S", "F"}
}

// floatKeys is the float join-key space of random streams: 0.0 and
// -0.0 are Value.Equal but differ bitwise, and NaN equals nothing —
// the cases where the negation index's 64-bit key could disagree with
// the join predicate.
var floatKeys = []event.Value{
	event.Float64(0), event.Float64(math.Copysign(0, -1)), event.Float64(math.NaN()), event.Float64(1.5),
}

// randomKey draws a join key of the given kind; int and string keys
// range over n values.
func randomKey(rng *rand.Rand, kind event.Kind, n int) event.Value {
	switch kind {
	case event.KindString:
		return event.String(string(rune('x' + rng.Intn(n))))
	case event.KindFloat:
		return floatKeys[rng.Intn(len(floatKeys))]
	default:
		return event.Int64(int64(rng.Intn(n)))
	}
}

// mev builds an event on the test schemas registered in the compiled
// model (schemas are matched by pointer identity, so events must use
// the model's registry).
func mev(t *testing.T, m interface {
	Lookup(string) (*event.Schema, bool)
}, typ string, ts event.Time, v, k int64) *event.Event {
	t.Helper()
	s, ok := m.Lookup(typ)
	if !ok {
		t.Fatalf("no schema %s", typ)
	}
	return event.MustNew(s, ts, event.Int64(v), event.Int64(k))
}

func newPattern(t *testing.T, qi int, horizon int64) (*Pattern, *event.Registry) {
	t.Helper()
	spec, m := compileQuerySpec(t, patternModels, qi, horizon)
	p, err := NewPattern(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, m.Registry
}

func TestPatternSingleStepWithFilter(t *testing.T) {
	p, reg := newPattern(t, 0, 100)
	evs := []*event.Event{
		mev(t, reg, "A", 1, 5, 0),
		mev(t, reg, "A", 2, 11, 0),
		mev(t, reg, "A", 3, 20, 0),
		mev(t, reg, "B", 4, 99, 0), // wrong type, ignored
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 2 {
		t.Fatalf("matches = %d, want 2", len(out))
	}
	if out[0].Binding[0].At(0).Int != 11 || out[1].Binding[0].At(0).Int != 20 {
		t.Errorf("wrong matches: %v %v", out[0], out[1])
	}
	st := p.Stats()
	if st.FilteredOut != 1 || st.MatchesEmitted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPatternTwoStepJoin(t *testing.T) {
	p, reg := newPattern(t, 1, 100)
	evs := []*event.Event{
		mev(t, reg, "A", 1, 1, 7),
		mev(t, reg, "A", 2, 2, 8),
		mev(t, reg, "B", 3, 3, 7), // joins with A@1 (k=7)
		mev(t, reg, "B", 4, 4, 9), // no partner
		mev(t, reg, "B", 5, 5, 8), // joins with A@2 (k=8)
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 2 {
		t.Fatalf("matches = %d, want 2: %v", len(out), out)
	}
	m0 := out[0]
	if m0.Binding[0].Time.Start != 1 || m0.Binding[1].Time.Start != 3 {
		t.Errorf("match 0 = %v", m0)
	}
	if m0.Time.Start != 1 || m0.Time.End != 3 {
		t.Errorf("match 0 interval = %v", m0.Time)
	}
}

func TestPatternStrictSequenceOrder(t *testing.T) {
	p, reg := newPattern(t, 1, 100)
	// B before A, and B at the same timestamp as A: neither matches.
	evs := []*event.Event{
		mev(t, reg, "B", 1, 1, 7),
		mev(t, reg, "A", 2, 2, 7),
		mev(t, reg, "B", 2, 3, 7), // same timestamp as A: e1.time < e2.time fails
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 0 {
		t.Fatalf("matches = %v, want none", out)
	}
}

func TestPatternThreeStep(t *testing.T) {
	p, reg := newPattern(t, 2, 100)
	evs := []*event.Event{
		mev(t, reg, "A", 1, 1, 1),
		mev(t, reg, "B", 2, 2, 1),
		mev(t, reg, "B", 3, 3, 1),
		mev(t, reg, "C", 4, 4, 1),
		mev(t, reg, "C", 5, 5, 2), // k mismatch
	}
	out := runPattern(p, evs, 1000)
	// A@1 -> (B@2 or B@3) -> C@4: two matches.
	if len(out) != 2 {
		t.Fatalf("matches = %d, want 2: %v", len(out), out)
	}
}

func TestPatternLeadingNegation(t *testing.T) {
	// SEQ(NOT A p1, A p2) WHERE p1.k = p2.k AND p1.v + 30 = p2.v:
	// an A is suppressed if an earlier A with same k and v-30 exists
	// (the Linear Road "new traveling car" shape).
	p, reg := newPattern(t, 3, 100)
	evs := []*event.Event{
		mev(t, reg, "A", 1, 40, 1),  // no predecessor: match
		mev(t, reg, "A", 2, 70, 1),  // predecessor v=40 @1: suppressed
		mev(t, reg, "A", 3, 70, 2),  // k=2 has no predecessor: match
		mev(t, reg, "A", 4, 105, 1), // needs v=75: none: match
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 3 {
		t.Fatalf("matches = %d, want 3: %v", len(out), out)
	}
	st := p.Stats()
	if st.MatchesNegated != 1 {
		t.Errorf("negated = %d, want 1", st.MatchesNegated)
	}
}

func TestPatternMidNegation(t *testing.T) {
	// SEQ(A a, NOT C x, B b) WHERE a.k=b.k AND x.k=a.k.
	p, reg := newPattern(t, 4, 100)
	evs := []*event.Event{
		mev(t, reg, "A", 1, 1, 1),
		mev(t, reg, "C", 2, 9, 1), // blocks k=1 pairs spanning t=2
		mev(t, reg, "B", 3, 2, 1), // A@1..B@3 blocked by C@2
		mev(t, reg, "A", 4, 3, 1),
		mev(t, reg, "B", 5, 4, 1), // A@4..B@5 clean; A@1..B@5 blocked
		mev(t, reg, "A", 6, 5, 2),
		mev(t, reg, "C", 7, 9, 3), // k=3: does not block k=2
		mev(t, reg, "B", 8, 6, 2), // A@6..B@8 clean
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 2 {
		t.Fatalf("matches = %d, want 2: %v", len(out), out)
	}
	for _, m := range out {
		a, b := m.Binding[0], m.Binding[2]
		if !(a.Time.Start == 4 && b.Time.Start == 5) && !(a.Time.Start == 6 && b.Time.Start == 8) {
			t.Errorf("unexpected match %v", m)
		}
	}
}

func TestPatternTrailingNegation(t *testing.T) {
	// SEQ(A a, NOT B x) WHERE x.k = a.k WITHIN 50: A emits only if no
	// B with the same k follows within 50 time units.
	p, reg := newPattern(t, 5, 50)
	evs := []*event.Event{
		mev(t, reg, "A", 10, 1, 1),
		mev(t, reg, "B", 20, 2, 1), // kills A@10
		mev(t, reg, "A", 30, 3, 2),
		mev(t, reg, "B", 90, 4, 2), // too late (30+50=80 < 90): A@30 already emitted
		mev(t, reg, "A", 100, 5, 3),
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 2 {
		t.Fatalf("matches = %d, want 2: %v", len(out), out)
	}
	vals := []int64{out[0].Binding[0].At(0).Int, out[1].Binding[0].At(0).Int}
	if !(vals[0] == 3 && vals[1] == 5) {
		t.Errorf("emitted %v, want [3 5]", vals)
	}
}

func TestPatternTrailingNegationKillAtDeadline(t *testing.T) {
	p, reg := newPattern(t, 5, 50)
	evs := []*event.Event{
		mev(t, reg, "A", 10, 1, 1),
		mev(t, reg, "B", 60, 2, 1), // exactly at deadline 10+50: still kills
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 0 {
		t.Fatalf("matches = %v, want none", out)
	}
}

func TestPatternHorizonExpiry(t *testing.T) {
	p, reg := newPattern(t, 1, 10) // SEQ(A a, B b), horizon 10
	evs := []*event.Event{
		mev(t, reg, "A", 1, 1, 7),
		mev(t, reg, "B", 20, 2, 7), // partial expired at t=20 (1 < 20-10)
		mev(t, reg, "A", 21, 3, 7),
		mev(t, reg, "B", 30, 4, 7), // span 9 <= 10: match
	}
	out := runPattern(p, evs, 1000)
	if len(out) != 1 || out[0].Binding[0].At(0).Int != 3 {
		t.Fatalf("matches = %v, want the short-span one", out)
	}
	if p.Stats().PartialsExpired == 0 {
		t.Error("no partial expired")
	}
}

func TestPatternReset(t *testing.T) {
	p, reg := newPattern(t, 1, 100)
	var out []*Match
	out = p.Advance(1, out)
	out = p.Process([]*event.Event{mev(t, reg, "A", 1, 1, 7)}, out)
	if f := p.MemoryFootprint(); f.Retained() != 1 {
		t.Fatalf("retained = %d (%+v), want 1", f.Retained(), f)
	}
	p.Reset()
	if f := p.MemoryFootprint(); f.Retained() != 0 {
		t.Fatal("reset did not clear state")
	}
	// After reset the old A is forgotten: B alone does not match.
	out = p.Advance(2, nil)
	out = p.Process([]*event.Event{mev(t, reg, "B", 2, 2, 7)}, out)
	if len(out) != 0 {
		t.Fatalf("match after reset: %v", out)
	}
}

func TestPatternArrivalPropagation(t *testing.T) {
	p, reg := newPattern(t, 1, 100)
	a := mev(t, reg, "A", 1, 1, 7)
	a.Arrival = 100
	b := mev(t, reg, "B", 2, 2, 7)
	b.Arrival = 50
	var out []*Match
	out = p.Advance(1, out)
	out = p.Process([]*event.Event{a}, out)
	out = p.Advance(2, out)
	out = p.Process([]*event.Event{b}, out)
	if len(out) != 1 || out[0].Arrival != 100 {
		t.Fatalf("arrival = %v", out)
	}
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern(PatternSpec{Horizon: 10}); err == nil {
		t.Error("empty steps accepted")
	}
	spec, _ := compileQuerySpec(t, patternModels, 0, 100)
	spec.Horizon = 0
	if _, err := NewPattern(spec); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestPatternMatchesBruteForce is the core property test: the
// incremental matcher agrees with exhaustive enumeration on random
// streams, across every query shape — including the string- and
// float-keyed negations, whose streams mix 0.0, -0.0 and NaN keys.
func TestPatternMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for qi := 0; qi < patternQueries; qi++ {
		spec, m := compileQuerySpec(t, patternModels, qi, 1000)
		for trial := 0; trial < 60; trial++ {
			evs := randomStream(rng, m.Registry, streamTypes(qi), 24)
			p, err := NewPattern(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := matchSet(runPattern(p, evs, 1<<40))
			want := matchSet(bruteForce(spec, evs))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d trial %d: incremental and brute force disagree\nstream: %v\n got: %v\nwant: %v",
					qi, trial, evs, got, want)
			}
		}
	}
}

func randomStream(rng *rand.Rand, reg *event.Registry, types []string, n int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(rng.Intn(3)) // duplicate timestamps happen
		s, _ := reg.Lookup(types[rng.Intn(len(types))])
		evs = append(evs, event.MustNew(s, ts,
			event.Int64(int64(rng.Intn(80))), randomKey(rng, s.Field(1).Kind, 3)))
	}
	return evs
}
