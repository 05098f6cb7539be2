package algebra

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/wire"
)

// savePattern serializes p the way the runtime does: sections first
// (into a body), the event table after (into the head), table before
// body on the wire.
func savePattern(t *testing.T, p *Pattern) []byte {
	t.Helper()
	var body wire.Enc
	tab := wire.NewEventTable()
	if err := p.Save(&body, tab); err != nil {
		t.Fatal(err)
	}
	var out wire.Enc
	tab.Encode(&out)
	out.Raw(body.Bytes())
	return out.Bytes()
}

func loadPattern(t *testing.T, p *Pattern, data []byte, reg *event.Registry) {
	t.Helper()
	d := wire.NewDec(data)
	evs := wire.DecodeEventTable(d, reg)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	bd := wire.NewDec(d.Raw())
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if err := p.Load(bd, evs); err != nil {
		t.Fatal(err)
	}
	if bd.Rem() != 0 {
		t.Fatalf("pattern load left %d undecoded bytes", bd.Rem())
	}
}

// TestPatternSnapshotFuzz is the snapshot round-trip property test
// for the shared-run kernel: run a seeded random stream to a random
// cut, snapshot, restore into a fresh operator over the same program,
// then drive both operators over the remaining stream and require
// identical emissions at every drain — and byte-identical re-saves at
// the end (the encoding is deterministic and state-converged).
func TestPatternSnapshotFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2451))
	for qi := 0; qi < patternQueries; qi++ {
		for trial := 0; trial < 30; trial++ {
			spec, m := compileQuerySpec(t, patternModels, qi, int64(10+rng.Intn(80)))
			orig, err := NewPattern(spec)
			if err != nil {
				t.Fatal(err)
			}
			evs := joinHeavyStream(rng, m.Registry, streamTypes(qi), 80)
			cutIdx := rng.Intn(len(evs))
			// Align the cut to a tick boundary like the runtime does.
			for cutIdx > 0 && evs[cutIdx-1].End() == evs[cutIdx].End() {
				cutIdx--
			}

			var scratch []*Match
			i := 0
			for i < cutIdx {
				ts := evs[i].End()
				j := i
				for j < len(evs) && evs[j].End() == ts {
					j++
				}
				out := orig.Advance(ts, scratch[:0])
				out = orig.Process(evs[i:j], out)
				orig.Release(out)
				scratch = out
				i = j
			}

			blob := savePattern(t, orig)
			restored := NewPatternFromProgram(orig.Program())
			loadPattern(t, restored, blob, m.Registry)

			if of, rf := orig.MemoryFootprint(), restored.MemoryFootprint(); of != rf {
				t.Fatalf("query %d trial %d: footprint diverges after restore\n    orig: %+v\nrestored: %+v",
					qi, trial, of, rf)
			}

			var gotAll, wantAll [][]string
			var rScratch []*Match
			for i < len(evs) {
				ts := evs[i].End()
				j := i
				for j < len(evs) && evs[j].End() == ts {
					j++
				}
				want := orig.Advance(ts, scratch[:0])
				want = orig.Process(evs[i:j], want)
				wantAll = append(wantAll, matchTrace(want))
				orig.Release(want)
				scratch = want

				got := restored.Advance(ts, rScratch[:0])
				got = restored.Process(evs[i:j], got)
				gotAll = append(gotAll, matchTrace(got))
				restored.Release(got)
				rScratch = got
				i = j
			}
			flush := event.Time(1) << 40
			want := orig.Advance(flush, scratch[:0])
			wantAll = append(wantAll, matchTrace(want))
			orig.Release(want)
			got := restored.Advance(flush, rScratch[:0])
			gotAll = append(gotAll, matchTrace(got))
			restored.Release(got)

			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Fatalf("query %d trial %d cut %d: restored kernel diverges\nstream: %v\n    orig: %v\nrestored: %v",
					qi, trial, cutIdx, evs, wantAll, gotAll)
			}
			// NegChecks is process-local (not snapshotted): the restored
			// operator counts only post-restore checks.
			os, rs := orig.Stats(), restored.Stats()
			os.NegChecks, rs.NegChecks = 0, 0
			if os != rs {
				t.Fatalf("query %d trial %d: stats diverge after restore\n    orig: %+v\nrestored: %+v",
					qi, trial, os, rs)
			}
			if ob, rb := savePattern(t, orig), savePattern(t, restored); !bytes.Equal(ob, rb) {
				t.Fatalf("query %d trial %d: re-save not byte-identical (%d vs %d bytes)",
					qi, trial, len(ob), len(rb))
			}
		}
	}
}

// TestPatternSnapshotEmptyKernel round-trips a freshly built kernel.
func TestPatternSnapshotEmptyKernel(t *testing.T) {
	spec, m := compileQuerySpec(t, patternModels, 0, 100)
	p, err := NewPattern(spec)
	if err != nil {
		t.Fatal(err)
	}
	blob := savePattern(t, p)
	q := NewPatternFromProgram(p.Program())
	loadPattern(t, q, blob, m.Registry)
	if f := q.MemoryFootprint(); f.Retained() != 0 {
		t.Fatalf("restored empty kernel retains state: %+v", f)
	}
}

func TestPatternSnapshotRejectsCorrupt(t *testing.T) {
	spec, m := compileQuerySpec(t, patternModels, 2, 50)
	p, err := NewPattern(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	evs := joinHeavyStream(rng, m.Registry, streamTypes(2), 60)
	out := p.Advance(evs[0].End(), nil)
	for i := 0; i < len(evs); i++ {
		out = p.Advance(evs[i].End(), out[:0])
		out = p.Process(evs[i:i+1], out)
	}
	blob := savePattern(t, p)
	for cut := 0; cut < len(blob); cut += 11 {
		q := NewPatternFromProgram(p.Program())
		d := wire.NewDec(blob[:cut])
		evtab := wire.DecodeEventTable(d, m.Registry)
		body := d.Raw()
		if d.Err() != nil {
			continue // table itself failed to decode: fine, rejected
		}
		// Load must error, not panic, on a truncated body.
		_ = q.Load(wire.NewDec(body), evtab)
	}
}

// aggTwin builds a second Aggregate over the SAME compiled model, so
// schema pointers (and hence event.Equal) line up across operators.
func aggTwin(t *testing.T, m *model.Model) *Aggregate {
	t.Helper()
	q := m.Queries[0]
	a, err := NewAggregate(q.Out, q.Aggs, q.Tumble)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAggregateSnapshotRoundTrip(t *testing.T) {
	a, m := newAgg(t)
	var out []*event.Event
	out = a.Process([]*Match{
		rEvent(t, m, 5, 10), rEvent(t, m, 20, 30), rEvent(t, m, 59, 20),
	}, event.HeapAlloc{}, out)
	if len(out) != 0 || !a.Pending() {
		t.Fatalf("unexpected flush: %v", out)
	}

	var enc wire.Enc
	a.Save(&enc)
	b := aggTwin(t, m)
	if err := b.Load(wire.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !b.Pending() {
		t.Fatal("restored aggregate lost its open window")
	}

	// Both operators must flush identical derived events.
	flushA := a.Advance(60, event.HeapAlloc{}, nil)
	flushB := b.Advance(60, event.HeapAlloc{}, nil)
	if len(flushA) != 1 || len(flushB) != 1 {
		t.Fatalf("flush counts: %d, %d", len(flushA), len(flushB))
	}
	if !flushA[0].Equal(flushB[0]) {
		t.Fatalf("restored aggregate flushed %v, want %v", flushB[0], flushA[0])
	}
	if flushA[0].Arrival != flushB[0].Arrival {
		t.Fatalf("arrival diverged: %d vs %d", flushA[0].Arrival, flushB[0].Arrival)
	}

	// Closed-window state round-trips too.
	var enc2 wire.Enc
	a.Save(&enc2)
	c := aggTwin(t, m)
	if err := c.Load(wire.NewDec(enc2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if c.Pending() {
		t.Fatal("restored closed aggregate claims an open window")
	}
}

func TestAggregateSnapshotFloats(t *testing.T) {
	a, m := newAgg(t)
	a.Process([]*Match{rEvent(t, m, 3, 7)}, event.HeapAlloc{}, nil)
	var enc wire.Enc
	a.Save(&enc)
	b := aggTwin(t, m)
	if err := b.Load(wire.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	fa := a.Advance(60, event.HeapAlloc{}, nil)
	fb := b.Advance(60, event.HeapAlloc{}, nil)
	va, _ := fa[0].Get("mean")
	vb, _ := fb[0].Get("mean")
	if math.Abs(va.Float-vb.Float) != 0 {
		t.Fatalf("mean diverged: %v vs %v", va, vb)
	}
}

func TestVectorRestore(t *testing.T) {
	v := NewVector(0)
	v.Apply(Transition{Kind: TransInit, Context: 3, At: 17}, 0)
	w := NewVector(0)
	w.Restore(v.Bits(), v.Time())
	if w.Bits() != v.Bits() || w.Time() != v.Time() {
		t.Fatalf("restore: got bits=%b time=%d, want bits=%b time=%d",
			w.Bits(), w.Time(), v.Bits(), v.Time())
	}
}
