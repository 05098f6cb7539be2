package algebra

import (
	"hash/maphash"
	"math"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// negTracker owns the negation side of a pattern operator: the
// per-negation event buffers, their hash indexes and the
// completion-time violation checks.
//
// buf[j] buffers events of negation j's type, bounded by 2*Horizon so
// that completion-time checks see every event that can fall within a
// live match's span. The buffer is a ring over a slice: head[j] marks
// the first live entry, expiry advances it, and the slice compacts
// only when the dead prefix dominates — no per-Advance reshuffling.
//
// idx[j] indexes the live part of buf[j] by a 64-bit key of the
// negation's hash-join attribute (nil when the negation has no
// equi-join condition or indexing is disabled): completion-time checks
// then probe one bucket instead of scanning the buffer. The key may
// collide (see negKey); the equi-join conjunct stays in the
// negation's Conds, so condsHold re-verifies every candidate. Buckets
// are arena-recycled rings that mirror buf's head-offset discipline,
// and every buffer entry carries its bucket so expiry pops bucket
// fronts without hashing. Emptied buckets stay mapped (their key
// usually comes back); idxEmpty[j] counts them, and a sweep returns
// them to the arena only when they dominate.
type negTracker struct {
	negs  []model.Negation
	steps []model.Step
	arena *kernelArena

	buf      [][]negEntry
	head     []int
	idx      []map[uint64]*negBucket
	idxEmpty []int

	// checks counts condsHold evaluations: the candidates the index
	// and the interval test let through (PatternStats.NegChecks).
	checks uint64

	scratch []*event.Event // negation condition evaluation buffer
}

// negEntry is one buffered negation event and the index bucket it
// sits in (nil when the negation is not indexed).
type negEntry struct {
	ev *event.Event
	b  *negBucket
}

// negBucket is one hash bucket of a negation index: a ring over a
// slice, like the buffer itself. evs[head:] is the live portion in
// stream order; expiry advances head and compaction runs only when
// the dead prefix dominates. Buckets recycle through the arena.
type negBucket struct {
	evs  []*event.Event
	head int
}

// empty reports whether the bucket holds no live events.
func (b *negBucket) empty() bool { return b.head == len(b.evs) }

// negSeed keys string hashing. It changes per process, so nothing
// persisted may depend on bucket layout (snapshots write buffers, not
// indexes).
var negSeed = maphash.MakeSeed()

// negKey maps a join value to its 64-bit index key. Values that
// Value.Equal considers equal get equal keys; the converse need not
// hold, since every candidate is re-checked. The model only indexes an
// equi-join whose probe has the indexed field's kind, so keys never
// mix kinds. Ints and bools key by their bits; floats by theirs with
// -0.0 folded onto 0.0 (NaN equals nothing, so its key is moot);
// strings by maphash.
func negKey(v event.Value) uint64 {
	switch v.Kind {
	case event.KindFloat:
		f := v.Float
		if f == 0 {
			f = 0 // -0.0 == 0.0 but their bits differ
		}
		return math.Float64bits(f)
	case event.KindString:
		return maphash.String(negSeed, v.Str)
	default:
		return uint64(v.Int)
	}
}

func newNegTracker(spec *PatternSpec, arena *kernelArena) *negTracker {
	nt := &negTracker{
		negs:     spec.Negs,
		steps:    spec.Steps,
		arena:    arena,
		buf:      make([][]negEntry, len(spec.Negs)),
		head:     make([]int, len(spec.Negs)),
		idx:      make([]map[uint64]*negBucket, len(spec.Negs)),
		idxEmpty: make([]int, len(spec.Negs)),
		scratch:  make([]*event.Event, spec.NumSlots),
	}
	for j := range spec.Negs {
		if spec.Negs[j].HashProbe != nil && !spec.DisableNegIndex {
			nt.idx[j] = map[uint64]*negBucket{}
		}
	}
	return nt
}

// observe buffers an event of negation j's type (the caller matched
// the schema) and registers it in the hash index.
func (nt *negTracker) observe(j int, e *event.Event) {
	var b *negBucket
	if idx := nt.idx[j]; idx != nil {
		k := negKey(e.At(nt.negs[j].HashField))
		b = idx[k]
		switch {
		case b == nil:
			b = nt.arena.getBucket()
			idx[k] = b
		case b.empty():
			b.evs = b.evs[:0]
			b.head = 0
			nt.idxEmpty[j]--
		}
		b.evs = append(b.evs, e)
	}
	nt.buf[j] = append(nt.buf[j], negEntry{ev: e, b: b})
}

// expire advances every ring head past events older than negCut,
// trimming the index buckets in step. Events enter the buffer (and
// their bucket) in stream order and End() is non-decreasing, so the
// expired set is a prefix of both the buffer and each bucket — each
// expired entry pops the front of the bucket it carries. Compaction
// runs only when the dead prefix dominates the buffer, keeping
// amortized cost O(expired) instead of an O(live) map rebuild.
func (nt *negTracker) expire(negCut event.Time) {
	for j := range nt.buf {
		nt.expireBuf(j, negCut)
	}
}

func (nt *negTracker) expireBuf(j int, negCut event.Time) {
	nb := nt.buf[j]
	h := nt.head[j]
	for h < len(nb) && nb[h].ev.End() < negCut {
		if b := nb[h].b; b != nil {
			b.evs[b.head] = nil
			b.head++
			switch {
			case b.empty():
				b.evs = b.evs[:0]
				b.head = 0
				nt.idxEmpty[j]++
			case b.head > 32 && 2*b.head >= len(b.evs):
				n := copy(b.evs, b.evs[b.head:])
				for i := n; i < len(b.evs); i++ {
					b.evs[i] = nil
				}
				b.evs = b.evs[:n]
				b.head = 0
			}
		}
		nb[h] = negEntry{}
		h++
	}
	switch {
	case h == len(nb):
		nb = nb[:0]
		h = 0
	case h > 64 && 2*h >= len(nb):
		n := copy(nb, nb[h:])
		nb = nb[:n]
		h = 0
	}
	nt.buf[j] = nb
	nt.head[j] = h
	// Evict mapped-but-empty buckets only once they dominate the map —
	// a hot key's bucket then stays put across live/empty cycles.
	if idx := nt.idx[j]; idx != nil && nt.idxEmpty[j] > 64 && 2*nt.idxEmpty[j] >= len(idx) {
		for k, b := range idx {
			if b.empty() {
				delete(idx, k)
				nt.arena.putBucket(b)
			}
		}
		nt.idxEmpty[j] = 0
	}
}

// reset discards all buffered events and returns index buckets to
// the arena.
func (nt *negTracker) reset() {
	for j := range nt.buf {
		nb := nt.buf[j]
		for k := nt.head[j]; k < len(nb); k++ {
			nb[k] = negEntry{}
		}
		nt.buf[j] = nb[:0]
		nt.head[j] = 0
		if idx := nt.idx[j]; idx != nil {
			for _, b := range idx {
				nt.arena.putBucket(b)
			}
			clear(idx)
			nt.idxEmpty[j] = 0
		}
	}
}

// buffered counts the live buffered events across all negations.
func (nt *negTracker) buffered() int {
	total := 0
	for j, nb := range nt.buf {
		total += len(nb) - nt.head[j]
	}
	return total
}

// violated reports whether some buffered event of negation j falls
// strictly between the anchoring positive events of binding and
// satisfies all the negation's conditions (paper §4.1, sequence with
// negation). Only non-trailing anchors call it; trailing negations
// are handled through the pending-match deadline discipline.
//
// Candidates are walked newest-first. The answer is a boolean, so
// order cannot change it, but the event that violates is usually the
// latest one before the anchor (the toll query's report from 30 s
// earlier), so the walk tends to stop at its first in-span candidate.
func (nt *negTracker) violated(j int, binding []*event.Event) bool {
	neg := &nt.negs[j]
	var lo event.Time = -1 << 62
	if neg.Anchor > 0 {
		lo = binding[nt.steps[neg.Anchor-1].Slot].Time.End
	}
	hi := binding[nt.steps[neg.Anchor].Slot].Time.Start
	if idx := nt.idx[j]; idx != nil {
		// Probe only the bucket matching the equi-join key; condsHold
		// re-verifies the join itself.
		b := idx[negKey(neg.HashProbe.Eval(binding))]
		if b == nil {
			return false
		}
		for i := len(b.evs) - 1; i >= b.head; i-- {
			if nt.hit(neg, binding, b.evs[i], lo, hi) {
				return true
			}
		}
		return false
	}
	nb := nt.buf[j]
	for i := len(nb) - 1; i >= nt.head[j]; i-- {
		if nt.hit(neg, binding, nb[i].ev, lo, hi) {
			return true
		}
	}
	return false
}

// hit reports whether candidate nv falls strictly inside (lo, hi) and
// satisfies the negation's conditions.
func (nt *negTracker) hit(neg *model.Negation, binding []*event.Event, nv *event.Event, lo, hi event.Time) bool {
	if nv.Time.Start <= lo || nv.Time.End >= hi {
		return false
	}
	return nt.condsHold(neg, binding, nv)
}

func (nt *negTracker) condsHold(neg *model.Negation, binding []*event.Event, nv *event.Event) bool {
	nt.checks++
	copy(nt.scratch, binding)
	nt.scratch[neg.Slot] = nv
	for _, c := range neg.Conds {
		if !c.EvalBool(nt.scratch) {
			return false
		}
	}
	return true
}
