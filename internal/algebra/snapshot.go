package algebra

import (
	"fmt"
	"math"
	"sort"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/wire"
)

// Snapshot support (DESIGN.md §3.9): every stateful operator can
// serialize itself into a wire.Enc and restore from a wire.Dec. Event
// pointers are interned through a wire.EventTable so aliasing — the
// same *event.Event held by a run node, a negation buffer and a
// pending match binding — survives the round trip. Encoding is
// deterministic: keyed run buckets are written in sorted key order.
//
// The save methods never mutate the kernel; the load methods assume a
// freshly constructed (or Reset) operator of the identical compiled
// program and rebuild all arena-managed state through the arena's
// getters, so a restored kernel recycles records exactly like one
// that reached the same state by processing events.

// predecessor-set forms on the wire.
const (
	predNone  = 0 // state-0 node: no predecessor set
	predList  = 1 // explicit survivor list (pair-filtered transition)
	predRange = 2 // contiguous range of a predecessor bucket
)

// valueLess is the deterministic bucket-key order used on the wire:
// by kind, then by payload.
func valueLess(a, b event.Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	switch a.Kind {
	case event.KindInt, event.KindBool:
		return a.Int < b.Int
	case event.KindFloat:
		return a.Float < b.Float
	case event.KindString:
		return a.Str < b.Str
	default:
		return false
	}
}

// Save serializes the pattern operator's kernel state. Events are
// interned in tab; the caller encodes the table itself (wire docs).
func (p *Pattern) Save(enc *wire.Enc, tab *wire.EventTable) error {
	nodeID := make(map[*runNode]uint64)
	bucketID := make(map[*runBucket]uint64)

	saveBucket := func(b *runBucket) {
		bucketID[b] = uint64(len(bucketID) + 1)
		enc.Time(b.chainMax)
		live := len(b.nodes) - b.head
		enc.Uvarint(uint64(live))
		for i := b.head; i < len(b.nodes); i++ {
			nd := b.nodes[i]
			nodeID[nd] = uint64(len(nodeID) + 1)
			enc.Uvarint(tab.ID(nd.ev))
			enc.Time(nd.maxFS)
			switch {
			case nd.preds != nil:
				// Keep only predecessors that are still live; a list
				// that empties becomes an inert range.
				liveRefs := 0
				for _, pr := range nd.preds {
					if pr.n.gen == pr.gen {
						liveRefs++
					}
				}
				if liveRefs == 0 {
					enc.Byte(predRange)
					enc.Uvarint(0) // dead-bucket sentinel
					continue
				}
				enc.Byte(predList)
				enc.Uvarint(uint64(liveRefs))
				for _, pr := range nd.preds {
					if pr.n.gen != pr.gen {
						continue
					}
					id, ok := nodeID[pr.n]
					if !ok {
						// A live predecessor must have been encoded with
						// its own (earlier) state.
						panic("algebra: snapshot: predecessor node not yet encoded")
					}
					enc.Uvarint(id)
				}
			case nd.pb != nil:
				// Clamp the range to its bucket's live window and
				// re-base it to the restored bucket's coordinates
				// (base=0, head=0). A stale or empty range is inert.
				enc.Byte(predRange)
				if nd.pb.gen != nd.pbGen {
					enc.Uvarint(0)
					continue
				}
				pb := nd.pb
				lo, hi := nd.predLo, nd.predHi
				if l := pb.base + int64(pb.head); lo < l {
					lo = l
				}
				if h := pb.base + int64(len(pb.nodes)); hi > h {
					hi = h
				}
				if hi <= lo {
					enc.Uvarint(0)
					continue
				}
				id, ok := bucketID[pb]
				if !ok {
					panic("algebra: snapshot: predecessor bucket not yet encoded")
				}
				enc.Uvarint(id)
				enc.Varint(lo - (pb.base + int64(pb.head)))
				enc.Varint(hi - (pb.base + int64(pb.head)))
			default:
				enc.Byte(predNone)
			}
		}
	}

	enc.Uvarint(uint64(len(p.states)))
	for _, st := range p.states {
		enc.Bool(st.endSorted)
		enc.Time(st.lastEnd)
		if !st.keyed {
			enc.Bool(false)
			saveBucket(st.all)
			continue
		}
		enc.Bool(true)
		keys := make([]event.Value, 0, len(st.buckets))
		for key, b := range st.buckets {
			if !b.empty() {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return valueLess(keys[i], keys[j]) })
		enc.Uvarint(uint64(len(keys)))
		for _, key := range keys {
			enc.Value(key)
			saveBucket(st.buckets[key])
		}
	}

	enc.Bool(p.pendSorted)
	enc.Uvarint(uint64(len(p.pending)))
	for _, pm := range p.pending {
		enc.Bool(pm.killed)
		enc.Time(pm.lastEnd)
		enc.Time(pm.deadline)
		enc.Time(pm.m.Time.Start)
		enc.Time(pm.m.Time.End)
		enc.Varint(pm.m.Arrival)
		enc.Uvarint(uint64(len(pm.m.Binding)))
		for _, ev := range pm.m.Binding {
			enc.Uvarint(tab.ID(ev))
		}
	}

	enc.Time(p.curCut)
	enc.U64(p.statsVal.EventsSeen)
	enc.U64(p.statsVal.PartialsCreated)
	enc.U64(p.statsVal.PartialsExpired)
	enc.U64(p.statsVal.MatchesEmitted)
	enc.U64(p.statsVal.MatchesNegated)
	enc.U64(p.statsVal.FilteredOut)

	p.nt.save(enc, tab)
	return nil
}

// Load restores kernel state saved by Save into this operator, which
// must run the identical compiled program. Existing state is
// discarded first.
func (p *Pattern) Load(d *wire.Dec, evs *wire.RestoredEvents) error {
	p.Reset()
	var nodes []*runNode
	var buckets []*runBucket
	// dead anchors inert range predecessors: its generation never
	// matches the stored 0, so enumeration through it yields nothing.
	dead := &runBucket{gen: 1, chainMax: minTime}

	loadBucket := func(st *runState, b *runBucket) error {
		buckets = append(buckets, b)
		b.chainMax = d.Time()
		n := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if n > uint64(d.Rem()) {
			return fmt.Errorf("algebra: snapshot: node count %d exceeds payload", n)
		}
		for i := uint64(0); i < n; i++ {
			nd := p.arena.getNode()
			nd.ev = evs.Lookup(d, d.Uvarint())
			nd.maxFS = d.Time()
			switch form := d.Byte(); form {
			case predNone:
			case predList:
				cnt := d.Uvarint()
				if d.Err() != nil {
					return d.Err()
				}
				if cnt > uint64(d.Rem()) {
					return fmt.Errorf("algebra: snapshot: pred list %d exceeds payload", cnt)
				}
				preds := p.arena.getPredList()
				for j := uint64(0); j < cnt; j++ {
					id := d.Uvarint()
					if id == 0 || id > uint64(len(nodes)) {
						return fmt.Errorf("algebra: snapshot: pred node id %d out of range", id)
					}
					pn := nodes[id-1]
					preds = append(preds, predRef{n: pn, gen: pn.gen})
				}
				if len(preds) == 0 {
					// cnt==0 never happens on save (encoded as a dead
					// range), but stay robust: inert range.
					p.arena.putPredList(preds)
					nd.pb = dead
					nd.pbGen = 0
					p.predEntries++
				} else {
					nd.preds = preds
					p.predEntries += len(preds)
				}
			case predRange:
				id := d.Uvarint()
				if id == 0 {
					nd.pb = dead
					nd.pbGen = 0
				} else {
					if id > uint64(len(buckets)) {
						return fmt.Errorf("algebra: snapshot: pred bucket id %d out of range", id)
					}
					pb := buckets[id-1]
					nd.pb = pb
					nd.pbGen = pb.gen
					nd.predLo = d.Varint()
					nd.predHi = d.Varint()
				}
				p.predEntries++
			default:
				return fmt.Errorf("algebra: snapshot: bad predecessor form %d", form)
			}
			if d.Err() != nil {
				return d.Err()
			}
			if nd.ev == nil {
				return fmt.Errorf("algebra: snapshot: run node without event")
			}
			nodes = append(nodes, nd)
			b.nodes = append(b.nodes, nd)
			st.nodes++
		}
		return nil
	}

	if n := d.Uvarint(); n != uint64(len(p.states)) {
		if d.Err() != nil {
			return d.Err()
		}
		return fmt.Errorf("algebra: snapshot: %d states on the wire, program has %d", n, len(p.states))
	}
	for _, st := range p.states {
		st.endSorted = d.Bool()
		st.lastEnd = d.Time()
		keyed := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if keyed != st.keyed {
			return fmt.Errorf("algebra: snapshot: state keying mismatch (wire %v, program %v)", keyed, st.keyed)
		}
		if !keyed {
			if err := loadBucket(st, st.all); err != nil {
				return err
			}
			continue
		}
		nb := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if nb > uint64(d.Rem()) {
			return fmt.Errorf("algebra: snapshot: bucket count %d exceeds payload", nb)
		}
		for i := uint64(0); i < nb; i++ {
			key := d.Value()
			b := p.arena.getRunBucket()
			st.buckets[key] = b
			if err := loadBucket(st, b); err != nil {
				return err
			}
		}
	}

	p.pendSorted = d.Bool()
	np := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if np > uint64(d.Rem()) {
		return fmt.Errorf("algebra: snapshot: pending count %d exceeds payload", np)
	}
	for i := uint64(0); i < np; i++ {
		pm := p.arena.getPending()
		pm.killed = d.Bool()
		pm.lastEnd = d.Time()
		pm.deadline = d.Time()
		m := p.arena.getMatch()
		m.Time.Start = d.Time()
		m.Time.End = d.Time()
		m.Arrival = d.Varint()
		nb := d.Uvarint()
		if d.Err() != nil {
			p.arena.putMatch(m)
			p.arena.putPending(pm)
			return d.Err()
		}
		if int(nb) != p.prog.Spec.NumSlots {
			p.arena.putMatch(m)
			p.arena.putPending(pm)
			return fmt.Errorf("algebra: snapshot: binding width %d, program has %d slots", nb, p.prog.Spec.NumSlots)
		}
		binding := p.arena.getBinding()
		for j := range binding {
			binding[j] = evs.Lookup(d, d.Uvarint())
		}
		m.Binding = binding
		pm.m = m
		p.pending = append(p.pending, pm)
	}

	p.curCut = d.Time()
	p.statsVal.EventsSeen = d.U64()
	p.statsVal.PartialsCreated = d.U64()
	p.statsVal.PartialsExpired = d.U64()
	p.statsVal.MatchesEmitted = d.U64()
	p.statsVal.MatchesNegated = d.U64()
	p.statsVal.FilteredOut = d.U64()
	if d.Err() != nil {
		return d.Err()
	}

	return p.nt.load(d, evs)
}

// save writes the live portion of every negation buffer. The hash
// indexes are not written: their string keys are seeded per process,
// so load rebuilds them through observe under its own seed.
func (nt *negTracker) save(enc *wire.Enc, tab *wire.EventTable) {
	enc.Uvarint(uint64(len(nt.buf)))
	for j := range nt.buf {
		live := nt.buf[j][nt.head[j]:]
		enc.Uvarint(uint64(len(live)))
		for _, en := range live {
			enc.Uvarint(tab.ID(en.ev))
		}
	}
}

func (nt *negTracker) load(d *wire.Dec, evs *wire.RestoredEvents) error {
	nt.reset()
	n := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if n != uint64(len(nt.buf)) {
		return fmt.Errorf("algebra: snapshot: %d negation buffers on the wire, program has %d", n, len(nt.buf))
	}
	for j := range nt.buf {
		cnt := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if cnt > uint64(d.Rem()) {
			return fmt.Errorf("algebra: snapshot: negation buffer %d exceeds payload", cnt)
		}
		for i := uint64(0); i < cnt; i++ {
			e := evs.Lookup(d, d.Uvarint())
			if d.Err() != nil {
				return d.Err()
			}
			if e == nil {
				return fmt.Errorf("algebra: snapshot: nil event in negation buffer")
			}
			nt.observe(j, e)
		}
	}
	return d.Err()
}

// Save serializes the aggregation window state.
func (a *Aggregate) Save(enc *wire.Enc) {
	enc.Bool(a.open)
	if !a.open {
		return
	}
	enc.Varint(a.winIdx)
	enc.Varint(a.count)
	enc.Varint(a.arrival)
	for _, s := range a.sums {
		enc.U64(math.Float64bits(s))
	}
	for _, v := range a.vals {
		enc.Value(v)
	}
}

// Load restores window state saved by Save. The operator must have
// been built from the identical aggregation specs.
func (a *Aggregate) Load(d *wire.Dec) error {
	a.open = d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if !a.open {
		return nil
	}
	a.winIdx = d.Varint()
	a.count = d.Varint()
	a.arrival = d.Varint()
	for i := range a.sums {
		a.sums[i] = math.Float64frombits(d.U64())
	}
	// Writing through a.vals also fills the mins/maxs/lasts views —
	// they alias the same backing array.
	for i := range a.vals {
		a.vals[i] = d.Value()
	}
	return d.Err()
}

// Restore sets the vector to a snapshotted state.
func (v *Vector) Restore(bits uint64, t event.Time) {
	v.bits = bits
	v.time = t
}
