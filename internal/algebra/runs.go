package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
)

// minTime is the automaton's "no time yet" sentinel; it matches the
// open lower bound the negation interval check uses.
const minTime = event.Time(-1 << 62)

// runState is one automaton state's run storage. When the outgoing
// transition extracted a hash key, runs are bucketed by the key
// evaluated over their own event (the predecessor side of the
// equi-join); otherwise a single bucket holds every run in arrival
// order.
type runState struct {
	keyed   bool
	all     *runBucket
	buckets map[event.Value]*runBucket
	empties int
	nodes   int

	// endSorted records whether runs entered this state in
	// nondecreasing End order (the transaction discipline's normal
	// case). While it holds, the eligible predecessor set of a new
	// event is a prefix found by binary search; when a disordered
	// batch breaks it, ranges fall back to whole-bucket spans and the
	// enumeration's per-node time check keeps results exact.
	endSorted bool
	lastEnd   event.Time
}

// runBucket is a ring over a slice of run nodes, with the same
// head/compaction discipline as the negation buffers. base is the
// absolute sequence number of nodes[0]; predecessor ranges store
// absolute sequences so head advances and compaction never
// invalidate them. gen increments when the bucket is recycled, so a
// stale range (its runs all expired) resolves to nothing rather than
// to another bucket's runs.
type runBucket struct {
	nodes    []*runNode
	head     int
	base     int64
	gen      uint32
	chainMax event.Time // running max of inserted runs' maxFS
}

func (b *runBucket) empty() bool { return b.head == len(b.nodes) }

// runNode is one shared run: the event consumed by the step it
// bound, plus its predecessor set in one of two forms. maxFS is an
// upper bound on the maximum first-start over every path reaching
// the node; the watermark trim uses it to reclaim whole subtrees
// while the enumeration's leaf check enforces the horizon exactly.
type runNode struct {
	ev  *event.Event
	gen uint32

	// Range form (transitions without pair filters): predecessors
	// are pb's runs with sequence in [predLo, predHi).
	pb             *runBucket
	pbGen          uint32
	predLo, predHi int64
	// List form (pair-filtered transitions): the survivors, with
	// generation stamps so expired-and-recycled runs are skipped.
	preds []predRef

	maxFS event.Time
}

type predRef struct {
	n   *runNode
	gen uint32
}

// trimState pops every bucket's dead prefix: runs whose maxFS bound
// fell behind the watermark can reach no live match. maxFS is
// nondecreasing within a bucket for states past the first (it
// inherits the predecessor bucket's running max), so the prefix pop
// is exact there; for state 0 it is conservative and the enumeration
// leaf check picks up the slack.
func (p *Pattern) trimState(st *runState, cut event.Time) {
	if !st.keyed {
		p.trimBucket(st, st.all, cut)
		return
	}
	for _, b := range st.buckets {
		p.trimBucket(st, b, cut)
	}
	// Evict mapped-but-empty buckets only once they dominate the map;
	// the generation stamp keeps ranges over evicted buckets inert.
	if st.empties > 64 && 2*st.empties >= len(st.buckets) {
		for key, b := range st.buckets {
			if b.empty() {
				delete(st.buckets, key)
				p.arena.putRunBucket(b)
			}
		}
		st.empties = 0
	}
}

func (p *Pattern) trimBucket(st *runState, b *runBucket, cut event.Time) {
	popped := false
	for b.head < len(b.nodes) && b.nodes[b.head].maxFS < cut {
		nd := b.nodes[b.head]
		b.nodes[b.head] = nil
		b.head++
		p.freeNode(nd)
		st.nodes--
		p.statsVal.PartialsExpired++
		popped = true
	}
	switch {
	case b.empty() && len(b.nodes) > 0:
		// Normalize an emptied bucket: the next run starts a fresh
		// slice, and base advances so stale ranges clamp to nothing.
		b.base += int64(len(b.nodes))
		b.nodes = b.nodes[:0]
		b.head = 0
		if popped && st.keyed {
			st.empties++
		}
	case b.head > 64 && 2*b.head >= len(b.nodes):
		n := copy(b.nodes, b.nodes[b.head:])
		for i := n; i < len(b.nodes); i++ {
			b.nodes[i] = nil
		}
		b.nodes = b.nodes[:n]
		b.base += int64(b.head)
		b.head = 0
	}
}

// freeNode recycles a run node and its predecessor set.
func (p *Pattern) freeNode(nd *runNode) {
	if nd.preds != nil {
		p.predEntries -= len(nd.preds)
		p.arena.putPredList(nd.preds)
		nd.preds = nil
	} else if nd.pb != nil {
		p.predEntries--
	}
	p.arena.putNode(nd)
}

func (p *Pattern) resetBucket(b *runBucket) {
	for i := b.head; i < len(b.nodes); i++ {
		p.freeNode(b.nodes[i])
		b.nodes[i] = nil
	}
	b.base += int64(len(b.nodes))
	b.nodes = b.nodes[:0]
	b.head = 0
	b.chainMax = minTime
}

func (p *Pattern) processEvent(e *event.Event, out []*Match) []*Match {
	p.statsVal.EventsSeen++
	spec := &p.prog.Spec
	n := len(spec.Steps)
	// Negation bookkeeping first: an event can serve both as a step
	// and as a negation of another variable's type.
	for j := range spec.Negs {
		ng := &spec.Negs[j]
		if ng.Schema != e.Schema {
			continue
		}
		p.nt.observe(j, e)
		if ng.Anchor == n {
			p.killPending(j, e)
		}
	}
	for i := range spec.Steps {
		if spec.Steps[i].Schema != e.Schema {
			continue
		}
		switch {
		case n == 1:
			out = p.completeSingle(e, out)
		case i == 0:
			p.startRun(e)
		case i == n-1:
			out = p.complete(e, out)
		default:
			p.extend(i, e)
		}
	}
	return out
}

// startRun creates a state-0 run (the automaton's initial
// transition) after the start filters pass.
func (p *Pattern) startRun(e *event.Event) {
	p.scratch[p.prog.slotOf[0]] = e
	for _, fi := range p.prog.filterAt[0] {
		if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
			p.statsVal.FilteredOut++
			return
		}
	}
	p.statsVal.PartialsCreated++
	nd := p.arena.getNode()
	nd.ev = e
	nd.maxFS = e.Time.Start
	p.insert(0, nd)
}

// insert files a run into its state, bucketing by the outgoing
// transition's predecessor-side key. The caller has the run's event
// in scratch at its own slot.
func (p *Pattern) insert(s int, nd *runNode) {
	st := p.states[s]
	var b *runBucket
	if st.keyed {
		tr := &p.prog.trans[s+1]
		key := tr.keyPrev.Eval(p.scratch)
		if key.Kind != tr.keyKind {
			// The compiled equality requires matching runtime kinds,
			// so no future event can join with this run: drop it.
			p.freeNode(nd)
			return
		}
		kk := normKey(key)
		b = st.buckets[kk]
		switch {
		case b == nil:
			b = p.arena.getRunBucket()
			st.buckets[kk] = b
		case b.empty() && st.empties > 0:
			// Reviving a trimmed-empty bucket (trim normalized it).
			st.empties--
		}
	} else {
		b = st.all
	}
	if end := nd.ev.Time.End; end < st.lastEnd {
		st.endSorted = false
	} else {
		st.lastEnd = end
	}
	b.nodes = append(b.nodes, nd)
	b.chainMax = maxT(b.chainMax, nd.maxFS)
	st.nodes++
}

// extend consumes a mid-sequence step: probe the predecessor state,
// resolve the eligible run set, and file ONE new run that shares it.
func (p *Pattern) extend(i int, e *event.Event) {
	tr := &p.prog.trans[i]
	p.scratch[tr.slot] = e
	for _, fi := range tr.unary {
		if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
			p.statsVal.FilteredOut++
			return
		}
	}
	b := p.lookup(i-1, tr)
	if b == nil || b.empty() {
		return
	}
	st := p.states[i-1]
	lo := b.base + int64(b.head)
	hi := b.base + int64(len(b.nodes))
	if st.endSorted {
		hi = b.searchEnd(e.Time.Start)
	}
	if hi <= lo {
		return
	}
	var nd *runNode
	if len(tr.pair) > 0 {
		// Residual pair predicates: verify each eligible predecessor
		// now and share the survivor list.
		preds := p.arena.getPredList()
		for q := lo; q < hi; q++ {
			pn := b.nodes[q-b.base]
			if pn.ev.Time.End >= e.Time.Start {
				continue
			}
			p.scratch[tr.prevSlot] = pn.ev
			ok := true
			for _, fi := range tr.pair {
				if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
					p.statsVal.FilteredOut++
					ok = false
					break
				}
			}
			if ok {
				preds = append(preds, predRef{n: pn, gen: pn.gen})
			}
		}
		if len(preds) == 0 {
			p.arena.putPredList(preds)
			return
		}
		nd = p.arena.getNode()
		nd.preds = preds
		p.predEntries += len(preds)
	} else {
		// Constant-time extension: the whole eligible set as a range.
		nd = p.arena.getNode()
		nd.pb = b
		nd.pbGen = b.gen
		nd.predLo = lo
		nd.predHi = hi
		p.predEntries++
	}
	nd.ev = e
	nd.maxFS = b.chainMax
	p.statsVal.PartialsCreated++
	p.insert(i, nd)
}

// complete consumes the final step's event: instead of materializing
// anything, it enumerates full matches backward through the DAG.
func (p *Pattern) complete(e *event.Event, out []*Match) []*Match {
	n := len(p.prog.Spec.Steps)
	tr := &p.prog.trans[n-1]
	p.scratch[tr.slot] = e
	for _, fi := range tr.unary {
		if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
			p.statsVal.FilteredOut++
			return out
		}
	}
	b := p.lookup(n-2, tr)
	if b == nil || b.empty() {
		return out
	}
	st := p.states[n-2]
	lo := b.base + int64(b.head)
	hi := b.base + int64(len(b.nodes))
	if st.endSorted {
		hi = b.searchEnd(e.Time.Start)
	}
	if hi <= lo {
		return out
	}
	p.emitEnd = e.Time.End
	return p.walkRange(n-2, b, b.gen, lo, hi, e.Time.Start, e.Arrival, out)
}

// completeSingle handles single-step patterns: the start filters are
// the whole automaton.
func (p *Pattern) completeSingle(e *event.Event, out []*Match) []*Match {
	p.scratch[p.prog.slotOf[0]] = e
	for _, fi := range p.prog.filterAt[0] {
		if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
			p.statsVal.FilteredOut++
			return out
		}
	}
	p.statsVal.PartialsCreated++
	p.emitEnd = e.Time.End
	return p.emit(e.Arrival, out)
}

// lookup resolves the predecessor bucket for a keyed or unkeyed
// transition; scratch holds the current event at tr.slot.
func (p *Pattern) lookup(s int, tr *transition) *runBucket {
	st := p.states[s]
	if !st.keyed {
		return st.all
	}
	key := tr.keyCur.Eval(p.scratch)
	if key.Kind != tr.keyKind {
		return nil
	}
	return st.buckets[normKey(key)]
}

// walkRange enumerates the runs of b with sequence in [lo, hi),
// oldest first, which fixes the emission order. gen guards against
// the bucket having been recycled.
func (p *Pattern) walkRange(s int, b *runBucket, gen uint32, lo, hi int64, succStart event.Time, arrival int64, out []*Match) []*Match {
	if b.gen != gen {
		return out
	}
	if l := b.base + int64(b.head); lo < l {
		lo = l
	}
	if h := b.base + int64(len(b.nodes)); hi > h {
		hi = h
	}
	for q := lo; q < hi; q++ {
		out = p.walkNode(s, b.nodes[q-b.base], succStart, arrival, out)
	}
	return out
}

// walkNode binds step s's event from nd and recurses into nd's
// predecessor set; at the leaf the horizon, negation and emission
// logic run against the fully bound scratch.
func (p *Pattern) walkNode(s int, nd *runNode, succStart event.Time, arrival int64, out []*Match) []*Match {
	if nd.ev.Time.End >= succStart {
		// Strict sequencing (§4.1): e_s must end before e_{s+1}
		// starts. Ranges over disordered or partially trimmed buckets
		// may span ineligible runs, so the check is per node.
		return out
	}
	if nd.maxFS < p.curCut {
		return out // every path through this run expired
	}
	p.scratch[p.prog.slotOf[s]] = nd.ev
	for _, fi := range p.prog.enumAt[s] {
		if !p.prog.Spec.Filters[fi].EvalBool(p.scratch) {
			p.statsVal.FilteredOut++
			return out
		}
	}
	arrival = maxI64(arrival, nd.ev.Arrival)
	if s == 0 {
		if nd.ev.Time.Start < p.curCut {
			return out // exact horizon check: this path expired
		}
		return p.emit(arrival, out)
	}
	if nd.preds != nil {
		for _, pr := range nd.preds {
			if pr.n.gen != pr.gen {
				continue // predecessor expired and was recycled
			}
			out = p.walkNode(s-1, pr.n, nd.ev.Time.Start, arrival, out)
		}
		return out
	}
	return p.walkRange(s-1, nd.pb, nd.pbGen, nd.predLo, nd.predHi, nd.ev.Time.Start, arrival, out)
}

// emit finalizes one enumerated binding: anchored negations are
// checked against the shared negation buffers, then the scratch is
// copied into an arena region and emitted (or parked behind the
// trailing-negation deadline).
func (p *Pattern) emit(arrival int64, out []*Match) []*Match {
	spec := &p.prog.Spec
	n := len(spec.Steps)
	for j := range spec.Negs {
		if spec.Negs[j].Anchor == n {
			continue
		}
		if p.nt.violated(j, p.scratch) {
			p.statsVal.MatchesNegated++
			return out
		}
	}
	binding := p.arena.getBinding()
	copy(binding, p.scratch)
	m := p.arena.getMatch()
	m.Binding = binding
	m.Time = event.Interval{Start: p.scratch[p.prog.slotOf[0]].Time.Start, End: p.emitEnd}
	m.Arrival = arrival
	if p.prog.hasTrailing {
		pm := p.arena.getPending()
		pm.m = m
		pm.lastEnd = p.emitEnd
		pm.deadline = p.emitEnd + event.Time(spec.Horizon)
		if ln := len(p.pending); ln > 0 && p.pending[ln-1].lastEnd > pm.lastEnd {
			p.pendSorted = false
		}
		p.pending = append(p.pending, pm)
		return out
	}
	p.statsVal.MatchesEmitted++
	return append(out, m)
}

// killPending invalidates pending matches whose trailing negation is
// violated by the newly arrived event nv. Only matches that end
// strictly before nv starts are eligible; while pending is sorted by
// lastEnd those form a prefix, so the scan stops at the first
// ineligible record instead of walking the whole list — the
// timestamp-interval side of the shared-run negation design.
func (p *Pattern) killPending(j int, nv *event.Event) {
	neg := &p.prog.Spec.Negs[j]
	for _, pm := range p.pending {
		if nv.Time.Start <= pm.lastEnd {
			if p.pendSorted {
				break
			}
			continue
		}
		if pm.killed {
			continue
		}
		if p.nt.condsHold(neg, pm.m.Binding, nv) {
			pm.killed = true
			p.statsVal.MatchesNegated++
		}
	}
}

// searchEnd binary-searches the first live run with End >= start and
// returns its absolute sequence (End is nondecreasing in a sorted
// state, so [head, found) is exactly the strict-predecessor set).
func (b *runBucket) searchEnd(start event.Time) int64 {
	lo, hi := b.head, len(b.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.nodes[mid].ev.Time.End < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return b.base + int64(lo)
}

// normKey canonicalizes a hash key Value so struct equality in the
// bucket map matches predicate equality: constructors zero the
// unused payload fields.
func normKey(v event.Value) event.Value {
	switch v.Kind {
	case event.KindInt:
		return event.Int64(v.Int)
	case event.KindString:
		return event.String(v.Str)
	case event.KindBool:
		return event.Bool(v.Int != 0)
	default:
		return v
	}
}
