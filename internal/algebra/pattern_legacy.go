package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
)

// legacyKernel is the pre-automaton pattern engine, preserved behind
// PatternSpec.LegacyKernel: it materializes one partial record per
// open step combination and extends every partial individually when
// a step event arrives. The automaton kernel (runs.go) replaces it
// as the default; this one stays as the differential-testing
// reference and as the ablation baseline quantifying what run
// sharing buys.
type legacyKernel struct {
	prog  *Program
	arena *kernelArena
	nt    *negTracker

	// partials[i] holds prefixes that have bound steps 0..i-1 and
	// await step i (1 <= i < len(Steps)).
	partials [][]*partial
	// pending holds completed matches waiting out a trailing
	// negation's deadline.
	pending []*pendingMatch

	statsVal PatternStats
}

// partial is one pattern-match prefix. Records and their binding
// regions are arena-managed; see arena.go for the lifecycle.
type partial struct {
	binding    []*event.Event
	firstStart event.Time
	lastEnd    event.Time
	arrival    int64
}

func newLegacyKernel(prog *Program) *legacyKernel {
	arena := newKernelArena(prog.Spec.NumSlots)
	return &legacyKernel{
		prog:     prog,
		arena:    arena,
		nt:       newNegTracker(&prog.Spec, arena),
		partials: make([][]*partial, len(prog.Spec.Steps)),
	}
}

func (k *legacyKernel) stats() PatternStats {
	s := k.statsVal
	s.NegChecks = k.nt.checks
	return s
}

func (k *legacyKernel) arenaChunks() int { return k.arena.chunks }

func (k *legacyKernel) footprint() Footprint {
	f := Footprint{NegBuffered: k.nt.buffered(), Pending: len(k.pending)}
	for _, ps := range k.partials {
		f.Partials += len(ps)
	}
	return f
}

func (k *legacyKernel) release(ms []*Match) {
	for _, m := range ms {
		k.arena.putMatch(m)
	}
}

func (k *legacyKernel) reset() {
	for i := range k.partials {
		for _, pa := range k.partials[i] {
			k.arena.putPartial(pa)
		}
		k.partials[i] = k.partials[i][:0]
	}
	k.nt.reset()
	for _, pm := range k.pending {
		k.arena.putMatch(pm.m)
		k.arena.putPending(pm)
	}
	k.pending = k.pending[:0]
}

func (k *legacyKernel) advance(now event.Time, out []*Match) []*Match {
	cut := now - event.Time(k.prog.Spec.Horizon)
	for i := 1; i < len(k.partials); i++ {
		ps := k.partials[i]
		kept := ps[:0]
		for _, pa := range ps {
			if pa.firstStart >= cut {
				kept = append(kept, pa)
			} else {
				k.statsVal.PartialsExpired++
				k.arena.putPartial(pa)
			}
		}
		k.partials[i] = kept
	}
	k.nt.expire(now - 2*event.Time(k.prog.Spec.Horizon))
	if len(k.pending) > 0 {
		kept := k.pending[:0]
		for _, pm := range k.pending {
			switch {
			case pm.killed:
				k.arena.putMatch(pm.m)
				k.arena.putPending(pm)
			case pm.deadline < now:
				out = append(out, pm.m)
				k.statsVal.MatchesEmitted++
				k.arena.putPending(pm)
			default:
				kept = append(kept, pm)
			}
		}
		k.pending = kept
	}
	return out
}

func (k *legacyKernel) process(batch []*event.Event, out []*Match) []*Match {
	for _, e := range batch {
		out = k.processEvent(e, out)
	}
	return out
}

func (k *legacyKernel) processEvent(e *event.Event, out []*Match) []*Match {
	k.statsVal.EventsSeen++
	spec := &k.prog.Spec
	// Negation bookkeeping first: an event can serve both as a step
	// and as a negation of another variable's type.
	for j := range spec.Negs {
		n := &spec.Negs[j]
		if n.Schema != e.Schema {
			continue
		}
		k.nt.observe(j, e)
		if n.Anchor == len(spec.Steps) {
			k.killPending(j, e)
		}
	}
	steps := spec.Steps
	for i := range steps {
		if steps[i].Schema != e.Schema {
			continue
		}
		if i == 0 {
			out = k.startPartial(e, out)
		} else {
			out = k.extendPartials(i, e, out)
		}
	}
	return out
}

// startPartial begins a new prefix at step 0 (or completes a match
// for single-step patterns).
func (k *legacyKernel) startPartial(e *event.Event, out []*Match) []*Match {
	binding := k.arena.getBinding()
	binding[k.prog.Spec.Steps[0].Slot] = e
	if !k.runFilters(0, binding) {
		k.arena.putBinding(binding)
		return out
	}
	k.statsVal.PartialsCreated++
	if len(k.prog.Spec.Steps) == 1 {
		return k.complete(binding, e.Time.Start, e.Time.End, e.Arrival, out)
	}
	pa := k.arena.getPartial()
	pa.binding = binding
	pa.firstStart = e.Time.Start
	pa.lastEnd = e.Time.End
	pa.arrival = e.Arrival
	k.partials[1] = append(k.partials[1], pa)
	return out
}

func (k *legacyKernel) extendPartials(i int, e *event.Event, out []*Match) []*Match {
	slot := k.prog.Spec.Steps[i].Slot
	last := i == len(k.prog.Spec.Steps)-1
	// Iterate over a snapshot length: completions during iteration
	// never append to partials[i].
	ps := k.partials[i]
	for _, pa := range ps {
		// Strict sequencing (§4.1): e_i.time < e_{i+1}.time; for
		// interval events the previous match part must end before the
		// next begins.
		if pa.lastEnd >= e.Time.Start {
			continue
		}
		binding := k.arena.getBinding()
		copy(binding, pa.binding)
		binding[slot] = e
		if !k.runFilters(i, binding) {
			k.arena.putBinding(binding)
			continue
		}
		k.statsVal.PartialsCreated++
		arrival := maxI64(pa.arrival, e.Arrival)
		if last {
			out = k.complete(binding, pa.firstStart, e.Time.End, arrival, out)
		} else {
			ext := k.arena.getPartial()
			ext.binding = binding
			ext.firstStart = pa.firstStart
			ext.lastEnd = e.Time.End
			ext.arrival = arrival
			k.partials[i+1] = append(k.partials[i+1], ext)
		}
	}
	return out
}

func (k *legacyKernel) runFilters(step int, binding []*event.Event) bool {
	for _, fi := range k.prog.filterAt[step] {
		if !k.prog.Spec.Filters[fi].EvalBool(binding) {
			k.statsVal.FilteredOut++
			return false
		}
	}
	return true
}

// complete finalizes a full binding: leading and mid-anchored
// negations are checked against the buffered negation events; a
// trailing negation defers emission until its deadline. The binding's
// ownership moves into the emitted Match (or back to the arena on
// rejection).
func (k *legacyKernel) complete(binding []*event.Event, firstStart, lastEnd event.Time, arrival int64, out []*Match) []*Match {
	n := len(k.prog.Spec.Steps)
	for j := range k.prog.Spec.Negs {
		if k.prog.Spec.Negs[j].Anchor == n {
			continue
		}
		if k.nt.violated(j, binding) {
			k.statsVal.MatchesNegated++
			k.arena.putBinding(binding)
			return out
		}
	}
	m := k.arena.getMatch()
	m.Binding = binding
	m.Time = event.Interval{Start: firstStart, End: lastEnd}
	m.Arrival = arrival
	if k.prog.hasTrailing {
		pm := k.arena.getPending()
		pm.m = m
		pm.lastEnd = lastEnd
		pm.deadline = lastEnd + event.Time(k.prog.Spec.Horizon)
		k.pending = append(k.pending, pm)
		return out
	}
	k.statsVal.MatchesEmitted++
	return append(out, m)
}

// killPending invalidates pending matches whose trailing negation is
// violated by the newly arrived event nv.
func (k *legacyKernel) killPending(j int, nv *event.Event) {
	neg := &k.prog.Spec.Negs[j]
	for _, pm := range k.pending {
		if pm.killed || nv.Time.Start <= pm.lastEnd {
			continue
		}
		if k.nt.condsHold(neg, pm.m.Binding, nv) {
			pm.killed = true
			k.statsVal.MatchesNegated++
		}
	}
}
