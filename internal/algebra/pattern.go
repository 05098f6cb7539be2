package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/predicate"
)

// PatternSpec configures a pattern operator instance.
type PatternSpec struct {
	// Steps are the positive SEQ steps in order; Negs the anchored
	// negations (both come from a compiled model query).
	Steps []model.Step
	Negs  []model.Negation
	// Filters are WHERE conjuncts over positive variables. The
	// pattern evaluates each as soon as all its variables are bound
	// (eager predicate evaluation). A non-optimized plan passes nil
	// here and applies the conjuncts in a downstream Filter operator
	// instead (paper Fig. 6a vs. 6b).
	Filters []*predicate.Compiled
	// NumSlots is the predicate environment size (positive + negated
	// variables).
	NumSlots int
	// DisableNegIndex turns off the negation-buffer hash index (used
	// by the ablation benchmarks to quantify its benefit).
	DisableNegIndex bool
	// Horizon bounds the time span of a match: a partial match whose
	// first event is older than Horizon expires, and a trailing
	// negation holds back emission for Horizon time units. Must be
	// positive.
	Horizon int64
}

// PatternStats counts the work a pattern instance has performed; the
// benchmark harness and tests read these. PartialsCreated and
// PartialsExpired count shared run nodes; FilteredOut counts predicate
// rejections, including enumeration-time ones.
//
// NegChecks counts negation-condition evaluations (candidates that
// passed the index probe and the interval test); NegChecks /
// MatchesNegated is the negation check's wasted work. It is a
// process-local diagnostic: snapshots do not carry it, so a restored
// operator counts from zero.
type PatternStats struct {
	EventsSeen      uint64
	PartialsCreated uint64
	PartialsExpired uint64
	MatchesEmitted  uint64
	MatchesNegated  uint64
	FilteredOut     uint64
	NegChecks       uint64
}

// Footprint is the retained state of a pattern operator: what the
// garbage collector, the telemetry gauges and the tests observe.
// RunNodes and PredEntries count the shared-run DAG (nodes and
// predecessor-set entries — a range predecessor counts as one entry
// regardless of how many nodes it spans, which is exactly the sharing
// the automaton buys).
type Footprint struct {
	NegBuffered int
	Pending     int
	RunNodes    int
	PredEntries int
}

// Retained sums the footprint's record counts (used by tests that
// only care whether state is held at all).
func (f Footprint) Retained() int {
	return f.NegBuffered + f.Pending + f.RunNodes + f.PredEntries
}

// Pattern is the P operator (paper §4.1): it consumes an event
// stream and incrementally constructs the event sequences matched by
// SEQ, honoring negation and eagerly applied filter predicates.
// Partial state held between invocations is the query's "context
// history" (§6.2); Reset discards it.
//
// The spec is first compiled into a Program (automaton.go): the SEQ
// steps become automaton states, and WHERE conjuncts are scheduled
// onto the earliest transition (or the latest enumeration level)
// where their variables are bound. The operator runs the program over
// a shared-run DAG (runs.go, DESIGN.md §3.5): ONE run node per
// (state, consumed event), back-pointing to its whole predecessor set
// — a contiguous range of a predecessor bucket when the transition has
// no per-pair residual filters, an explicit list otherwise. Update
// work per event is therefore independent of how many combinations
// the event participates in; full matches are enumerated lazily from
// the DAG only when a completion event arrives, walking back-pointers
// oldest-first.
//
// All operator state — run nodes, binding regions, Match and
// pendingMatch records — lives in a per-operator arena (arena.go) and
// recycles on expiry, rejection, Reset and Release, so steady-state
// processing performs no heap allocation.
type Pattern struct {
	prog  *Program
	arena *kernelArena
	nt    *negTracker

	// states[s] (0 <= s <= n-2) holds the runs that have bound steps
	// 0..s and await step s+1; nil for single-step patterns.
	states []*runState

	pending []*pendingMatch
	// pendSorted tracks whether pending is nondecreasing in lastEnd;
	// trailing-negation kills then scan only the eligible prefix
	// (lastEnd < violator start) instead of the whole list.
	pendSorted bool

	// curCut is the monotone maximum of (now - Horizon) over all
	// Advance calls since the last Reset: the exact expiry boundary
	// the enumeration applies per path at the leaf.
	curCut event.Time

	// scratch is the enumeration binding: positive slots are written
	// as the walk descends, then copied into an arena region on emit.
	scratch []*event.Event
	// emitEnd is the completing event's End during an enumeration.
	emitEnd event.Time

	statsVal    PatternStats
	predEntries int
}

// pendingMatch is a completed match waiting out a trailing
// negation's deadline.
type pendingMatch struct {
	m        *Match
	lastEnd  event.Time
	deadline event.Time
	killed   bool
}

// NewPattern validates the spec, compiles it and builds the operator.
func NewPattern(spec PatternSpec) (*Pattern, error) {
	prog, err := CompileProgram(spec)
	if err != nil {
		return nil, err
	}
	return NewPatternFromProgram(prog), nil
}

// NewPatternFromProgram builds an operator instance over an already
// compiled program. The plan layer compiles one Program per query
// plan and shares it across all partition instances; the program is
// immutable after compilation, so sharing is safe across workers.
func NewPatternFromProgram(prog *Program) *Pattern {
	spec := &prog.Spec
	arena := newKernelArena(spec.NumSlots)
	p := &Pattern{
		prog:       prog,
		arena:      arena,
		nt:         newNegTracker(spec, arena),
		scratch:    make([]*event.Event, spec.NumSlots),
		pendSorted: true,
		curCut:     minTime,
	}
	if n := len(spec.Steps); n > 1 {
		p.states = make([]*runState, n-1)
		for s := range p.states {
			st := &runState{endSorted: true, lastEnd: minTime}
			if prog.trans[s+1].keyed {
				st.keyed = true
				st.buckets = map[event.Value]*runBucket{}
			} else {
				st.all = arena.getRunBucket()
			}
			p.states[s] = st
		}
	}
	return p
}

// Program returns the compiled program the operator runs.
func (p *Pattern) Program() *Program { return p.prog }

// Stats returns a copy of the operator counters.
func (p *Pattern) Stats() PatternStats {
	s := p.statsVal
	s.NegChecks = p.nt.checks
	return s
}

// Reset discards all partial state, negation buffers and pending
// emissions. The runtime calls it when the query's original context
// window ends and its history may be safely discarded (§6.2). The
// discarded records return to the arena, so context-window
// close/reopen cycles reuse the same memory instead of churning the
// allocator.
func (p *Pattern) Reset() {
	for _, st := range p.states {
		if st.keyed {
			for _, b := range st.buckets {
				p.resetBucket(b)
			}
			st.empties = len(st.buckets)
		} else {
			p.resetBucket(st.all)
		}
		st.nodes = 0
		st.endSorted = true
		st.lastEnd = minTime
	}
	p.nt.reset()
	for _, pm := range p.pending {
		p.arena.putMatch(pm.m)
		p.arena.putPending(pm)
	}
	p.pending = p.pending[:0]
	p.pendSorted = true
	p.curCut = minTime
}

// Release returns emitted matches to the operator's arena for reuse.
// The caller that drained Advance/Process output calls it once it has
// projected the matches into derived events; the matches and their
// bindings must not be read afterwards. Callers that retain matches
// (tests, ad-hoc drivers) simply never call it — the arena then grows
// like a heap-allocating operator would.
func (p *Pattern) Release(ms []*Match) {
	for _, m := range ms {
		p.arena.putMatch(m)
	}
}

// ArenaChunks reports how many slabs the operator's arena has
// allocated over its lifetime — the telemetry layer's occupancy
// signal (a warmed steady state allocates none).
func (p *Pattern) ArenaChunks() int { return p.arena.chunks }

// MemoryFootprint returns the operator's retained state counts; the
// garbage collector, the per-query telemetry gauges and tests
// observe it.
func (p *Pattern) MemoryFootprint() Footprint {
	nodes := 0
	for _, st := range p.states {
		nodes += st.nodes
	}
	return Footprint{
		NegBuffered: p.nt.buffered(),
		Pending:     len(p.pending),
		RunNodes:    nodes,
		PredEntries: p.predEntries,
	}
}

// Advance moves the operator's clock to now: it expires partial
// state older than the horizon, prunes negation buffers, and flushes
// pending matches whose trailing-negation deadline has passed,
// appending them to out. Call once per stream transaction, before
// Process.
func (p *Pattern) Advance(now event.Time, out []*Match) []*Match {
	if cut := now - event.Time(p.prog.Spec.Horizon); cut > p.curCut {
		p.curCut = cut
	}
	for _, st := range p.states {
		p.trimState(st, p.curCut)
	}
	p.nt.expire(now - 2*event.Time(p.prog.Spec.Horizon))
	if len(p.pending) > 0 {
		kept := p.pending[:0]
		for _, pm := range p.pending {
			switch {
			case pm.killed:
				p.arena.putMatch(pm.m)
				p.arena.putPending(pm)
			case pm.deadline < now:
				out = append(out, pm.m)
				p.statsVal.MatchesEmitted++
				p.arena.putPending(pm)
			default:
				kept = append(kept, pm)
			}
		}
		p.pending = kept
		if len(kept) == 0 {
			p.pendSorted = true
		}
	}
	return out
}

// Process consumes one batch of events (all with the same occurrence
// end time, per the transaction discipline) and appends completed
// matches to out. Events whose type matches no step or negation are
// ignored.
func (p *Pattern) Process(batch []*event.Event, out []*Match) []*Match {
	for _, e := range batch {
		out = p.processEvent(e, out)
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxT(a, b event.Time) event.Time {
	if a > b {
		return a
	}
	return b
}
