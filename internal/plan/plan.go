// Package plan translates a compiled CAESAR model into executable
// query plans (paper §4.2): each query becomes a chain of CAESAR
// algebra operators per Table 1, and producer/consumer query plans
// are combined by topologically ordering them so derived events flow
// into downstream patterns within the same stream transaction.
//
// Two plan shapes exist:
//
//   - Optimized (paper Fig. 6b): the context window is pushed down
//     below the whole chain (a WindowGate — the stream router skips
//     the plan entirely while its context is inactive) and WHERE
//     conjuncts are evaluated eagerly inside the pattern operator.
//
//   - Non-optimized (paper Fig. 6a): the pattern consumes every
//     event regardless of context, a separate Filter operator applies
//     the WHERE conjuncts to completed matches, and a WindowFilter
//     discards matches while the context is inactive. This shape is
//     the baseline of the Fig. 11(b) experiment.
package plan

import (
	"fmt"
	"sort"

	"github.com/caesar-cep/caesar/internal/algebra"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// DefaultHorizon is the pattern matching horizon applied when a
// query has no WITHIN clause; see DESIGN.md ("extensions").
const DefaultHorizon = 300

// Options configures plan construction.
type Options struct {
	// PushDown enables the context window push-down strategy (§5.2).
	PushDown bool
	// EagerFilters folds WHERE conjuncts into the pattern operator.
	// Plans built for the non-optimized baseline disable it.
	EagerFilters bool
	// DefaultHorizon overrides DefaultHorizon when positive.
	DefaultHorizon int64
	// DisableNegIndex turns off the negation-buffer hash index (an
	// ablation knob; see the negation-index benchmarks).
	DisableNegIndex bool
}

// Optimized returns the options of the fully optimized plan shape.
func Optimized() Options { return Options{PushDown: true, EagerFilters: true} }

// NonOptimized returns the options of the Fig. 6a shape: neither
// push-down nor eager filters (the "non-optimized query plan" of the
// Fig. 11(b) experiment).
func NonOptimized() Options { return Options{} }

// Baseline returns the options of the context-independent
// state-of-the-art engines ([34, 5] in §7.3): predicates are pushed
// into the pattern automaton as those systems do, but context windows
// never suspend anything.
func Baseline() Options { return Options{EagerFilters: true} }

// QueryPlan is the logical plan of one query.
type QueryPlan struct {
	Query   *model.Query
	Opts    Options
	Horizon int64

	// prog is the query's pattern compiled into an automaton program
	// (algebra.CompileProgram). Build compiles it once; every
	// partition instance — including fused multi-query instances —
	// shares the immutable program instead of recompiling the filter
	// schedule and transition classification per partition.
	prog *algebra.Program
}

// Plan is the combined query plan of a whole model: one QueryPlan
// per query, topologically sorted so that every producer precedes
// its consumers (§4.2 phase 2).
type Plan struct {
	Model   *model.Model
	Queries []*QueryPlan
	Opts    Options
}

// Build translates a model into a combined plan.
func Build(m *model.Model, opts Options) (*Plan, error) {
	horizon := opts.DefaultHorizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	p := &Plan{Model: m, Opts: opts}
	order, err := topoOrder(m)
	if err != nil {
		return nil, err
	}
	for _, q := range order {
		h := q.Within
		if h <= 0 {
			h = horizon
		}
		if err := validateTrailingNegation(q); err != nil {
			return nil, err
		}
		qp := &QueryPlan{Query: q, Opts: opts, Horizon: h}
		qp.prog, err = algebra.CompileProgram(patternSpec(qp))
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		p.Queries = append(p.Queries, qp)
	}
	return p, nil
}

// patternSpec assembles the pattern operator spec of one query under
// the plan's options.
func patternSpec(qp *QueryPlan) algebra.PatternSpec {
	q := qp.Query
	spec := algebra.PatternSpec{
		Steps:           q.Pattern.Steps,
		Negs:            q.Pattern.Negs,
		NumSlots:        q.Env.Len(),
		Horizon:         qp.Horizon,
		DisableNegIndex: qp.Opts.DisableNegIndex,
	}
	if qp.Opts.EagerFilters {
		spec.Filters = q.Filters
	}
	return spec
}

// validateTrailingNegation requires an explicit WITHIN for queries
// whose negation trails the last positive step: without a bound, the
// emission deadline would be undefined (§4.1: "temporal constraints
// must define the time interval within which the negated event may
// not occur").
func validateTrailingNegation(q *model.Query) error {
	n := len(q.Pattern.Steps)
	for _, neg := range q.Pattern.Negs {
		if neg.Anchor == n && q.Within <= 0 {
			return fmt.Errorf("plan: %s: trailing negation requires a WITHIN clause", q.Name)
		}
	}
	return nil
}

// topoOrder sorts queries so producers precede consumers, breaking
// ties by query ID for determinism. The model compiler already
// rejected cycles.
func topoOrder(m *model.Model) ([]*model.Query, error) {
	visited := make(map[int]bool)
	var order []*model.Query
	var visit func(q *model.Query)
	visit = func(q *model.Query) {
		if visited[q.ID] {
			return
		}
		visited[q.ID] = true
		producers := make(map[int]*model.Query)
		for _, s := range q.Pattern.Steps {
			for _, p := range m.DerivedBy(s.Schema.Name()) {
				producers[p.ID] = p
			}
		}
		ids := make([]int, 0, len(producers))
		for id := range producers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			visit(producers[id])
		}
		order = append(order, q)
	}
	for _, q := range m.Queries {
		visit(q)
	}
	return order, nil
}

// Instance is one executable instantiation of a QueryPlan, bound to
// a partition's context vector. Instances are stateful (the pattern
// operator holds partial matches) and single-goroutine.
type Instance struct {
	Plan *QueryPlan

	gate      *algebra.WindowGate
	pattern   *algebra.Pattern
	filter    *algebra.Filter        // non-eager shape only
	winFilter *algebra.WindowFilter  // non-pushed-down shape only
	projects  []*algebra.Project     // plain DERIVE queries (several when fused)
	agg       *algebra.Aggregate     // TUMBLE DERIVE queries
	action    *algebra.ContextAction // window queries

	// Mask is the context mask gating this instance. The optimizer's
	// workload-sharing pass widens it when identical queries from
	// overlapping contexts are merged.
	Mask uint64

	matchScratch []*algebra.Match
	stage2       []*algebra.Match
}

// NewInstance binds the plan to a partition context vector. mask
// overrides the query's own context mask when non-zero (used by the
// sharing optimizer); pass 0 to use the query's mask.
func (qp *QueryPlan) NewInstance(vec *algebra.Vector, mask uint64) (*Instance, error) {
	q := qp.Query
	if mask == 0 {
		mask = q.Mask
	}
	inst := &Instance{Plan: qp, Mask: mask}

	if qp.prog == nil {
		// Plans constructed outside Build (tests) compile on demand.
		prog, err := algebra.CompileProgram(patternSpec(qp))
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		qp.prog = prog
	}
	inst.pattern = algebra.NewPatternFromProgram(qp.prog)

	if !qp.Opts.EagerFilters {
		inst.filter = algebra.NewFilter(q.Filters)
	}
	if qp.Opts.PushDown {
		inst.gate = algebra.NewWindowGate(mask, vec)
	} else {
		inst.winFilter = algebra.NewWindowFilter(mask, vec)
	}

	switch {
	case q.IsWindowQuery():
		act, err := algebra.NewContextAction(q.Action, q.Target.Index, mask, vec)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		inst.action = act
	case q.Tumble > 0:
		agg, err := algebra.NewAggregate(q.Out, q.Aggs, q.Tumble)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		inst.agg = agg
	default:
		pr, err := algebra.NewProject(q.Out, q.Args)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		inst.projects = []*algebra.Project{pr}
	}
	return inst, nil
}

// NewFusedInstance binds the plan to a partition vector like
// NewInstance, but attaches the projection heads of every member
// query to the single shared pattern (the MQO pattern fusion of
// §5.3). The members must have been grouped by the optimizer
// (identical pattern, filters, horizon and context mask); the first
// member is this plan's own query.
func (qp *QueryPlan) NewFusedInstance(vec *algebra.Vector, mask uint64, members []*model.Query) (*Instance, error) {
	inst, err := qp.NewInstance(vec, mask)
	if err != nil {
		return nil, err
	}
	if inst.projects == nil {
		return nil, fmt.Errorf("plan: %s: only plain DERIVE queries can fuse", qp.Query.Name)
	}
	for _, m := range members[1:] {
		pr, err := algebra.NewProject(m.Out, m.Args)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", m.Name, err)
		}
		inst.projects = append(inst.projects, pr)
	}
	return inst, nil
}

// Active reports whether the instance's context window currently
// holds. With push-down enabled the stream router consults this to
// suspend the whole plan (constant cost); without it the instance is
// always fed.
func (in *Instance) Active() bool {
	if in.gate != nil {
		return in.gate.Open()
	}
	return true
}

// Exec runs one stream transaction through the plan: Advance expires
// state and flushes trailing negations, Process consumes the batch,
// then filters, the context window check (non-optimized shape) and
// the final projection or context action run. Derived-event records
// are taken from alloc (the runtime passes its per-worker arena; pass
// event.HeapAlloc{} for GC-managed output). It appends derived events
// to evOut and transitions to trOut and returns both.
func (in *Instance) Exec(now event.Time, batch []*event.Event, alloc event.Allocator, evOut []*event.Event, trOut []algebra.Transition) ([]*event.Event, []algebra.Transition) {
	if in.gate != nil {
		batch = in.gate.Process(batch)
		if batch == nil {
			return evOut, trOut
		}
	}
	if in.agg != nil {
		// Flush aggregation windows that closed before this
		// transaction so downstream plans consume the results now.
		evOut = in.agg.Advance(now, alloc, evOut)
	}
	matches := in.pattern.Advance(now, in.matchScratch[:0])
	matches = in.pattern.Process(batch, matches)
	in.matchScratch = matches
	if len(matches) == 0 {
		return evOut, trOut
	}
	// all is the full emission set; once the projection heads below
	// have materialized derived events, the matches (including the
	// ones the filters drop) recycle into the pattern's arena.
	all := matches
	if in.filter != nil {
		matches = in.filter.Process(matches, in.stage2[:0])
		in.stage2 = matches
	}
	if in.winFilter != nil {
		dst := matches[:0]
		matches = in.winFilter.Process(matches, dst)
	}
	if len(matches) > 0 {
		for _, pr := range in.projects {
			evOut = pr.Process(matches, alloc, evOut)
		}
		if in.agg != nil {
			evOut = in.agg.Process(matches, alloc, evOut)
		}
		if in.action != nil {
			trOut = in.action.Process(now, matches, trOut)
		}
	}
	in.pattern.Release(all)
	return evOut, trOut
}

// Reset discards the instance's pattern and aggregation state
// (context history); the runtime calls it when the query's context
// window ends (§6.2).
func (in *Instance) Reset() {
	in.pattern.Reset()
	if in.agg != nil {
		in.agg.Reset()
	}
}

// PatternStats exposes the underlying pattern counters.
func (in *Instance) PatternStats() algebra.PatternStats { return in.pattern.Stats() }

// Footprint reports retained state sizes (see Pattern.MemoryFootprint).
func (in *Instance) Footprint() algebra.Footprint {
	return in.pattern.MemoryFootprint()
}

// ArenaChunks reports the pattern arena's lifetime slab allocations
// (see Pattern.ArenaChunks).
func (in *Instance) ArenaChunks() int { return in.pattern.ArenaChunks() }
