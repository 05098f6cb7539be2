// Package runtime is the CAESAR execution infrastructure (paper §6):
// the event distributor, per-partition event queues, the time-driven
// scheduler forming stream transactions, the context-aware stream
// router that suspends irrelevant query plans, per-partition context
// bit vectors, context history management and garbage collection.
//
// # Execution model
//
// The input stream arrives in application-time order. The distributor
// groups events with equal timestamps into ticks; within a tick,
// events are partitioned (by the configured key attributes — one
// unidirectional road segment in the traffic use case) into stream
// transactions. Transactions of the same partition always execute on
// the same worker in timestamp order, which is exactly the
// correctness condition of §6.2: conflicting operations on shared
// context data are processed sorted by time stamps. Partitions are
// independent, so different partitions proceed concurrently without
// a global barrier.
//
// Within a transaction, every query observes the pre-transaction
// context window set; transitions derived during the transaction are
// applied at its end. This realizes the (t_i, t_t] window semantics
// of Def. 1 and makes context processing at time t depend only on
// context derivation at times < t.
package runtime

import (
	"fmt"
	"sort"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/optimizer"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// Stats reports a run's measurements.
type Stats struct {
	Events      uint64
	Ticks       uint64
	Txns        uint64
	OutputCount uint64
	Transitions uint64
	// SuspendedSkips counts plan executions avoided because the
	// plan's context window did not hold (the router's saving).
	SuspendedSkips uint64
	// InstanceExecs counts plan executions performed.
	InstanceExecs uint64
	// EventsFed counts events delivered to active plan instances
	// (instance executions weighted by batch size) — the
	// machine-independent proxy for processing effort.
	EventsFed uint64
	// HistoryResets counts context history discards (window closures).
	HistoryResets uint64
	// Batches counts ingest batches dispatched; ReclaimedChunks counts
	// event-arena slabs recycled by watermark reclamation.
	Batches         uint64
	ReclaimedChunks uint64
	// ReplayedTicks counts WAL ticks re-dispatched during crash
	// recovery (0 on a fresh run or without durability).
	ReplayedTicks uint64
	Partitions    int
	MaxLatency    time.Duration
	MeanLatency   time.Duration
	// P50/P95/P99Latency are quantiles of the arrival-to-derivation
	// latency distribution (log-scale histogram, ≤12.5% relative
	// error; MaxLatency stays exact).
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	// TxnP50/TxnP99/TxnMax summarize per-transaction execution wall
	// time. Populated only when Config.Telemetry is set (transaction
	// timing is off otherwise).
	TxnP50   time.Duration
	TxnP99   time.Duration
	TxnMax   time.Duration
	WallTime time.Duration
	// PerType counts outputs by event type.
	PerType map[string]uint64
	// Contexts reports the stream router's per-context window
	// activity by context name: windows opened and closed, summed
	// over all partitions.
	Contexts map[string]ContextStats
	// Outputs holds the derived events, sorted by occurrence end
	// time then rendering (only with Config.CollectOutputs).
	Outputs []*event.Event
}

// ContextStats is one context type's window activity.
type ContextStats struct {
	// Activations counts windows opened (context initiations that
	// flipped the bit), Suspensions windows closed.
	Activations uint64
	Suspensions uint64
}

// Engine executes a plan over event streams.
type Engine struct {
	cfg    Config // resolved
	plan   *plan.Plan
	groups []groupSpec
	m      *model.Model
	// queryNames labels the per-query metric families; indexed by
	// execUnit.qmIdx (one slot per distinct query across groups).
	queryNames []string

	// legacyRun and shardedCached cache run scaffolding across Run
	// calls — worker pools, shards, metric sets, partition tables,
	// arenas. A later Run with the same engine reuses and resets them
	// instead of rebuilding, so steady-state re-runs allocate only
	// per-run incidentals; a failed run drops its cache (its rings and
	// buffers may be in a partial state).
	legacyRun     *run
	shardedCached *shardedRun
}

// execUnit is one instantiable query plan with its effective context
// mask and whether its derived events count as engine output. A
// non-nil fused list carries the member queries whose projection
// heads share this unit's pattern.
type execUnit struct {
	qp       *plan.QueryPlan
	mask     uint64
	countOut bool
	fused    []*model.Query
	// qmIdx addresses the unit's queryMetrics slot (shared by every
	// group instantiating the same query in context-independent
	// mode).
	qmIdx int
}

// groupSpec describes one context-vector scope: context-aware mode
// has a single group; the context-independent baseline has one group
// per sink query, each privately re-deriving contexts (§7.3).
type groupSpec struct {
	units []execUnit
}

// New resolves the configuration and builds an engine executing plan
// p. The plan is normally built from cfg.PlanOptions(); a hand-built
// plan (an ablation) works as long as a context-independent
// configuration gets a non-pushed-down plan.
func New(p *plan.Plan, cfg Config) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("runtime: nil plan")
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if cfg.ContextIndependent && p.Opts.PushDown {
		return nil, fmt.Errorf("runtime: context-independent mode requires a non-pushed-down plan (plan.Baseline())")
	}
	e := &Engine{cfg: cfg, plan: p, m: p.Model}
	e.groups, err = buildGroups(p, cfg)
	if err != nil {
		return nil, err
	}
	e.indexQueries()
	return e, nil
}

// indexQueries assigns each distinct query a dense metrics slot. In
// context-independent mode the same query appears in several groups;
// all its units share one slot, so the per-query counters aggregate
// over the private re-derivations exactly like Stats does.
func (e *Engine) indexQueries() {
	byID := map[int]int{}
	for gi := range e.groups {
		units := e.groups[gi].units
		for ui := range units {
			id := units[ui].qp.Query.ID
			idx, ok := byID[id]
			if !ok {
				idx = len(e.queryNames)
				byID[id] = idx
				e.queryNames = append(e.queryNames, units[ui].qp.Query.Name)
			}
			units[ui].qmIdx = idx
		}
	}
}

func buildGroups(p *plan.Plan, cfg Config) ([]groupSpec, error) {
	byID := make(map[int]*plan.QueryPlan, len(p.Queries))
	var order []*model.Query
	for _, qp := range p.Queries {
		byID[qp.Query.ID] = qp
		order = append(order, qp.Query)
	}

	if !cfg.ContextIndependent {
		var shared []optimizer.SharedQuery
		if cfg.Sharing {
			shared = optimizer.ShareWorkload(order)
		} else {
			shared = optimizer.NonShared(order)
		}
		g := groupSpec{}
		if cfg.FusePatterns {
			for _, f := range optimizer.FusePatterns(shared) {
				u := execUnit{
					qp:       byID[f.Leader.ID],
					mask:     f.Mask,
					countOut: !f.Leader.IsWindowQuery(),
				}
				if len(f.Members) > 1 {
					u.fused = f.Members
				}
				g.units = append(g.units, u)
			}
			return []groupSpec{g}, nil
		}
		for _, sq := range shared {
			g.units = append(g.units, execUnit{
				qp:       byID[sq.Query.ID],
				mask:     sq.Mask,
				countOut: !sq.Query.IsWindowQuery(),
			})
		}
		return []groupSpec{g}, nil
	}

	// Context-independent: one group per sink (derive query), each
	// containing every window query with its producer closure plus
	// the sink's own producer closure — the paper's "each context
	// processing query has to run its respective context deriving
	// queries separately" (§5.3).
	m := p.Model
	var groups []groupSpec
	for _, sink := range order {
		if sink.IsWindowQuery() {
			continue
		}
		members := map[int]bool{}
		var add func(q *model.Query)
		add = func(q *model.Query) {
			if members[q.ID] {
				return
			}
			members[q.ID] = true
			for _, s := range q.Pattern.Steps {
				for _, prod := range m.DerivedBy(s.Schema.Name()) {
					add(prod)
				}
			}
		}
		add(sink)
		for _, q := range order {
			if q.IsWindowQuery() {
				add(q)
			}
		}
		g := groupSpec{}
		for _, q := range order { // topo order preserved
			if !members[q.ID] {
				continue
			}
			g.units = append(g.units, execUnit{
				qp:       byID[q.ID],
				mask:     q.Mask,
				countOut: q.ID == sink.ID,
			})
		}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("runtime: context-independent mode needs at least one DERIVE query")
	}
	return groups, nil
}

// Groups reports the number of execution groups and total instances
// per partition; the experiment harness uses it to explain costs.
func (e *Engine) Groups() (groups, instances int) {
	for _, g := range e.groups {
		instances += len(g.units)
	}
	return len(e.groups), instances
}

// Run executes the engine over a source until exhaustion and returns
// the run's statistics. Run may be called repeatedly on the same
// engine — each call starts from fresh logical state (context
// vectors, pattern state and progress marks are reset), while the
// scaffolding (worker pools, partition tables, rings, arenas) is
// retained and reused. Calls must not overlap; outputs observed
// through OnOutput are valid only within the watermark window (see
// Config.OnOutput), while Stats.Outputs of a previous call remains
// valid across later calls.
//
// Sources implementing event.BatchSource (SliceSource, event.Reader,
// linearroad.Stream) feed the pipelined ingest path directly: decode
// runs on its own goroutine behind a bounded read-ahead ring
// (DESIGN.md §3.4); other sources are adapted through
// event.NewBatcher.
func (e *Engine) Run(src event.Source) (*Stats, error) {
	if bs, ok := src.(event.BatchSource); ok {
		return e.RunBatches(bs)
	}
	return e.RunBatches(event.NewBatcher(src))
}

// collect derives the run's Stats from the run's metric objects —
// the same objects a live /metrics scrape reads — so batch and
// serving paths report identical numbers.
func (e *Engine) collect(rm *runMetrics, workers []*worker, partitions int, wall time.Duration) *Stats {
	st := &Stats{
		Events:          rm.events.Value(),
		Ticks:           rm.ticks.Value(),
		Batches:         rm.batches.Value(),
		ReclaimedChunks: rm.reclaims.Value(),
		WallTime:        wall,
		Partitions:      partitions,
		PerType:         map[string]uint64{},
		Contexts:        map[string]ContextStats{},
	}
	var txnLat telemetry.HistogramSnapshot
	for _, w := range workers {
		wm := w.wm
		st.Txns += wm.txns.Value()
		st.OutputCount += wm.outputs.Value()
		st.Transitions += wm.transitions.Value()
		st.SuspendedSkips += wm.suspendedSkips.Value()
		st.InstanceExecs += wm.instanceExecs.Value()
		st.EventsFed += wm.eventsFed.Value()
		st.HistoryResets += wm.historyResets.Value()
		txnLat.Merge(wm.txnLatency.Snapshot())
		if e.cfg.CollectOutputs {
			st.Outputs = append(st.Outputs, w.collected...)
		}
	}
	schemas := e.m.Registry.Schemas()
	for idx := range rm.perType {
		if n := rm.perType[idx].Value(); n > 0 {
			st.PerType[schemas[idx].Name()] += n
		}
	}
	for i := range rm.ctx {
		cm := &rm.ctx[i]
		acts, susps := cm.activations.Value(), cm.suspensions.Value()
		if acts > 0 || susps > 0 {
			st.Contexts[e.m.Contexts[i].Name] = ContextStats{Activations: acts, Suspensions: susps}
		}
	}
	lat := rm.outputLatency.Snapshot()
	st.MaxLatency = time.Duration(lat.Max)
	st.MeanLatency = time.Duration(lat.Mean())
	st.P50Latency = time.Duration(lat.Quantile(0.5))
	st.P95Latency = time.Duration(lat.Quantile(0.95))
	st.P99Latency = time.Duration(lat.Quantile(0.99))
	st.TxnP50 = time.Duration(txnLat.Quantile(0.5))
	st.TxnP99 = time.Duration(txnLat.Quantile(0.99))
	st.TxnMax = time.Duration(txnLat.Max)
	if e.cfg.CollectOutputs {
		sort.SliceStable(st.Outputs, func(i, j int) bool {
			a, b := st.Outputs[i], st.Outputs[j]
			if a.Time.End != b.Time.End {
				return a.Time.End < b.Time.End
			}
			return a.String() < b.String()
		})
	}
	return st
}
