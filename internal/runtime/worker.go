package runtime

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/algebra"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// worker owns a disjoint set of stream partitions and executes their
// transactions sequentially in timestamp order. All partition state —
// context vectors, operator state (context history), group structure —
// is confined to its goroutine; no locks are needed (§6.2's scheduler
// correctness reduces to per-partition FIFO).
type worker struct {
	eng *Engine
	id  int
	ch  chan txnMsg

	// Free lists feeding the distributor's batch buffers; buffers
	// cycle distributor → this worker → back here without garbage.
	freeEvs  bufStack[eventBuf]
	freeTxns bufStack[txnBuf]

	// wallNow caches one wall-clock reading per hand-off message for
	// the latency metric (see emit).
	wallNow int64

	// rm is the run's metric set; wm the worker's own slice of it
	// (single-writer, see runMetrics). timed enables per-transaction
	// wall timing — on only when a registry is attached, so the
	// plain path performs no extra clock reads.
	rm    *runMetrics
	wm    *workerMetrics
	timed bool

	// progress is the execution unit's mark: on the pool this worker
	// publishes completed itself, in shard mode its engine shard does.
	progress

	// shard is set when this worker is the execution half of an
	// engine shard (DESIGN.md §3.6); ch is nil then and transactions
	// arrive inline via engineShard.execTick.
	shard *engineShard
	// merged redirects emit's OnOutput delivery into mergeSink, the
	// per-tick run the shard flushes to the ordered merge layer.
	merged    bool
	mergeSink []*event.Event

	// arena is the worker-owned derived-event arena (DESIGN.md §3.8):
	// it hands out the derived-event records of this worker's plan
	// instances. Derived events are only ever referenced by this
	// worker's own partitions (chained pools, pattern state) and by
	// the output path, so reclamation is worker-local: slabs recycle
	// once the worker's completed mark minus slack passes them — and,
	// in shard mode with an output merger, once the merger has
	// released their tick (see engineShard.loop).
	arena *event.Arena
	// slack is the derived-event retention horizon in application
	// time: pattern state of downstream queries may reference a
	// chained derived event up to 2·maxHorizon back from a completed
	// transaction, exactly like ingest slabs (Engine.reclaimSlack).
	slack int64

	collected []*event.Event
}

// progress is one execution unit's position in application time —
// the one mark the watermark, the checkpoint barrier, the health probes
// and the ordered merger read, whatever the placement.
type progress struct {
	// completed publishes the last fully executed tick (MinInt64 =
	// nothing yet); written by the unit's goroutine only.
	completed atomic.Int64
	// sentTS is the last tick routed to the unit, owned by the driver
	// goroutine: the unit holds unexecuted work exactly while
	// completed < sentTS.
	sentTS int64
}

func (p *progress) reset() {
	p.completed.Store(math.MinInt64)
	p.sentTS = math.MinInt64
}

// newWorker builds a worker without a hand-off channel: an engine
// shard drives it inline from its own goroutine, and the pool adds
// the channel its worker loop receives from.
func newWorker(e *Engine, id int, rm *runMetrics) *worker {
	w := &worker{
		eng:   e,
		id:    id,
		rm:    rm,
		wm:    rm.workers[id],
		timed: rm.detail,
		arena: event.NewArena(e.cfg.DerivedChunkEvents),
		slack: e.reclaimSlack(),
	}
	w.progress.reset()
	return w
}

// reclaimDerived recycles derived-event slabs entirely below bound
// and refreshes the worker's arena gauges (single-writer atomics, so
// a live scrape never races the arena's plain counters).
func (w *worker) reclaimDerived(bound int64) {
	if freed := w.arena.ReclaimBefore(event.Time(bound)); freed > 0 {
		w.wm.derivedReclaimed.Add(uint64(freed))
	}
	w.wm.derivedChunks.Set(int64(w.arena.Chunks()))
	w.wm.derivedLive.Set(int64(w.arena.LiveChunks()))
}

// resetForRun rewinds the worker's per-run state so a cached engine
// run can reuse it: progress marks, collected outputs, and the
// derived arena (nothing references the previous run's slabs once
// partition state has been reset alongside).
func (w *worker) resetForRun() {
	w.wallNow = 0
	w.progress.reset()
	for i := range w.collected {
		w.collected[i] = nil
	}
	w.collected = w.collected[:0]
	w.mergeSink = w.mergeSink[:0]
	w.arena.Reset()
}

// queueDepth is the worker's backlog for the live queue-depth gauge:
// queued transaction messages on the pool, ring occupancy in shard
// mode.
func (w *worker) queueDepth() int64 {
	if w.ch != nil {
		return int64(len(w.ch))
	}
	if w.shard != nil {
		return w.shard.in.occupancy()
	}
	return 0
}

func (w *worker) getEventBuf() *eventBuf {
	if b := w.freeEvs.pop(); b != nil {
		return b
	}
	return &eventBuf{}
}

// putEventBuf recycles a consumed batch buffer. The stale event
// pointers are not cleared: they are overwritten on the buffer's next
// fill, the retention window is one recycle cycle, and clearing here
// would add a worker-side write pass over lines the distributor is
// about to write again (cache-coherence churn on the hot hand-off).
func (w *worker) putEventBuf(b *eventBuf) {
	b.evs = b.evs[:0]
	w.freeEvs.push(b)
}

func (w *worker) getTxnBuf() *txnBuf {
	if b := w.freeTxns.pop(); b != nil {
		return b
	}
	return &txnBuf{}
}

func (w *worker) putTxnBuf(b *txnBuf) {
	b.txns = b.txns[:0]
	w.freeTxns.push(b)
}

func (w *worker) loop() {
	for msg := range w.ch {
		if msg.buf == nil {
			// Shutdown sentinel (distributor.stop): the channel stays
			// open so a cached run can reuse it.
			return
		}
		w.wallNow = 0
		sp := msg.span
		var outBase uint64
		if sp != nil {
			// Ring wait runs from the dispatcher's hand-off mark to
			// here: channel queue time behind earlier ticks included.
			sp.StampSince(telemetry.StageRingWait, time.Now().UnixNano())
			outBase = w.wm.outputs.Value()
		}
		nEvs := 0
		for i := range msg.buf.txns {
			txn := &msg.buf.txns[i]
			ps := txn.part.state
			if ps == nil {
				ps = w.newPartition(txn.part.key)
				txn.part.state = ps
			}
			w.wm.txns.Inc()
			nEvs += len(txn.buf.evs)
			if w.timed {
				start := time.Now()
				ps.exec(w, msg.ts, txn.buf.evs)
				w.wm.txnLatency.ObserveDuration(time.Since(start))
			} else {
				ps.exec(w, msg.ts, txn.buf.evs)
			}
			w.putEventBuf(txn.buf)
		}
		if sp != nil {
			sp.SetCounts(len(msg.buf.txns), nEvs)
			sp.StampSince(telemetry.StageExec, time.Now().UnixNano())
			// outputs is single-writer (this goroutine), so the delta
			// is exactly this tick's emissions on this worker.
			sp.SetEmitted(int(w.wm.outputs.Value() - outBase))
			sp.Finish()
		}
		w.putTxnBuf(msg.buf)
		w.completed.Store(int64(msg.ts))
		// Derived events below completed-slack are unreferenced: this
		// worker's own partitions are the only holders (partition →
		// worker assignment is fixed), and their pattern state reaches
		// at most 2·maxHorizon back (the slack term).
		w.reclaimDerived(int64(msg.ts) - w.slack)
		if idle := w.eng.cfg.OnIdle; idle != nil && len(w.ch) == 0 {
			idle()
		}
	}
}

// partitionState is the per-partition slice of the storage layer
// (Fig. 8): the context windows (bit vector per group), the query
// plan instances holding context history, and scratch buffers.
type partitionState struct {
	key    string
	groups []*execGroup
}

// execGroup is one context-vector scope instantiated for a
// partition.
type execGroup struct {
	vec      *algebra.Vector
	insts    []*instanceState
	transBuf []algebra.Transition
	derived  []*event.Event
	poolBuf  []*event.Event
	// openedAt[c] is the application time context c's window opened
	// (-1 while closed); feeds the per-context lifetime histogram.
	openedAt []event.Time
}

type instanceState struct {
	inst      *plan.Instance
	countOut  bool
	wasActive bool

	// qmIdx addresses the unit's queryMetrics; the delta fields carry
	// the last pattern-operator readings so detail mode can publish
	// per-operator increments without double counting.
	qmIdx      int
	lastStats  algebra.PatternStats
	lastFoot   algebra.Footprint
	lastChunks int
}

func (w *worker) newPartition(key string) *partitionState {
	ps := &partitionState{key: key}
	defIdx := w.eng.m.Default.Index
	for _, gs := range w.eng.groups {
		vec := algebra.NewVector(defIdx)
		g := &execGroup{vec: vec, openedAt: make([]event.Time, len(w.eng.m.Contexts))}
		for i := range g.openedAt {
			g.openedAt[i] = -1
		}
		for _, u := range gs.units {
			var in *plan.Instance
			var err error
			if u.fused != nil {
				in, err = u.qp.NewFusedInstance(vec, u.mask, u.fused)
			} else {
				in, err = u.qp.NewInstance(vec, u.mask)
			}
			if err != nil {
				// Instantiation is validated at plan build time; a
				// failure here is a programming error.
				panic(err)
			}
			g.insts = append(g.insts, &instanceState{
				inst:      in,
				countOut:  u.countOut,
				wasActive: in.Active(),
				qmIdx:     u.qmIdx,
			})
		}
		ps.groups = append(ps.groups, g)
	}
	return ps
}

// reset restores the partition to its pre-run state so a cached
// engine run starts identically to a fresh one: context vectors back
// to the default window, operator state discarded (the same discard
// the context-history GC performs mid-run), activity flags and metric
// baselines recomputed. The retained structure — vectors, instances,
// scratch capacity — is what run reuse amortizes.
func (ps *partitionState) reset(e *Engine) {
	defIdx := e.m.Default.Index
	for _, g := range ps.groups {
		g.vec.Reset(defIdx)
		for i := range g.openedAt {
			g.openedAt[i] = -1
		}
		g.transBuf = g.transBuf[:0]
		g.derived = g.derived[:0]
		g.poolBuf = g.poolBuf[:0]
		for _, is := range g.insts {
			is.inst.Reset()
			is.wasActive = is.inst.Active()
			// Pattern counters are cumulative across Reset; refreshing
			// the baselines keeps detail-mode delta publishing exact
			// while the reset gauges restart from zero.
			is.lastStats = is.inst.PatternStats()
			is.lastFoot = is.inst.Footprint()
			is.lastChunks = is.inst.ArenaChunks()
		}
	}
}

// exec runs one stream transaction: route the batch through every
// group, chain derived events to downstream instances within the
// transaction, apply transitions at the end, and discard context
// history of plans whose windows closed.
func (ps *partitionState) exec(w *worker, now event.Time, batch []*event.Event) {
	for _, g := range ps.groups {
		g.exec(w, now, batch)
	}
}

func (g *execGroup) exec(w *worker, now event.Time, batch []*event.Event) {
	pool := batch
	pooled := false
	trans := g.transBuf[:0]
	for _, is := range g.insts {
		// The context-aware stream router: suspended plans receive no
		// input at all (§6.2). The check is one bit-mask test.
		if !is.inst.Active() {
			w.wm.suspendedSkips.Inc()
			continue
		}
		w.wm.instanceExecs.Inc()
		w.wm.eventsFed.Add(uint64(len(pool)))
		derived := g.derived[:0]
		derived, trans = is.inst.Exec(now, pool, w.arena, derived, trans)
		g.derived = derived[:0]
		if w.rm.detail {
			is.publishDetail(w.rm)
		}
		if len(derived) == 0 {
			continue
		}
		// Derived events join the transaction's event pool so that
		// downstream plans of the combined query plan consume them
		// within the same transaction (§4.2 phase 2). The pool grows
		// in the group's reusable scratch, not a fresh slice.
		if !pooled {
			pool = append(append(g.poolBuf[:0], batch...), derived...)
			pooled = true
		} else {
			pool = append(pool, derived...)
		}
		if is.countOut {
			w.emit(derived)
		}
	}
	if len(trans) > 0 {
		defIdx := w.eng.m.Default.Index
		for _, tr := range trans {
			was := g.vec.Has(tr.Context)
			g.vec.Apply(tr, defIdx)
			w.wm.transitions.Inc()
			// The router's per-context view: count only transitions
			// that actually flipped the window bit (re-initiations
			// and terminations of closed windows are no-ops, §3.3).
			if active := g.vec.Has(tr.Context); active != was {
				cm := &w.rm.ctx[tr.Context]
				if active {
					cm.activations.Inc()
					g.openedAt[tr.Context] = tr.At
				} else {
					cm.suspensions.Inc()
					if at := g.openedAt[tr.Context]; at >= 0 {
						cm.lifetime.Observe(int64(tr.At - at))
						g.openedAt[tr.Context] = -1
					}
				}
			}
		}
		// Garbage collection of context history (§6.2): a plan whose
		// window set just closed discards its partial matches.
		for _, is := range g.insts {
			active := is.inst.Active()
			if is.wasActive && !active {
				is.inst.Reset()
				w.wm.historyResets.Inc()
				if w.rm.detail {
					is.publishFootprint(w.rm)
				}
			}
			is.wasActive = active
		}
	}
	if pooled {
		g.poolBuf = pool[:0]
	}
	g.transBuf = trans[:0]
}

// publishDetail pushes the instance's pattern-operator deltas into
// the run's per-query metrics. Detail mode only (a registry is
// attached); the increments are allocation-free atomics.
func (is *instanceState) publishDetail(rm *runMetrics) {
	qm := &rm.query[is.qmIdx]
	qm.execs.Inc()
	st := is.inst.PatternStats()
	qm.matches.Add(st.MatchesEmitted - is.lastStats.MatchesEmitted)
	qm.filteredOut.Add(st.FilteredOut - is.lastStats.FilteredOut)
	qm.negated.Add(st.MatchesNegated - is.lastStats.MatchesNegated)
	qm.negChecks.Add(st.NegChecks - is.lastStats.NegChecks)
	is.lastStats = st
	is.publishFootprint(rm)
}

// publishFootprint refreshes the retained-state gauges and the arena
// slab counter; called after Exec and again after a history reset
// (the reset empties the operator without an Exec).
func (is *instanceState) publishFootprint(rm *runMetrics) {
	qm := &rm.query[is.qmIdx]
	f := is.inst.Footprint()
	qm.negBuffered.Add(int64(f.NegBuffered - is.lastFoot.NegBuffered))
	qm.pending.Add(int64(f.Pending - is.lastFoot.Pending))
	qm.runNodes.Add(int64(f.RunNodes - is.lastFoot.RunNodes))
	qm.predEntries.Add(int64(f.PredEntries - is.lastFoot.PredEntries))
	is.lastFoot = f
	ch := is.inst.ArenaChunks()
	qm.arenaChunks.Add(uint64(ch - is.lastChunks))
	is.lastChunks = ch
}

func (w *worker) emit(events []*event.Event) {
	// With pacing off the latency metric measures CPU backlog, so one
	// wall-clock reading per hand-off message is precise enough and
	// saves a syscall per derivation batch; paced real-time replays
	// take a fresh reading every time.
	wall := w.wallNow
	if wall == 0 || w.eng.cfg.Pacing > 0 {
		wall = time.Now().UnixNano()
		w.wallNow = wall
	}
	for _, e := range events {
		w.wm.outputs.Inc()
		if idx := e.Schema.Index(); idx < len(w.rm.perType) {
			w.rm.perType[idx].Inc()
		}
		if e.Arrival > 0 {
			w.rm.outputLatency.Observe(wall - e.Arrival)
		}
		if w.eng.cfg.CollectOutputs {
			// Stats.Outputs outlives the run; arena records do not
			// (slabs recycle on watermark and on the next Run), so
			// collected events are cloned to the heap here.
			w.collected = append(w.collected, event.Clone(e))
		}
		if w.merged {
			w.mergeSink = append(w.mergeSink, e)
		} else if w.eng.cfg.OnOutput != nil {
			w.eng.cfg.OnOutput(e)
		}
	}
}
