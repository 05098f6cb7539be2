// The run driver (DESIGN.md §3.4): batch decode on its own goroutine,
// a bounded read-ahead ring to the driver loop, one per-tick function
// for live input and WAL replay alike, and watermark-driven
// reclamation of the source's event slab arena. The driver is written
// once; a placement — the worker pool (distributor.go) or the engine
// shards (shard.go) — decides only where a tick's events execute and
// how to wait for them.
//
// The watermark protocol has one writer and one reader. The driver
// goroutine computes the safe reclamation bound after each batch — it
// alone knows exactly what has been routed where — and publishes it;
// the decode goroutine reads the published bound before producing the
// next batch and tells the source's arena to recycle every slab
// entirely below it. Execution units participate with one atomic store
// per executed tick: the progress mark they last completed. No
// per-event accounting exists anywhere.
//
// Safety: a unit executes its ticks in timestamp order, so its
// unexecuted events all carry timestamps above its completed mark;
// events routed after the bound was computed carry timestamps above
// the last routed tick, which also caps the bound; and pattern state
// (partials, negation buffers, pending matches) only references events
// within 2·horizon of a completed transaction, which the slack term
// covers. Aggregation and projection copy attribute values, never
// retain event pointers.
package runtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// defaultReadAhead is the read-ahead ring capacity in batches:
// enough for decode to absorb dispatch jitter, small enough that at
// most a few thousand events are in flight between the stages.
const defaultReadAhead = 4

// batchRing is the bounded hand-off between the decode goroutine
// (producer) and the dispatch loop (consumer): decoded batches flow
// through data, consumed batch structs return through free, and done
// aborts both directions on a dispatch error. The free side is what
// bounds decode read-ahead — with all batch structs in flight, the
// decoder blocks in acquire until dispatch releases one.
type batchRing struct {
	data chan *event.Batch
	free chan *event.Batch
	done chan struct{}
	// all owns the ring's batch structs so arm can rebuild the free
	// side across runs, keeping each batch's grown Events capacity.
	all []*event.Batch
}

func newBatchRing() *batchRing {
	r := &batchRing{all: make([]*event.Batch, defaultReadAhead)}
	for i := range r.all {
		r.all[i] = &event.Batch{}
	}
	r.arm()
	return r
}

// arm readies the ring for a run. Only the channels are rebuilt (the
// data channel is closed by the decoder at end of stream; the done
// channel by an abort); the batch structs and their event-slice
// capacity carry over, so a cached run's decode path does not regrow
// its read-ahead buffers.
func (r *batchRing) arm() {
	n := len(r.all)
	r.data = make(chan *event.Batch, n)
	r.free = make(chan *event.Batch, n)
	r.done = make(chan struct{})
	for _, b := range r.all {
		b.Events = b.Events[:0]
		r.free <- b
	}
}

// acquire blocks for a recycled batch struct; false after abort.
func (r *batchRing) acquire() (*event.Batch, bool) {
	select {
	case b := <-r.free:
		return b, true
	case <-r.done:
		return nil, false
	}
}

// send hands a filled batch to the dispatcher; false after abort.
func (r *batchRing) send(b *event.Batch) bool {
	select {
	case r.data <- b:
		return true
	case <-r.done:
		return false
	}
}

// release returns a consumed batch to the decoder.
func (r *batchRing) release(b *event.Batch) {
	b.Events = b.Events[:0]
	select {
	case r.free <- b:
	default:
	}
}

// abort unblocks both sides after a dispatch error.
func (r *batchRing) abort() { close(r.done) }

// placement is where a run's ticks execute: the worker pool
// (distributor) or the engine shards (router). Everything else about a
// run — ordering, WAL, pacing, tracing decisions, checkpoints,
// recovery, the watermark and health — is the driver's (run).
type placement interface {
	// start launches the execution goroutines on wg.
	start(wg *sync.WaitGroup)
	// route hands one tick's events toward their execution units,
	// stamping arrival; sampled ticks carry stage spans.
	route(ts event.Time, evs []*event.Event, arrival int64, sampled bool)
	// flush hands over whatever route buffered.
	flush()
	// quiesce readies the checkpoint barrier at ts: after it, every
	// unit's progress mark covers all work routed to it, and reaching
	// the marks means every output at or below ts is delivered.
	quiesce(ts event.Time)
	// lookup finds or interns the partition a snapshot section
	// restores into; each visits every interned partition.
	lookup(key string) *partition
	each(fn func(*partition))
	// stop tells the execution goroutines to drain and exit.
	stop()
}

// tickTrace is the driver's stage-tracing state: the tracer (nil = no
// stage clocks at all) and the current batch's decode and queue-wait
// stamps, attributed to every tick sampled out of the batch.
// Placements read it when they span a sampled tick.
type tickTrace struct {
	stages   *telemetry.StageTracer
	decodeNs int64
	queueNs  int64
}

// routed stamps the driver-side stages on one sampled tick's span:
// decode and queue wait from the batch, routing from arrival (the
// route-start instant) to now, where ring wait starts.
func (t *tickTrace) routed(sp *telemetry.Span, arrival, now int64) {
	sp.Stamp(telemetry.StageDecode, t.decodeNs)
	sp.Stamp(telemetry.StageQueue, t.queueNs)
	sp.Stamp(telemetry.StageRoute, now-arrival)
	sp.MarkAt(now)
}

// run is the run driver: one execution's ordering, pacing and
// durability state, the metric set, the read-ahead ring and the
// placement. It is cached on the Engine and rearmed across Run calls.
type run struct {
	e       *Engine
	rm      *runMetrics
	place   placement
	workers []*worker // every execution unit's worker, in unit order
	unit    string    // health probe name: "workers" or "shards"

	// wg tracks every goroutine of the run: decode, the execution
	// units and the merger.
	wg    sync.WaitGroup
	ring  *batchRing
	trace tickTrace
	start time.Time
	slack int64

	appStart    event.Time
	appStartSet bool
	lastTS      event.Time
	haveLast    bool

	// watermark is the published reclamation bound: every event
	// ending strictly before it is unreferenced. Written by the
	// driver goroutine, read by the decode goroutine.
	watermark atomic.Int64

	// health backs the run's /healthz probes (health.go).
	health *runHealth

	// dur is the run's durability context (durable.go); nil without
	// Config.DurableDir. Rebuilt per Run by openDurable.
	dur *durableState
}

// newRun builds the run scaffolding that survives across Run calls:
// the metric set, the read-ahead ring, and the placement with its
// workers — a pool of Config.Workers, or Config.Shards engine shards.
func (e *Engine) newRun() *run {
	n, unit := e.cfg.Workers, "workers"
	if e.cfg.Shards > 1 {
		n, unit = e.cfg.Shards, "shards"
	}
	rm := newRunMetrics(e, n)
	r := &run{e: e, rm: rm, unit: unit, ring: newBatchRing(), slack: e.reclaimSlack()}
	ring := r.ring
	rm.ringDepth = func() int64 { return int64(len(ring.data)) }
	r.trace.stages = rm.stages
	if e.cfg.Shards > 1 {
		rt := newRouter(e, rm, &r.trace)
		for _, s := range rt.shards {
			r.workers = append(r.workers, s.w)
		}
		r.place = rt
		return r
	}
	r.workers = make([]*worker, n)
	for i := range r.workers {
		// One message per tick: a worker may lag the distributor by
		// 32 ticks before dispatch blocks on it. The reclaim watermark
		// follows the slowest worker, so this bound is also how far it
		// trails dispatch (plus the slack): with room for a whole
		// short stream, a starved worker could keep decode from
		// reclaiming any slab.
		r.workers[i] = newWorker(e, i, rm)
		r.workers[i].ch = make(chan txnMsg, 32)
	}
	d := newDistributor(r.workers, e.cfg.PartitionBy)
	d.rm, d.trace = rm, &r.trace
	r.place = d
	return r
}

// armRun readies the engine's cached run for one execution — or builds
// it on first use — registers its metrics and health probes, and
// starts the execution units.
func (e *Engine) armRun() *run {
	r := e.cached
	if r == nil {
		r = e.newRun()
		e.cached = r
	} else {
		r.reset()
	}
	r.start = time.Now()
	r.watermark.Store(math.MinInt64)
	r.rm.register(e.cfg.Telemetry, e, r.workers)
	if e.cfg.Health != nil || r.health == nil {
		r.health = registerRunHealth(e.cfg.Health, r.unit, r.furthest, r.backlog)
	} else {
		r.health.reset()
	}
	r.place.start(&r.wg)
	return r
}

// reset rearms a cached run for its next execution: metrics rewound,
// progress marks and partition state restored to their pre-run
// condition. The partition tables and all buffer capacity are
// retained — that retention is what run reuse amortizes. Only called
// after a clean run (a failed run drops the cache).
func (r *run) reset() {
	r.rm.reset()
	r.ring.arm()
	r.appStartSet, r.haveLast = false, false
	r.trace.decodeNs, r.trace.queueNs = 0, 0
	for _, w := range r.workers {
		w.resetForRun()
	}
	r.place.each(func(p *partition) {
		p.batch = nil
		if p.state != nil {
			p.state.reset(r.e)
		}
	})
}

// furthest reports the furthest tick any execution unit has fully
// executed (MinInt64 before any) for the watermark probe.
func (r *run) furthest() int64 {
	max := int64(math.MinInt64)
	for _, w := range r.workers {
		if c := w.completed.Load(); c > max {
			max = c
		}
	}
	return max
}

// backlog reports the work queued at the execution units.
func (r *run) backlog() int64 {
	var n int64
	for _, w := range r.workers {
		n += w.queueDepth()
	}
	return n
}

// routeBatch splits a batch into its ticks (runs of equal occurrence
// end time), runs each through tick, and hands the buffered grants
// over once per batch.
func (r *run) routeBatch(b *event.Batch) error {
	evs := b.Events
	for i := 0; i < len(evs); {
		ts := evs[i].End()
		j := i + 1
		for j < len(evs) && evs[j].End() == ts {
			j++
		}
		if err := r.tick(ts, evs[i:j], i == 0, true); err != nil {
			return err
		}
		i = j
	}
	r.place.flush()
	return nil
}

// tick is the driver's one per-tick step, enforcing the §6.2 ordering
// contract and the batch protocol's tick alignment (batchStart: the
// tick opens its batch). Ticks at or below the durability recovery
// point are dropped before the ordering checks: a recovered run
// re-feeds the stream from the start, and those ticks are below the
// replayed lastTS by design. live is false while recovery replays the
// WAL: the tick is already logged, so there is no WAL append, pacing,
// stage span or checkpoint, and it reaches the units on its own.
func (r *run) tick(ts event.Time, evs []*event.Event, batchStart, live bool) error {
	ds := r.dur
	if ds.skipTick(ts) {
		return nil
	}
	if r.haveLast {
		if ts < r.lastTS {
			return fmt.Errorf("runtime: out-of-order event %v after t=%d", evs[0], r.lastTS)
		}
		if ts == r.lastTS && batchStart {
			// Two same-timestamp transactions per partition would
			// apply context transitions mid-tick.
			return fmt.Errorf("runtime: batch source split tick t=%d across batches", ts)
		}
	}
	if ds != nil && live {
		// The tick is durable before any unit sees it (redo-log
		// ordering); the crash hook models a failure at exactly this
		// boundary.
		if ct := r.e.cfg.testCrashTick; ct > 0 && int64(ts) >= ct {
			return errSimulatedCrash
		}
		if err := ds.appendTick(ts, evs); err != nil {
			return err
		}
	}
	if !live {
		ds.replayed.Inc()
	}
	r.rm.events.Add(uint64(len(evs)))
	r.rm.ticks.Inc()
	// Pacing lives here, on the driver side, so the decode goroutine
	// keeps parsing ahead during replay gaps.
	paced := live && r.e.cfg.Pacing > 0
	if paced {
		if !r.appStartSet {
			r.appStart, r.appStartSet = ts, true
		}
		target := r.start.Add(time.Duration(ts-r.appStart) * r.e.cfg.Pacing)
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
	}
	sampled := live && r.trace.stages.SampleTick()
	r.place.route(ts, evs, time.Now().UnixNano(), sampled)
	if paced || !live {
		// Real-time delivery granularity; a replayed tick has no
		// batch to ride with.
		r.place.flush()
	}
	r.lastTS, r.haveLast = ts, true
	r.health.routed.Store(int64(ts))
	if ds != nil && live {
		return r.maybeCheckpoint(ts)
	}
	return nil
}

// finish surfaces the run error or the source's deferred error, then
// collects Stats. A clean finish closes the WAL; a failed run leaves
// the durable files exactly as the sync policy last flushed them (the
// crash image recovery consumes).
func (r *run) finish(src any, runErr error) (*Stats, error) {
	if runErr == nil {
		if es, ok := src.(interface{ Err() error }); ok {
			runErr = es.Err()
		}
	}
	if runErr == nil {
		runErr = r.dur.closeWAL()
	}
	r.health.finish(runErr)
	if runErr != nil {
		// An aborted run can leave work stranded in worker buffers or
		// between the router and the rings; drop the scaffolding
		// rather than reason about its partial state.
		r.e.cached = nil
		return nil, runErr
	}
	st := r.e.collect(r.rm, r.workers, time.Since(r.start))
	if r.dur != nil {
		st.ReplayedTicks = r.dur.replayed.Value()
	}
	return st, nil
}

// startDecode launches the decode goroutine: it fills recycled batch
// structs from src behind the read-ahead ring, reclaiming the
// source's event arena below the published watermark before each
// batch. With stage tracing on, each batch carries its decode duration
// and ring-entry instant (two clock reads per batch — never per
// event).
func (r *run) startDecode(src event.BatchSource, rec event.Reclaimer) {
	ring, rm := r.ring, r.rm
	traced := rm.stages != nil
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(ring.data)
		for {
			b, ok := ring.acquire()
			if !ok {
				return
			}
			if rec != nil {
				if wm := r.watermark.Load(); wm > math.MinInt64 {
					if freed := rec.ReclaimBefore(event.Time(wm)); freed > 0 {
						rm.reclaims.Add(uint64(freed))
					}
				}
			}
			var start int64
			if traced {
				start = time.Now().UnixNano()
			}
			more := src.NextBatch(b)
			if traced {
				b.ReadyNs = time.Now().UnixNano()
				b.DecodeNs = b.ReadyNs - start
			}
			if len(b.Events) > 0 && !ring.send(b) {
				return
			}
			if !more {
				return
			}
		}
	}()
}

// RunBatches executes the engine over a batch source with decode
// overlapped behind the read-ahead ring. Most callers use Run, which
// routes batch-capable sources here. With Shards > 1 the ticks execute
// on the engine shards (shard.go), otherwise on the distributor +
// worker pool; the driver is the same.
func (e *Engine) RunBatches(src event.BatchSource) (*Stats, error) {
	r := e.armRun()
	ring := r.ring
	rec, _ := src.(event.Reclaimer)

	// Recovery runs before the decode stage starts: restore the latest
	// snapshot, replay the WAL tail through tick (the units are already
	// consuming), then open the WAL for this run's appends.
	var runErr error
	if e.cfg.DurableDir != "" {
		runErr = r.openDurable()
	}
	if runErr == nil {
		r.startDecode(src, rec)
	} else {
		close(ring.data)
	}

	traced := r.trace.stages != nil
	for b := range ring.data {
		r.rm.batches.Inc()
		if traced {
			// The batch's queue wait and decode time attach to every
			// tick sampled out of it (batch-level attribution).
			r.trace.decodeNs = b.DecodeNs
			r.trace.queueNs = time.Now().UnixNano() - b.ReadyNs
		}
		if runErr = r.routeBatch(b); runErr != nil {
			ring.abort()
			break
		}
		ring.release(b)
		if rec != nil {
			r.publishWatermark()
		}
	}
	for range ring.data { // drain after abort so the decoder unblocks
	}
	r.place.stop()
	r.wg.Wait()
	return r.finish(src, runErr)
}

// publishWatermark advances the reclamation bound. The minimum runs
// over the last routed tick and the completed mark of every unit that
// still holds routed-but-unexecuted work (sentTS is driver-owned, so
// "holds work" is exact here; a lagging completed read only makes the
// bound conservative).
func (r *run) publishWatermark() {
	if !r.haveLast {
		return
	}
	min := int64(r.lastTS)
	for _, w := range r.workers {
		if done := w.completed.Load(); w.sentTS > done && done < min {
			min = done
		}
	}
	if min == math.MinInt64 {
		return
	}
	if wm := min - r.slack; wm > r.watermark.Load() {
		r.watermark.Store(wm)
	}
}

// reclaimSlack is the retention horizon of downstream state in
// application time: partial matches live up to one pattern horizon,
// negation buffers and pending matches up to two (algebra/pattern.go
// keeps its negation ring 2·Horizon deep), so a completed
// transaction may still reference events up to 2·maxHorizon back.
// One extra unit makes the reclamation bound strict.
func (e *Engine) reclaimSlack() int64 {
	var h int64
	for _, qp := range e.plan.Queries {
		if qp.Horizon > h {
			h = qp.Horizon
		}
	}
	return 2*h + 1
}
