// Ingest pipeline (DESIGN.md §3.4): batch decode on its own
// goroutine, a bounded read-ahead ring to the dispatch loop, and
// watermark-driven reclamation of the source's event slab arena.
//
// The watermark protocol has one writer and one reader. The dispatch
// goroutine computes the safe reclamation bound after each batch —
// it alone knows exactly what has been dispatched where — and
// publishes it; the decode goroutine reads the published bound
// before producing the next batch and tells the source's arena to
// recycle every slab entirely below it. Workers participate with a
// single atomic store per transaction message: the timestamp they
// last completed. No per-event accounting exists anywhere.
//
// Safety: a worker processes its messages in timestamp order, so its
// unprocessed events all carry timestamps above its completed mark;
// events dispatched after the bound was computed carry timestamps
// above the last dispatched tick, which also caps the bound; and
// pattern state (partials, negation buffers, pending matches) only
// references events within 2·horizon of a completed transaction,
// which the slack term covers. Aggregation and projection copy
// attribute values, never retain event pointers.
package runtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
)

// defaultReadAhead is the ring capacity when Config.ReadAhead is 0:
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

func newBatchRing(n int) *batchRing {
	r := &batchRing{all: make([]*event.Batch, n)}
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

// run is one execution's mutable state on the legacy pipeline: the
// metric set, the worker pool, the distributor, the read-ahead ring,
// and the dispatch-side ordering and pacing state.
type run struct {
	e       *Engine
	rm      *runMetrics
	workers []*worker
	wg      sync.WaitGroup
	dist    *distributor
	start   time.Time

	appStart    event.Time
	appStartSet bool
	lastTS      event.Time
	haveLast    bool

	// watermark is the published reclamation bound: every event
	// ending strictly before it is unreferenced. Written by the
	// dispatch goroutine, read by the decode goroutine.
	watermark atomic.Int64

	// ring is the read-ahead ring, rearmed (not rebuilt) across cached
	// runs.
	ring *batchRing

	// health backs the run's /healthz probes (runtime health.go).
	health *runHealth

	// dur is the run's durability context (durable.go); nil without
	// Config.DurableDir. Rebuilt per Run by openDurable.
	dur *durableState
}

func (e *Engine) newRun() *run {
	r := e.legacyRun
	if r == nil {
		r = &run{e: e, rm: newRunMetrics(e, e.cfg.Workers), ring: newBatchRing(e.readAhead())}
		ring := r.ring
		r.rm.ringDepth = func() int64 { return int64(len(ring.data)) }
		r.workers = make([]*worker, e.cfg.Workers)
		for i := range r.workers {
			r.workers[i] = newWorker(e, i, r.rm)
		}
		r.dist = newDistributor(r.workers, e.cfg.PartitionBy)
		r.dist.rm = r.rm
		r.dist.stages = r.rm.stages
		e.legacyRun = r
	} else {
		r.reset()
	}
	r.start = time.Now()
	spawn := func(w *worker) {
		defer r.wg.Done()
		w.loop()
	}
	for _, w := range r.workers {
		r.wg.Add(1)
		go spawn(w)
	}
	r.rm.register(e.cfg.Telemetry, e, r.workers)
	r.watermark.Store(math.MinInt64)
	if e.cfg.Health != nil || r.health == nil {
		workers := r.workers
		r.health = registerRunHealth(e.cfg.Health, "workers",
			func() int64 {
				max := int64(math.MinInt64)
				for _, w := range workers {
					if c := w.completed.Load(); c > max {
						max = c
					}
				}
				return max
			},
			func() int64 {
				var n int64
				for _, w := range workers {
					n += w.queueDepth()
				}
				return n
			})
	} else {
		r.health.reset()
	}
	return r
}

// dispatchTick paces (when configured) and dispatches one tick.
// Pacing lives here, on the dispatch side, so the decode goroutine
// keeps parsing ahead during replay gaps. With durability on, the
// tick's batch is appended to the WAL before any worker sees it —
// except during recovery replay, when the tick is already logged and
// pacing, checkpointing and fault injection are suppressed.
func (r *run) dispatchTick(ts event.Time, evs []*event.Event) error {
	ds := r.dur
	live := ds == nil || !ds.replaying
	if ds != nil && live {
		if ct := r.e.cfg.testCrashTick; ct > 0 && int64(ts) >= ct {
			return errSimulatedCrash
		}
		if err := ds.appendTick(ts, evs); err != nil {
			return err
		}
	}
	r.rm.ticks.Inc()
	if p := r.e.cfg.Pacing; p > 0 && live {
		if !r.appStartSet {
			r.appStart, r.appStartSet = ts, true
		}
		target := r.start.Add(time.Duration(ts-r.appStart) * p)
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
	}
	r.dist.dispatch(ts, evs, time.Now().UnixNano())
	r.health.routed.Store(int64(ts))
	if ds != nil && live {
		return r.maybeCheckpoint(ts)
	}
	return nil
}

// reset rearms a cached run for its next execution: metrics rewound,
// workers and partition state restored to their pre-run condition.
// The partition table and all buffer capacity are retained — that
// retention is what run reuse amortizes. Only called after a clean
// run (a failed run drops the cache).
func (r *run) reset() {
	r.rm.reset()
	r.ring.arm()
	r.appStartSet = false
	r.haveLast = false
	for _, w := range r.workers {
		w.resetForRun()
	}
	for _, p := range r.dist.table {
		p.batch = nil
		if p.state != nil {
			p.state.reset(r.e)
		}
	}
}

// shutdown stops the workers with a sentinel message (the channels
// stay open so a cached run can reuse them) and waits for drain.
func (r *run) shutdown() {
	for _, w := range r.workers {
		w.ch <- txnMsg{}
	}
	r.wg.Wait()
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
		// An aborted run can leave transactions stranded in worker
		// buffers; drop the scaffolding rather than reason about its
		// partial state.
		r.e.legacyRun = nil
		return nil, runErr
	}
	st := r.e.collect(r.rm, r.workers, len(r.dist.table), time.Since(r.start))
	if r.dur != nil {
		st.ReplayedTicks = r.dur.replayed.Value()
	}
	return st, nil
}

// startDecode launches the decode goroutine: it fills recycled batch
// structs from src behind the read-ahead ring, reclaiming the
// source's event arena below the published watermark before each
// batch. Shared by the legacy and sharded pipelines. With stage
// tracing on, each batch carries its decode duration and ring-entry
// instant (two clock reads per batch — never per event).
func startDecode(ring *batchRing, src event.BatchSource, rec event.Reclaimer, watermark *atomic.Int64, rm *runMetrics, wg *sync.WaitGroup) {
	traced := rm.stages != nil
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ring.data)
		for {
			b, ok := ring.acquire()
			if !ok {
				return
			}
			if rec != nil {
				if wm := watermark.Load(); wm > math.MinInt64 {
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
// routes batch-capable sources here. With Shards > 1 the run executes
// on the sharded runtime (shard.go); otherwise on the legacy
// distributor + worker pool.
func (e *Engine) RunBatches(src event.BatchSource) (*Stats, error) {
	if e.nShards > 1 {
		return e.runSharded(src)
	}
	r := e.newRun()
	ring := r.ring
	rec, _ := src.(event.Reclaimer)
	slack := e.reclaimSlack()

	// Recovery runs before the decode stage starts: restore the latest
	// snapshot, re-dispatch the WAL tail through dispatchTick, then
	// open the WAL for this run's appends.
	if e.cfg.DurableDir != "" {
		if err := r.openDurable(); err != nil {
			r.shutdown()
			return r.finish(src, err)
		}
	}

	var decodeWG sync.WaitGroup
	startDecode(ring, src, rec, &r.watermark, r.rm, &decodeWG)

	traced := r.rm.stages != nil
	var runErr error
	for b := range ring.data {
		r.rm.batches.Inc()
		if traced {
			// The batch's queue wait and decode time attach to every
			// tick sampled out of it (batch-level attribution).
			r.dist.decodeNs = b.DecodeNs
			r.dist.queueNs = time.Now().UnixNano() - b.ReadyNs
		}
		if runErr = r.dispatchBatch(b); runErr != nil {
			ring.abort()
			break
		}
		ring.release(b)
		if rec != nil {
			r.publishWatermark(slack)
		}
	}
	for range ring.data { // drain after abort so the decoder unblocks
	}
	decodeWG.Wait()
	r.shutdown()
	return r.finish(src, runErr)
}

// dispatchBatch splits a batch into its ticks (runs of equal
// occurrence end time) and dispatches each, enforcing the §6.2
// ordering contract and the batch protocol's tick alignment. Ticks at
// or below the durability recovery point are dropped before the
// ordering checks: a recovered run re-feeds the stream from the
// start, and those ticks are below the replayed lastTS by design.
func (r *run) dispatchBatch(b *event.Batch) error {
	evs := b.Events
	for i := 0; i < len(evs); {
		ts := evs[i].End()
		j := i + 1
		for j < len(evs) && evs[j].End() == ts {
			j++
		}
		if r.dur.skipTick(ts) {
			i = j
			continue
		}
		if r.haveLast {
			if ts < r.lastTS {
				return fmt.Errorf("runtime: out-of-order event %v after t=%d", evs[i], r.lastTS)
			}
			if ts == r.lastTS && i == 0 {
				// Two same-timestamp transactions per partition would
				// apply context transitions mid-tick.
				return fmt.Errorf("runtime: batch source split tick t=%d across batches", ts)
			}
		}
		r.rm.events.Add(uint64(j - i))
		if err := r.dispatchTick(ts, evs[i:j]); err != nil {
			return err
		}
		r.lastTS, r.haveLast = ts, true
		i = j
	}
	return nil
}

// publishWatermark advances the reclamation bound. The minimum runs
// over the last dispatched tick and the completed mark of every
// worker that still holds undispatched-into-it work (sentTS is
// dispatcher-owned, so "holds work" is exact here; a lagging
// completed read only makes the bound conservative).
func (r *run) publishWatermark(slack int64) {
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
	if wm := min - slack; wm > r.watermark.Load() {
		r.watermark.Store(wm)
	}
}

// readAhead is the resolved read-ahead ring capacity (Config.ReadAhead).
func (e *Engine) readAhead() int {
	if e.cfg.ReadAhead <= 0 {
		return defaultReadAhead
	}
	return e.cfg.ReadAhead
}

// reclaimSlack is the retention horizon of downstream state in
// application time: partial matches live up to one pattern horizon,
// negation buffers and pending matches up to two (algebra/pattern.go
// keeps its negation ring 2·Horizon deep), so a completed
// transaction may still reference events up to 2·maxHorizon back.
// One extra unit makes the reclamation bound strict.
func (e *Engine) reclaimSlack() int64 {
	var h int64
	for _, qp := range e.cfg.Plan.Queries {
		if qp.Horizon > h {
			h = qp.Horizon
		}
	}
	return 2*h + 1
}
