// Sharded multi-core runtime (DESIGN.md §3.6): N independent engine
// shards, each owning a disjoint set of stream partitions end to end.
// The legacy pipeline funnels every tick through one distributor that
// hands per-tick transaction messages to a worker pool over channels;
// here the hot path is restructured so the per-tick cross-goroutine
// hand-off disappears from the steady state:
//
//	decode ──batchRing──▶ router ──spscRing──▶ shard 0 (route+execute)
//	                        │      (per batch) ├─ shard 1
//	                        │                  ├─ ...
//	                        └──────────────────▶ shard N-1
//	                                               │ (optional)
//	                              OnOutput ◀─ merge layer (ordered)
//
// The router only renders each event's partition key and hashes it to
// pick the owning shard — one FNV-1a over a reused scratch, no map
// probe, no interning. Events accumulate in per-shard messages that
// are flushed once per ingest batch (once per tick under paced
// replay), so shards receive work in batch-sized grants through
// bounded lock-free SPSC rings, with consumed messages cycling back
// on mirror rings for an allocation-free steady state. Each shard
// interns partitions in its own table, forms the per-tick stream
// transactions locally, and executes them on its own goroutine —
// §6.2's scheduler correctness (per-partition FIFO in timestamp
// order) holds because a partition's events always land in the same
// shard, in the order the router saw them.
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

// shardRingDepth is the capacity, in messages, of each router→shard
// ring (and its mirror free ring): enough grants for the router to
// run a few batches ahead, small enough that backpressure reaches the
// decode stage quickly. Must be a power of two.
const shardRingDepth = 8

// shardMsg is one router→shard grant: the shard's slice of one or
// more ingest batches, in non-decreasing timestamp order, never
// splitting a tick (batches are tick-aligned and messages are cut on
// batch boundaries). Messages cycle router→shard→free ring→router,
// so the steady state allocates nothing.
//
// spans holds the stage spans of this grant's sampled ticks, in tick
// order (at most one per tick — the router starts one the first time
// a sampled tick touches this shard). The ring's release/acquire
// hand-off carries the span writes across goroutines.
type shardMsg struct {
	evs   []*event.Event
	spans []*telemetry.Span
	// mark, when hasMark, advances the shard's completed tick past the
	// grant's events (usually an empty grant): the checkpoint barrier
	// pushes one to every shard the current tick never touched, since
	// an idle shard would otherwise hold back both the barrier and the
	// ordered merge release (durable.go).
	mark    int64
	hasMark bool
}

// engineShard is one partition-owning execution unit: a shard-local
// keyer and partition table (route), and a worker providing the
// execution state and metrics slot (execute). Everything behind the
// ring is confined to the shard goroutine.
type engineShard struct {
	id int
	w  *worker
	keyer
	table   map[string]*partition
	control *partition
	active  []*partition // partitions hit this tick, first-seen order

	in   *spscRing[*shardMsg] // router → shard
	free *spscRing[*shardMsg] // shard → router (recycling)

	// parts mirrors len(table) for scrape-time gauges (table itself
	// is shard-confined).
	parts atomic.Int64

	// completed publishes the last fully executed tick; the router
	// reads it for watermark reclamation, the merge layer for release
	// decisions. MinInt64 = nothing completed yet.
	completed atomic.Int64
	// done is set when the shard goroutine exits (after its last
	// completed store and output push).
	done atomic.Bool
	// sentTS is the last timestamp routed to this shard; owned by the
	// router goroutine (see publishWatermark).
	sentTS int64

	rm  *runMetrics
	mrg *outputMerger // nil when no ordered output merge is needed
}

func newEngineShard(e *Engine, id int, rm *runMetrics) *engineShard {
	s := &engineShard{
		id:     id,
		w:      newShardWorker(e, id, rm),
		keyer:  newKeyer(e.cfg.PartitionBy),
		table:  make(map[string]*partition),
		in:     newSpscRing[*shardMsg](shardRingDepth),
		free:   newSpscRing[*shardMsg](shardRingDepth),
		sentTS: math.MinInt64,
		rm:     rm,
	}
	s.w.shard = s
	s.completed.Store(math.MinInt64)
	for i := 0; i < shardRingDepth; i++ {
		s.free.push(&shardMsg{})
	}
	return s
}

// partitionOf interns the event's partition in the shard-local table.
// Same zero-allocation contract as the distributor's: scratch-
// rendered key, byte-slice map probe, key materialized once.
func (s *engineShard) partitionOf(ev *event.Event) *partition {
	b := s.render(ev)
	if b == nil {
		if s.control == nil {
			s.control = s.intern(controlKey)
		}
		return s.control
	}
	if p, ok := s.table[string(b)]; ok {
		return p
	}
	return s.intern(string(b))
}

func (s *engineShard) intern(key string) *partition {
	p := &partition{key: key}
	s.table[key] = p
	s.parts.Add(1)
	s.rm.partitions.Add(1)
	return p
}

// loop is the shard goroutine: pop a grant, split it into ticks (runs
// of equal occurrence end time), execute each tick's transactions,
// publish progress, recycle the message.
func (s *engineShard) loop() {
	for {
		msg, ok := s.in.pop()
		if !ok {
			break
		}
		evs := msg.evs
		spanIdx := 0
		for i := 0; i < len(evs); {
			ts := evs[i].End()
			j := i + 1
			for j < len(evs) && evs[j].End() == ts {
				j++
			}
			// Sampled ticks carry spans in tick order; ring wait runs
			// from the router's route-end mark to the tick's first
			// touch here — grant residence, ring time and waiting
			// behind earlier ticks all count as queue time, which is
			// what they are.
			var sp *telemetry.Span
			if spanIdx < len(msg.spans) && msg.spans[spanIdx].Tick() == int64(ts) {
				sp = msg.spans[spanIdx]
				spanIdx++
				sp.StampSince(telemetry.StageRingWait, time.Now().UnixNano())
			}
			s.execTick(ts, evs[i:j], sp)
			s.completed.Store(int64(ts))
			i = j
		}
		if msg.hasMark {
			if msg.mark > s.completed.Load() {
				s.completed.Store(msg.mark)
			}
			msg.hasMark = false
		}
		msg.evs = msg.evs[:0]
		msg.spans = msg.spans[:0]
		s.free.push(msg)
		if s.mrg != nil {
			s.mrg.wake()
		}
		// Reclaim derived-event slabs once per grant: bounded by this
		// shard's own completion minus the retention slack and — when
		// the ordered merge layer buffers our output — by the merger's
		// released tick, which can trail arbitrarily far behind a slow
		// sibling shard (an unreleased event must stay live).
		if c := s.completed.Load(); c != math.MinInt64 {
			bound := c - s.w.slack
			if s.mrg != nil {
				if rel := s.mrg.released.Load() + 1; rel < bound {
					bound = rel
				}
			}
			s.w.reclaimDerived(bound)
		}
	}
	s.done.Store(true)
	if s.mrg != nil {
		s.mrg.wake()
	}
}

// execTick forms and executes one tick's stream transactions: group
// the tick's events by partition (first-seen order, exactly like the
// distributor) and run each partition's transaction on this shard's
// execution state.
func (s *engineShard) execTick(ts event.Time, evs []*event.Event, sp *telemetry.Span) {
	w := s.w
	for _, ev := range evs {
		p := s.partitionOf(ev)
		if p.batch == nil {
			p.batch = w.getEventBuf()
			s.active = append(s.active, p)
		}
		p.batch.evs = append(p.batch.evs, ev)
	}
	w.wallNow = 0
	var outBase uint64
	if sp != nil {
		outBase = w.wm.outputs.Value()
	}
	for _, p := range s.active {
		ps := p.state
		if ps == nil {
			ps = w.newPartition(p.key)
			p.state = ps
		}
		w.wm.txns.Inc()
		if w.timed {
			w.execsInTxn = 0
			start := time.Now()
			ps.exec(w, ts, p.batch.evs)
			d := time.Since(start)
			w.wm.txnLatency.ObserveDuration(d)
			w.rm.tracer.Record(d, p.key, int64(ts), w.execsInTxn, len(p.batch.evs), sp)
		} else {
			ps.exec(w, ts, p.batch.evs)
		}
		w.putEventBuf(p.batch)
		p.batch = nil
	}
	if sp != nil {
		sp.SetCounts(len(s.active), len(evs))
		sp.StampSince(telemetry.StageExec, time.Now().UnixNano())
		sp.SetEmitted(int(w.wm.outputs.Value() - outBase))
	}
	s.active = s.active[:0]
	if s.mrg != nil {
		// The merger finishes the span when it releases the tick's
		// output (stamping merge hold-back); with nothing buffered the
		// span finishes right here inside flushTick.
		s.mrg.flushTick(s, ts, sp)
	} else if sp != nil {
		sp.Finish()
	}
}

// shardedRun is one sharded execution: the router-side state (keyer,
// ordering, pacing, pending grants) plus the shard pool and optional
// output merger.
type shardedRun struct {
	e       *Engine
	rm      *runMetrics
	shards  []*engineShard
	workers []*worker // shards[i].w, in shard order (metrics, collect)
	wg      sync.WaitGroup
	mrg     *outputMerger

	keyer
	smask     uint32
	ctrlShard uint32
	pending   []*shardMsg // per-shard grant being filled

	start       time.Time
	appStart    event.Time
	appStartSet bool
	lastTS      event.Time
	haveLast    bool

	// watermark is the published reclamation bound, same protocol as
	// the legacy pipeline's (ingest.go).
	watermark atomic.Int64
	slack     int64

	// ring is the read-ahead ring of the decode stage, rearmed (not
	// rebuilt) across cached runs.
	ring *batchRing

	// Stage tracing (router-goroutine-owned): stages samples ticks,
	// decodeNs/queueNs carry the current batch's ingest stamps, and
	// tickSpans collects the current tick's spans (one per touched
	// shard) until the tick's routing time is known.
	stages    *telemetry.StageTracer
	decodeNs  int64
	queueNs   int64
	tickSpans []*telemetry.Span

	// health backs the run's /healthz probes (health.go).
	health *runHealth

	// dur is the run's durability context (durable.go); nil without
	// Config.DurableDir. Rebuilt per Run by openDurable.
	dur *durableState
}

// shardOf renders the event's partition key and hashes it onto the
// shard pool. Assignment is a pure function of (key, shard count):
// stable for the run, and identical to fnv1a(key) % shards (bitmask
// when the count is a power of two — see pickIdx).
func (r *shardedRun) shardOf(ev *event.Event) uint32 {
	b := r.render(ev)
	if b == nil {
		return r.ctrlShard
	}
	return pickIdx(fnv1aBytes(b), len(r.shards), r.smask)
}

// routeBatch slices one decoded batch across the shards: ordering
// checks and tick accounting happen here (single goroutine), each
// event is appended to its owner shard's pending grant, and grants
// flush once per batch — or once per tick under paced replay, so
// real-time delivery granularity is preserved.
func (r *shardedRun) routeBatch(b *event.Batch) error {
	evs := b.Events
	pacing := r.e.cfg.Pacing
	ds := r.dur
	for i := 0; i < len(evs); {
		ts := evs[i].End()
		j := i + 1
		for j < len(evs) && evs[j].End() == ts {
			j++
		}
		// Recovery dedup before the ordering checks: a recovered run
		// re-feeds the stream from the start, and ticks at or below
		// the recovery point are below the replayed lastTS by design.
		if ds.skipTick(ts) {
			i = j
			continue
		}
		if r.haveLast {
			if ts < r.lastTS {
				return fmt.Errorf("runtime: out-of-order event %v after t=%d", evs[i], r.lastTS)
			}
			if ts == r.lastTS && i == 0 {
				return fmt.Errorf("runtime: batch source split tick t=%d across batches", ts)
			}
		}
		if ds != nil {
			// The tick is durable before any shard sees it (redo-log
			// ordering); the crash hook models a failure at exactly
			// this boundary.
			if ct := r.e.cfg.testCrashTick; ct > 0 && int64(ts) >= ct {
				return errSimulatedCrash
			}
			if err := ds.appendTick(ts, evs[i:j]); err != nil {
				return err
			}
		}
		r.rm.events.Add(uint64(j - i))
		r.rm.ticks.Inc()
		if pacing > 0 {
			if !r.appStartSet {
				r.appStart, r.appStartSet = ts, true
			}
			target := r.start.Add(time.Duration(ts-r.appStart) * pacing)
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
		sampled := r.stages.SampleTick()
		arrival := time.Now().UnixNano()
		for _, ev := range evs[i:j] {
			ev.Arrival = arrival
			si := r.shardOf(ev)
			msg := r.pending[si]
			if msg == nil {
				msg = r.grant(si)
				r.pending[si] = msg
			}
			msg.evs = append(msg.evs, ev)
			if sampled {
				// One span per (tick, shard), started the first time
				// the tick touches the shard; ticks route in order, so
				// the grant's last span is the current tick's if any.
				if n := len(msg.spans); n == 0 || msg.spans[n-1].Tick() != int64(ts) {
					sp := r.stages.Start(int64(ts), int(si))
					msg.spans = append(msg.spans, sp)
					r.tickSpans = append(r.tickSpans, sp)
				}
			}
		}
		if sampled {
			// arrival doubles as the tick's route-start instant, so
			// sampling costs one extra clock read per tick. Decode and
			// queue wait are batch-level attributions.
			now := time.Now().UnixNano()
			for _, sp := range r.tickSpans {
				sp.Stamp(telemetry.StageDecode, r.decodeNs)
				sp.Stamp(telemetry.StageQueue, r.queueNs)
				sp.Stamp(telemetry.StageRoute, now-arrival)
				sp.MarkAt(now)
			}
			r.tickSpans = r.tickSpans[:0]
		}
		if pacing > 0 {
			r.flush()
		}
		r.lastTS, r.haveLast = ts, true
		r.health.routed.Store(int64(ts))
		if ds != nil {
			if err := r.maybeCheckpoint(ts); err != nil {
				return err
			}
		}
		i = j
	}
	r.flush()
	return nil
}

// grant pops a recycled message off the shard's free ring, blocking
// when the shard is a full ring behind — the backpressure that keeps
// at most shardRingDepth batches in flight per shard.
func (r *shardedRun) grant(si uint32) *shardMsg {
	msg, ok := r.shards[si].free.pop()
	if !ok {
		// The free ring is closed only on teardown; a fresh message
		// keeps the router total even then.
		return &shardMsg{}
	}
	return msg
}

// flush hands every non-empty pending grant to its shard.
func (r *shardedRun) flush() {
	for i, msg := range r.pending {
		if msg == nil {
			continue
		}
		s := r.shards[i]
		s.sentTS = int64(msg.evs[len(msg.evs)-1].End())
		s.in.push(msg)
		r.pending[i] = nil
	}
}

// publishWatermark advances the reclamation bound: the minimum over
// the last routed tick and the completed mark of every shard that
// still holds routed-but-unexecuted work (sentTS is router-owned, so
// "holds work" is exact; a lagging completed read only makes the
// bound conservative).
func (r *shardedRun) publishWatermark() {
	if !r.haveLast {
		return
	}
	min := int64(r.lastTS)
	for _, s := range r.shards {
		if done := s.completed.Load(); s.sentTS > done && done < min {
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

// newShardedRun builds the run scaffolding that survives across Run
// calls: the shards and their workers, the run metric set, the
// router-side keyer, and the optional output merger. Per-run state is
// armed by reset and the per-run section of runSharded.
func newShardedRun(e *Engine, n int) *shardedRun {
	rm := newRunMetrics(e, n)
	r := &shardedRun{
		e:       e,
		rm:      rm,
		keyer:   newKeyer(e.cfg.PartitionBy),
		smask:   powerOfTwoMask(n),
		pending: make([]*shardMsg, n),
		slack:   e.reclaimSlack(),
		stages:  rm.stages,
	}
	r.ctrlShard = pickIdx(fnv1a(controlKey), n, r.smask)
	r.shards = make([]*engineShard, n)
	r.workers = make([]*worker, n)
	for i := 0; i < n; i++ {
		r.shards[i] = newEngineShard(e, i, rm)
		r.workers[i] = r.shards[i].w
	}
	if e.cfg.OnOutput != nil {
		r.mrg = newOutputMerger(r.shards, e.cfg.OnOutput, e.cfg.OnIdle)
		for _, s := range r.shards {
			s.mrg = r.mrg
			s.w.merged = true
		}
	}
	return r
}

// reset rearms a cached sharded run for its next execution: metrics
// rewound, shard progress marks and rings rearmed, partition state
// restored to its pre-run condition, the merger rearmed. The partition
// tables and every scratch/ring/arena capacity are retained — that
// retention is what run reuse amortizes. Only called after a clean
// run (an error invalidates the cache), so the rings are drained and
// every grant message is back on its free ring.
func (r *shardedRun) reset() {
	r.rm.reset()
	r.appStartSet = false
	r.haveLast = false
	r.decodeNs, r.queueNs = 0, 0
	r.tickSpans = r.tickSpans[:0]
	for _, s := range r.shards {
		s.completed.Store(math.MinInt64)
		s.sentTS = math.MinInt64
		s.done.Store(false)
		s.in.reopen()
		s.active = s.active[:0]
		s.w.resetForRun()
		for _, p := range s.table {
			p.batch = nil
			if p.state != nil {
				p.state.reset(r.e)
			}
		}
	}
	if r.mrg != nil {
		r.mrg.reset()
	}
}

// runSharded executes the engine over a batch source on the sharded
// runtime. Callers guarantee e.nShards > 1 and the pipelined path.
// The run scaffolding is cached on the Engine and reused by later Run
// calls, so steady-state re-runs allocate only per-run incidentals
// (goroutines, the read-ahead ring, registration closures).
func (e *Engine) runSharded(src event.BatchSource) (*Stats, error) {
	n := e.nShards
	r := e.shardedCached
	if r == nil {
		r = newShardedRun(e, n)
		e.shardedCached = r
	} else {
		r.reset()
	}
	r.start = time.Now()
	r.watermark.Store(math.MinInt64)
	rm := r.rm
	workers := r.workers

	if e.cfg.Health != nil || r.health == nil {
		shards := r.shards
		r.health = registerRunHealth(e.cfg.Health, "shards",
			func() int64 {
				max := int64(math.MinInt64)
				for _, s := range shards {
					if c := s.completed.Load(); c > max {
						max = c
					}
				}
				return max
			},
			func() int64 {
				var n int64
				for _, s := range shards {
					n += s.in.occupancy()
				}
				return n
			})
	} else {
		r.health.reset()
	}
	if r.mrg != nil {
		go r.mrg.loop()
	}
	spawn := func(s *engineShard) {
		defer r.wg.Done()
		s.loop()
	}
	for _, s := range r.shards {
		r.wg.Add(1)
		go spawn(s)
	}

	if r.ring == nil {
		r.ring = newBatchRing(e.readAhead())
	} else {
		r.ring.arm()
	}
	ring := r.ring
	rm.ringDepth = func() int64 { return int64(len(ring.data)) }
	rm.register(e.cfg.Telemetry, e, workers)
	registerShardMetrics(e.cfg.Telemetry, r.shards)

	rec, _ := src.(event.Reclaimer)

	// Recovery runs before the decode stage starts: restore the latest
	// snapshot into the shard tables, replay the WAL tail through the
	// rings (the shards are already consuming), then open the WAL for
	// this run's appends.
	var runErr error
	if e.cfg.DurableDir != "" {
		runErr = r.openDurable()
	}

	var decodeWG sync.WaitGroup
	if runErr == nil {
		startDecode(ring, src, rec, &r.watermark, rm, &decodeWG)
	} else {
		close(ring.data)
	}

	traced := r.stages != nil
	for b := range ring.data {
		rm.batches.Inc()
		if traced {
			r.decodeNs = b.DecodeNs
			r.queueNs = time.Now().UnixNano() - b.ReadyNs
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
	decodeWG.Wait()
	for _, s := range r.shards {
		s.in.close()
	}
	r.wg.Wait()
	if r.mrg != nil {
		r.mrg.waitDone()
	}

	if runErr == nil {
		if es, ok := src.(interface{ Err() error }); ok {
			runErr = es.Err()
		}
	}
	if runErr == nil {
		// A clean finish closes the WAL; a failed run leaves the
		// durable files exactly as the sync policy last flushed them
		// (the crash image recovery consumes).
		runErr = r.dur.closeWAL()
	}
	r.health.finish(runErr)
	if runErr != nil {
		// An aborted run can leave grants stranded between the router
		// and the rings; drop the scaffolding rather than reason about
		// its partial state.
		e.shardedCached = nil
		return nil, runErr
	}
	partitions := 0
	for _, s := range r.shards {
		partitions += len(s.table)
	}
	st := e.collect(rm, workers, partitions, time.Since(r.start))
	if r.dur != nil {
		st.ReplayedTicks = r.dur.replayed.Value()
	}
	return st, nil
}

// fnv1aBytes is fnv1a over a byte slice (no string conversion, no
// allocation); same hash, same placement.
func fnv1aBytes(key []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}
