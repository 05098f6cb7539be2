// Shard placement (DESIGN.md §3.6): N independent engine shards, each
// owning a disjoint set of stream partitions end to end. The run driver
// (ingest.go) is the same as the pool's; what differs is where a tick
// executes. The pool funnels every tick through one distributor that
// hands per-tick transaction messages to workers over channels; here
// the per-tick cross-goroutine hand-off disappears from the steady
// state:
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
// are flushed once per ingest batch (once per tick under paced or
// recovery replay), so shards receive work in batch-sized grants
// through bounded lock-free SPSC rings, with consumed messages cycling
// back on mirror rings for an allocation-free steady state. Each shard
// interns partitions in its own table, forms the per-tick stream
// transactions locally, and executes them on its own goroutine —
// §6.2's scheduler correctness (per-partition FIFO in timestamp order)
// holds because a partition's events always land in the same shard,
// in the order the router saw them.
package runtime

import (
	"math"
	gort "runtime"
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
	// ordered merge release (router.quiesce).
	mark    int64
	hasMark bool
}

// engineShard is one partition-owning execution unit: a shard-local
// partition table (route), and a worker providing the execution state,
// the metrics slot and the progress mark (execute). Everything behind
// the ring is confined to the shard goroutine.
type engineShard struct {
	id int
	w  *worker
	partTable
	active []*partition // partitions hit this tick, first-seen order

	in   *spscRing[*shardMsg] // router → shard
	free *spscRing[*shardMsg] // shard → router (recycling)

	// done is set when the shard goroutine exits (after its last
	// completed store and output push).
	done atomic.Bool

	mrg *outputMerger // nil when no ordered output merge is needed
}

func newEngineShard(e *Engine, id int, rm *runMetrics) *engineShard {
	s := &engineShard{
		id:   id,
		w:    newWorker(e, id, rm),
		in:   newSpscRing[*shardMsg](shardRingDepth),
		free: newSpscRing[*shardMsg](shardRingDepth),
	}
	s.w.shard = s
	s.init([]*worker{s.w}, e.cfg.PartitionBy, rm)
	for i := 0; i < shardRingDepth; i++ {
		s.free.push(&shardMsg{})
	}
	return s
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
			s.w.completed.Store(int64(ts))
			i = j
		}
		if msg.hasMark {
			if msg.mark > s.w.completed.Load() {
				s.w.completed.Store(msg.mark)
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
		if c := s.w.completed.Load(); c != math.MinInt64 {
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
			start := time.Now()
			ps.exec(w, ts, p.batch.evs)
			w.wm.txnLatency.ObserveDuration(time.Since(start))
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

// router is the shard placement of the run driver: the router-side
// keyer, the shards, their pending grants and the optional output
// merger. All of it but the shards' own state is driver-goroutine
// owned.
type router struct {
	keyer
	shards    []*engineShard
	smask     uint32
	ctrlShard uint32
	pending   []*shardMsg // per-shard grant being filled
	mrg       *outputMerger
	reg       *telemetry.Registry

	// trace is the driver's stage-tracing state; tickSpans collects
	// the current tick's spans (one per touched shard) until the
	// tick's routing time is known.
	trace     *tickTrace
	tickSpans []*telemetry.Span
}

// newRouter builds the shard placement that survives across Run
// calls: the shards and their workers, the router-side keyer, and the
// optional output merger.
func newRouter(e *Engine, rm *runMetrics, trace *tickTrace) *router {
	n := e.cfg.Shards
	rt := &router{
		keyer:   newKeyer(e.cfg.PartitionBy),
		smask:   powerOfTwoMask(n),
		pending: make([]*shardMsg, n),
		reg:     e.cfg.Telemetry,
		trace:   trace,
	}
	rt.ctrlShard = pickIdx(fnv1a(controlKey), n, rt.smask)
	rt.shards = make([]*engineShard, n)
	for i := range rt.shards {
		rt.shards[i] = newEngineShard(e, i, rm)
	}
	if e.cfg.OnOutput != nil {
		rt.mrg = newOutputMerger(rt.shards, e.cfg.OnOutput, e.cfg.OnIdle)
		for _, s := range rt.shards {
			s.mrg = rt.mrg
			s.w.merged = true
		}
	}
	return rt
}

// start rearms the rings and the merger for a run (after a clean run
// they are drained and every grant is back on its free ring), then
// launches the merger and one goroutine per shard.
func (rt *router) start(wg *sync.WaitGroup) {
	for _, s := range rt.shards {
		s.done.Store(false)
		s.in.reopen()
	}
	if m := rt.mrg; m != nil {
		m.reset()
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.loop()
		}()
	}
	for _, s := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.loop()
		}()
	}
	registerShardMetrics(rt.reg, rt.shards)
}

// shardOf renders the event's partition key and hashes it onto the
// shard pool. Assignment is a pure function of (key, shard count):
// stable for the run, and identical to fnv1a(key) % shards (bitmask
// when the count is a power of two — see pickIdx).
func (rt *router) shardOf(ev *event.Event) uint32 {
	b := rt.render(ev)
	if b == nil {
		return rt.ctrlShard
	}
	return pickIdx(fnv1aBytes(b), len(rt.shards), rt.smask)
}

// route appends each of the tick's events to its owner shard's pending
// grant; grants go out on the driver's flush, once per batch.
func (rt *router) route(ts event.Time, evs []*event.Event, arrival int64, sampled bool) {
	for _, ev := range evs {
		ev.Arrival = arrival
		si := rt.shardOf(ev)
		msg := rt.pending[si]
		if msg == nil {
			msg = rt.grant(si)
			rt.pending[si] = msg
		}
		msg.evs = append(msg.evs, ev)
		if sampled {
			// One span per (tick, shard), started the first time the
			// tick touches the shard; ticks route in order, so the
			// grant's last span is the current tick's if any.
			if n := len(msg.spans); n == 0 || msg.spans[n-1].Tick() != int64(ts) {
				sp := rt.trace.stages.Start(int64(ts), int(si))
				msg.spans = append(msg.spans, sp)
				rt.tickSpans = append(rt.tickSpans, sp)
			}
		}
	}
	if sampled {
		// arrival doubles as the tick's route-start instant, so
		// sampling costs one extra clock read per tick.
		now := time.Now().UnixNano()
		for _, sp := range rt.tickSpans {
			rt.trace.routed(sp, arrival, now)
		}
		rt.tickSpans = rt.tickSpans[:0]
	}
}

// grant pops a recycled message off the shard's free ring, blocking
// when the shard is a full ring behind — the backpressure that keeps
// at most shardRingDepth batches in flight per shard.
func (rt *router) grant(si uint32) *shardMsg {
	msg, ok := rt.shards[si].free.pop()
	if !ok {
		// The free ring is closed only on teardown; a fresh message
		// keeps the router total even then.
		return &shardMsg{}
	}
	return msg
}

// flush hands every non-empty pending grant to its shard.
func (rt *router) flush() {
	for i, msg := range rt.pending {
		if msg == nil {
			continue
		}
		s := rt.shards[i]
		s.w.sentTS = int64(msg.evs[len(msg.evs)-1].End())
		s.in.push(msg)
		rt.pending[i] = nil
	}
}

// quiesce readies the checkpoint barrier at tick ts: flush the pending
// grants; push a mark grant to every shard the tick never touched (an
// idle shard never advances completed, which would stall both the
// driver's wait and the merger's release scan); and, when outputs
// merge, spin until the merger has released ts, so every output at or
// below ts is delivered before state serializes.
func (rt *router) quiesce(ts event.Time) {
	rt.flush()
	for _, s := range rt.shards {
		if s.w.sentTS < int64(ts) {
			msg := rt.grant(uint32(s.id))
			msg.mark, msg.hasMark = int64(ts), true
			s.w.sentTS = int64(ts)
			s.in.push(msg)
		}
	}
	if m := rt.mrg; m != nil {
		for m.released.Load() < int64(ts) {
			m.wake()
			gort.Gosched()
		}
	}
}

// lookup finds or interns a partition in its owning shard by the same
// hash the router uses, so restored partitions land exactly where live
// events will find them — under any shard count.
func (rt *router) lookup(key string) *partition {
	return rt.shards[pickIdx(fnv1a(key), len(rt.shards), rt.smask)].lookup(key)
}

func (rt *router) each(fn func(*partition)) {
	for _, s := range rt.shards {
		s.each(fn)
	}
}

// stop closes the shard rings; each shard drains its ring and exits,
// and the merger exits once every shard has.
func (rt *router) stop() {
	for _, s := range rt.shards {
		s.in.close()
	}
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
