// Stage tracing (DESIGN.md §3.7): a zero-allocation span layer that
// follows sampled ticks end to end through the runtime pipeline and
// answers "where did the time go" per stage — decode, read-ahead
// queue, routing, ring wait (queue time), execution (service time)
// and merge hold-back — instead of only whole-transaction latency.
//
// # Design
//
// One Span is the timeline of one sampled tick on one execution unit
// (a shard or a worker). The stage that creates the tick's work
// acquires a pooled span from the StageTracer, and every stage the
// tick passes through stamps its duration; the hand-off primitives
// already carry happens-before edges (SPSC ring release/acquire,
// channel send), so no extra synchronization is needed along the way.
// Finishing a span feeds the per-stage latency histograms, copies the
// timeline into the flight recorder, and recycles the record — the
// steady state allocates nothing (spans are pooled in slabs, the
// recorder writes into fixed slots, histograms are atomic adds).
//
// # Flight recorder
//
// The recorder keeps the last K completed timelines in a fixed ring.
// Writers claim a slot with an atomic cursor and guard the copy with
// a per-slot seqlock (odd version while writing); readers snapshot
// any moment without blocking writers, skipping the rare slot caught
// mid-write. It answers "what was the engine doing just before the
// anomaly" — /tracez serves the ring alongside the stage quantiles.
//
// A nil *StageTracer (and a nil *Span) is a valid no-op, so the
// runtime stamps unconditionally and pays one nil check when tracing
// is unconfigured.
package telemetry

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a tick's journey through the
// runtime.
type Stage uint8

const (
	// StageDecode is wire-to-events batch decoding on the ingest
	// goroutine (the tick's share is its batch's decode time).
	StageDecode Stage = iota
	// StageQueue is the decoded batch's wait in the read-ahead ring
	// before the dispatch/router stage popped it.
	StageQueue
	// StageRoute is partition key rendering, hashing and grant/batch
	// building on the router (shards) or distributor (pool) stage.
	StageRoute
	// StageRingWait is queue time: from grant hand-off until the
	// owning shard (or worker) starts executing the tick.
	StageRingWait
	// StageExec is service time: executing the tick's stream
	// transactions on the shard or worker.
	StageExec
	// StageMerge is output hold-back: from shard-side completion until
	// the ordered merge layer released the tick's derived events.
	StageMerge

	// NumStages is the number of pipeline stages.
	NumStages = 6
)

var stageNames = [NumStages]string{
	"decode", "queue_wait", "route", "ring_wait", "exec", "merge",
}

// String returns the stage's snake_case name as used in /tracez and
// metric labels.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// Span is one sampled tick's timeline on one execution unit. Spans
// are pooled: obtain one from StageTracer.Start, stamp stages as the
// tick flows through the pipeline, and call Finish exactly once. All
// methods are nil-safe so call sites stamp unconditionally.
//
// A span is owned by one goroutine at a time; ownership transfers
// ride the runtime's existing hand-off primitives (ring push/pop,
// channel send), which carry the necessary happens-before edges.
type Span struct {
	t *StageTracer

	tick int64
	unit int32

	partitions int32
	events     int32
	emitted    int32

	stamped uint8
	durs    [NumStages]int64
	// mark is the wall-clock anchor of the next StampSince call,
	// advanced by each stamp so consecutive stages tile the timeline.
	mark int64
}

// Tick returns the application timestamp the span samples.
func (s *Span) Tick() int64 {
	if s == nil {
		return 0
	}
	return s.tick
}

// Stamp adds ns to the stage's duration (negative clamps to zero) and
// marks the stage observed.
func (s *Span) Stamp(st Stage, ns int64) {
	if s == nil {
		return
	}
	if ns > 0 {
		s.durs[st] += ns
	}
	s.stamped |= 1 << st
}

// MarkAt anchors the span's clock: the next StampSince measures from
// now (unix nanoseconds).
func (s *Span) MarkAt(now int64) {
	if s == nil {
		return
	}
	s.mark = now
}

// StampSince stamps the stage with now minus the last anchor and
// re-anchors at now, so consecutive StampSince calls tile the
// timeline without gaps.
func (s *Span) StampSince(st Stage, now int64) {
	if s == nil {
		return
	}
	s.Stamp(st, now-s.mark)
	s.mark = now
}

// SetCounts records how many stream transactions (partitions) and
// input events the tick carried on this unit.
func (s *Span) SetCounts(partitions, events int) {
	if s == nil {
		return
	}
	s.partitions = int32(partitions)
	s.events = int32(events)
}

// SetEmitted records how many derived events the tick emitted on this
// unit.
func (s *Span) SetEmitted(n int) {
	if s == nil {
		return
	}
	s.emitted = int32(n)
}

// Finish completes the span: observed stages feed the per-stage
// histograms, the timeline enters the flight recorder, and the record
// returns to the pool. The span must not be used afterwards.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.t
	for st := Stage(0); st < NumStages; st++ {
		if s.stamped&(1<<st) != 0 {
			t.hist[st].Observe(s.durs[st])
		}
	}
	t.record(s)
	t.Spans.Inc()
	t.release(s)
}

// TickTimeline is one completed span, copied into the flight
// recorder: the per-stage durations plus the tick's shape.
type TickTimeline struct {
	// Tick is the application timestamp; Unit the shard or worker id
	// that executed the tick's slice.
	Tick int64
	Unit int
	// Partitions is the number of stream transactions, Events the
	// input batch size, Emitted the derived events produced.
	Partitions int
	Events     int
	Emitted    int
	// At is the completion wall-clock time (unix nanoseconds).
	At int64
	// Stages holds per-stage nanoseconds; Stamped flags which stages
	// were observed (bit i = Stage(i)).
	Stages  [NumStages]int64
	Stamped uint8
}

// Payload word layout of a traceSlot.
const (
	slotTick    = iota // application timestamp
	slotAt             // completion wall clock, unix ns
	slotShape          // unit<<32 | partitions
	slotCounts         // events<<32 | emitted
	slotStamped        // observed-stage bitmask
	slotStage0         // first of NumStages per-stage durations
	slotWords   = slotStage0 + NumStages
)

// traceSlot is one seqlock-guarded recorder slot: ver is odd while a
// writer copies in. The payload is a vector of atomic words rather
// than a plain struct so the seqlock is sound under the Go memory
// model — a reader racing a writer sees only atomic values, and the
// version recheck discards the torn snapshot.
type traceSlot struct {
	ver  atomic.Uint64
	data [slotWords]atomic.Int64
}

const (
	// DefaultSampleRate traces one in 64 ticks when the rate is left
	// unset — dense enough for live quantiles, sparse enough that the
	// extra clock reads vanish in the noise.
	DefaultSampleRate = 64
	// DefaultRecorderDepth is the flight-recorder ring size.
	DefaultRecorderDepth = 256

	// spanSlabSize is how many spans a pool refill allocates at once.
	spanSlabSize = 16
)

// StageTracer samples tick timelines at a fixed 1-in-N rate and
// aggregates them into per-stage latency histograms plus the flight
// recorder. One tracer may be shared by many runs (a server process
// keeps one for its lifetime); all methods are safe for concurrent
// use and nil-safe.
type StageTracer struct {
	n     int64
	ticks atomic.Int64

	hist [NumStages]Histogram

	// Spans counts completed spans, Drops recorder slots skipped due
	// to a concurrent writer (possible only after cursor wrap-around).
	// Exported for registry attachment.
	Spans Counter
	Drops Counter

	mu   sync.Mutex
	free []*Span

	slots  []traceSlot
	mask   uint64
	cursor atomic.Uint64
}

// NewStageTracer builds a tracer sampling one in sampleRate ticks
// with a flight recorder of depth timelines (rounded up to a power of
// two). Non-positive arguments select DefaultSampleRate and
// DefaultRecorderDepth.
func NewStageTracer(sampleRate, depth int) *StageTracer {
	if sampleRate <= 0 {
		sampleRate = DefaultSampleRate
	}
	if depth <= 0 {
		depth = DefaultRecorderDepth
	}
	d := 1
	for d < depth {
		d <<= 1
	}
	t := &StageTracer{n: int64(sampleRate), slots: make([]traceSlot, d), mask: uint64(d - 1)}
	t.refill()
	return t
}

// SampleRate reports the configured 1-in-N rate.
func (t *StageTracer) SampleRate() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// SampleTick reports whether the caller's current tick falls on the
// sampling lattice (one in N ticks; nil tracer never samples). Each
// dispatching stage calls it exactly once per tick.
func (t *StageTracer) SampleTick() bool {
	if t == nil {
		return false
	}
	return t.ticks.Add(1)%t.n == 0
}

// Start acquires a pooled span for one sampled tick on one execution
// unit. Nil tracer returns a nil span (all of whose methods no-op).
func (t *StageTracer) Start(tick int64, unit int) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if len(t.free) == 0 {
		t.refill()
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.mu.Unlock()
	s.tick, s.unit = tick, int32(unit)
	return s
}

// refill allocates one span slab into the free list (t.mu held, or
// construction time).
func (t *StageTracer) refill() {
	slab := make([]Span, spanSlabSize)
	for i := range slab {
		slab[i].t = t
		t.free = append(t.free, &slab[i])
	}
}

func (t *StageTracer) release(s *Span) {
	*s = Span{t: t}
	t.mu.Lock()
	t.free = append(t.free, s)
	t.mu.Unlock()
}

// record copies the finished span into the flight recorder. Slot
// claims are serialized by the cursor; a writer that finds its slot
// mid-write (only possible when a peer stalled for a full ring
// wrap-around) drops the timeline rather than blocking.
func (t *StageTracer) record(s *Span) {
	i := t.cursor.Add(1) - 1
	sl := &t.slots[i&t.mask]
	v := sl.ver.Load()
	if v&1 != 0 || !sl.ver.CompareAndSwap(v, v+1) {
		t.Drops.Inc()
		return
	}
	sl.data[slotTick].Store(s.tick)
	sl.data[slotAt].Store(time.Now().UnixNano())
	sl.data[slotShape].Store(int64(s.unit)<<32 | int64(uint32(s.partitions)))
	sl.data[slotCounts].Store(int64(s.events)<<32 | int64(uint32(s.emitted)))
	sl.data[slotStamped].Store(int64(s.stamped))
	for st := 0; st < NumStages; st++ {
		sl.data[slotStage0+st].Store(s.durs[st])
	}
	sl.ver.Store(v + 2)
}

// StageSnapshot returns the stage's latency distribution.
func (t *StageTracer) StageSnapshot(st Stage) HistogramSnapshot {
	if t == nil {
		return HistogramSnapshot{}
	}
	return t.hist[st].Snapshot()
}

// Timelines returns the flight recorder's completed timelines, oldest
// first (at most the recorder depth). Slots caught mid-write are
// skipped, never torn.
func (t *StageTracer) Timelines() []TickTimeline {
	if t == nil {
		return nil
	}
	cur := t.cursor.Load()
	n := uint64(len(t.slots))
	start := uint64(0)
	if cur > n {
		start = cur - n
	}
	out := make([]TickTimeline, 0, cur-start)
	for i := start; i < cur; i++ {
		sl := &t.slots[i&t.mask]
		v := sl.ver.Load()
		if v&1 != 0 {
			continue
		}
		var d [slotWords]int64
		for j := range d {
			d[j] = sl.data[j].Load()
		}
		if sl.ver.Load() != v {
			continue
		}
		shape, counts := d[slotShape], d[slotCounts]
		tl := TickTimeline{
			Tick:       d[slotTick],
			Unit:       int(shape >> 32),
			Partitions: int(int32(shape)),
			Events:     int(counts >> 32),
			Emitted:    int(int32(counts)),
			At:         d[slotAt],
			Stamped:    uint8(d[slotStamped]),
		}
		copy(tl.Stages[:], d[slotStage0:])
		out = append(out, tl)
	}
	return out
}

// RegisterOn attaches the tracer's stage histograms and counters to a
// registry as caesar_stage_ns{stage="..."} summaries. Nil-safe on
// both sides.
func (t *StageTracer) RegisterOn(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		reg.Register("caesar_stage_ns", "per-stage latency of sampled tick timelines",
			&t.hist[st], Label{Key: "stage", Value: st.String()})
	}
	reg.Register("caesar_trace_spans_total", "tick timelines completed by the stage tracer", &t.Spans)
	reg.Register("caesar_trace_drops_total", "flight-recorder slots dropped to a concurrent writer", &t.Drops)
}

// WriteTracez renders the /tracez payload: sampling configuration,
// per-stage quantiles, and the flight recorder's recent timelines
// (oldest first). A nil tracer reports {"enabled": false}.
func (t *StageTracer) WriteTracez(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if t == nil {
		return enc.Encode(map[string]any{"enabled": false})
	}
	stages := map[string]any{}
	for st := Stage(0); st < NumStages; st++ {
		s := t.hist[st].Snapshot()
		if s.Count == 0 {
			continue
		}
		stages[st.String()] = map[string]int64{
			"count":   int64(s.Count),
			"p50_ns":  s.Quantile(0.5),
			"p95_ns":  s.Quantile(0.95),
			"p99_ns":  s.Quantile(0.99),
			"max_ns":  s.Max,
			"mean_ns": s.Mean(),
		}
	}
	tls := t.Timelines()
	recent := make([]map[string]any, 0, len(tls))
	for i := range tls {
		recent = append(recent, tls[i].jsonMap())
	}
	return enc.Encode(map[string]any{
		"enabled":     true,
		"sample_rate": t.n,
		"spans":       t.Spans.Value(),
		"drops":       t.Drops.Value(),
		"stages":      stages,
		"recent":      recent,
	})
}

// jsonMap renders one timeline for /tracez, naming only the observed
// stages.
func (tl *TickTimeline) jsonMap() map[string]any {
	st := map[string]int64{}
	for i := Stage(0); i < NumStages; i++ {
		if tl.Stamped&(1<<i) != 0 {
			st[i.String()] = tl.Stages[i]
		}
	}
	return map[string]any{
		"tick":              tl.Tick,
		"unit":              tl.Unit,
		"partitions":        tl.Partitions,
		"events":            tl.Events,
		"emitted":           tl.Emitted,
		"completed_unix_ns": tl.At,
		"stages_ns":         st,
	}
}
