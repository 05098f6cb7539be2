package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// controlKey is the partition of events carrying none of the key
// attributes — typically global context triggers.
const controlKey = "·"

// partition is one entry of a partition table (partTable). The entry
// interns the materialized key string, caches the owning worker
// (stable for the run), and holds the batch buffer being filled
// during the current tick.
//
// batch is router-side state; state is worker-only state (the
// hand-off of the partition's first transaction happens-before the
// worker's first access, and the router never touches it), so the
// struct needs no lock.
type partition struct {
	key    string
	worker *worker
	batch  *eventBuf
	state  *partitionState
}

// eventBuf is a recyclable per-partition batch buffer. Buffers flow
// distributor → worker → back to the owning worker's free list, so
// steady-state dispatch allocates nothing.
type eventBuf struct{ evs []*event.Event }

// txnBuf carries all of one tick's transactions bound for one
// worker: the batched hand-off sends one txnMsg per worker per tick
// instead of one channel send per partition.
type txnBuf struct{ txns []partTxn }

// partTxn is one stream transaction: a partition and its tick batch.
type partTxn struct {
	part *partition
	buf  *eventBuf
}

// txnMsg is the distributor → worker hand-off unit: one application
// timestamp and every transaction of that tick owned by the worker.
// span is non-nil on sampled ticks (stage tracing): the worker stamps
// ring wait and execution onto it and finishes it.
type txnMsg struct {
	ts   event.Time
	buf  *txnBuf
	span *telemetry.Span
}

// bufStack is a tiny lock-guarded free list. Each worker owns one per
// buffer kind: the distributor pops, the worker pushes back after the
// transaction executes. Unlike sync.Pool the stack is never drained
// by GC, keeping the steady state deterministically allocation-free.
type bufStack[T any] struct {
	mu    sync.Mutex
	items []*T
}

func (s *bufStack[T]) pop() *T {
	s.mu.Lock()
	var it *T
	if n := len(s.items); n > 0 {
		it = s.items[n-1]
		s.items[n-1] = nil
		s.items = s.items[:n-1]
	}
	s.mu.Unlock()
	return it
}

func (s *bufStack[T]) push(it *T) {
	s.mu.Lock()
	s.items = append(s.items, it)
	s.mu.Unlock()
}

// schemaKeyPlan caches, per event schema, the positional indices of
// the partition key attributes (-1 for attributes the schema lacks),
// so key extraction never hashes an attribute-name map per event.
// Whether an event has any key attribute is schema-static, hence the
// precomputed control-partition verdict.
type schemaKeyPlan struct {
	idx  []int
	none bool
}

// keyer renders partition keys into a reusable byte scratch. It is
// the schema-plan half of the event distributor, shared between the
// partition tables (which also intern partitions) and the shard
// router (which only hashes the key to pick a shard).
type keyer struct {
	partBy []string
	plans  map[*event.Schema]*schemaKeyPlan
	keyBuf []byte
}

func newKeyer(partBy []string) keyer {
	return keyer{partBy: partBy, plans: make(map[*event.Schema]*schemaKeyPlan)}
}

func (k *keyer) plan(s *event.Schema) *schemaKeyPlan {
	if p, ok := k.plans[s]; ok {
		return p
	}
	p := &schemaKeyPlan{idx: make([]int, len(k.partBy)), none: true}
	for i, attr := range k.partBy {
		p.idx[i] = s.FieldIndex(attr)
		if p.idx[i] >= 0 {
			p.none = false
		}
	}
	k.plans[s] = p
	return p
}

// render materializes the event's partition key into the reused
// scratch and returns it, or nil for events carrying no key attribute
// (the control partition). The returned slice is valid until the next
// render call.
func (k *keyer) render(ev *event.Event) []byte {
	kp := k.plan(ev.Schema)
	if kp.none {
		return nil
	}
	b := k.keyBuf[:0]
	for _, i := range kp.idx {
		if i >= 0 {
			b = ev.At(i).Append(b)
		}
		b = append(b, '|')
	}
	k.keyBuf = b
	return b
}

// pickIdx maps a key hash onto n execution units. When n is a power
// of two the modulo reduces to a bitmask (x % 2^k == x & (2^k-1) for
// unsigned x), so the assignment is bit-identical to the modulo form
// — only cheaper. Note that assignment is a pure function of (hash,
// n): resizing the worker or shard count reassigns almost every
// partition, so n must stay fixed for the lifetime of a run (it does:
// both pools are sized at Run start and never resized).
func pickIdx(h uint32, n int, mask uint32) uint32 {
	if mask != 0 {
		return h & mask
	}
	return h % uint32(n)
}

// powerOfTwoMask returns n-1 when n is a power of two, else 0.
func powerOfTwoMask(n int) uint32 {
	if n > 0 && n&(n-1) == 0 {
		return uint32(n - 1)
	}
	return 0
}

// partTable interns stream partitions: the keyer renders each
// event's key, the table maps it to one persistent entry, and intern
// assigns a new partition its worker by key hash. The pool's
// distributor keeps one table over every worker; each engine shard
// keeps its own over its one worker. Zero-allocation steady state:
// the key renders into the reused scratch and is found via the
// allocation-free map[string] byte-slice probe; the key string is
// materialized once, when the partition is first seen.
type partTable struct {
	keyer
	table   map[string]*partition
	control *partition // lazily interned control partition
	workers []*worker
	wmask   uint32 // len(workers)-1 when a power of two, else 0

	// parts mirrors len(table) for scrape-time gauges (the table is
	// confined to its owner); rm, when set, carries the run's
	// partition-count gauge.
	parts atomic.Int64
	rm    *runMetrics
}

func (t *partTable) init(workers []*worker, partBy []string, rm *runMetrics) {
	t.keyer = newKeyer(partBy)
	t.table = make(map[string]*partition)
	t.workers = workers
	t.wmask = powerOfTwoMask(len(workers))
	t.rm = rm
}

// partitionOf returns the event's partition, interning it on first
// sight.
func (t *partTable) partitionOf(ev *event.Event) *partition {
	b := t.render(ev)
	if b == nil {
		if t.control == nil {
			t.intern(controlKey)
		}
		return t.control
	}
	if p, ok := t.table[string(b)]; ok {
		return p
	}
	return t.intern(string(b))
}

// lookup returns the key's partition, interning it on first sight
// (snapshot restore routes sections by key).
func (t *partTable) lookup(key string) *partition {
	if p, ok := t.table[key]; ok {
		return p
	}
	return t.intern(key)
}

// intern adds a partition entry; called once per distinct key.
func (t *partTable) intern(key string) *partition {
	p := &partition{
		key:    key,
		worker: t.workers[pickIdx(fnv1a(key), len(t.workers), t.wmask)],
	}
	t.table[key] = p
	if key == controlKey {
		t.control = p
	}
	t.parts.Add(1)
	if t.rm != nil {
		t.rm.partitions.Add(1)
	}
	return p
}

// each visits every interned partition (snapshot and reset).
func (t *partTable) each(fn func(*partition)) {
	for _, p := range t.table {
		fn(p)
	}
}

// distributor implements the paper's event distributor (§6, Fig. 8)
// and is the pool placement of the run driver: partitions are
// interned in one table over the worker pool, and each tick's
// transactions reach the workers as one batched message per worker
// over channels. Every worker's messages arrive in tick order, so
// there is nothing to flush and nothing to quiesce beyond the driver's
// wait on the progress marks.
type distributor struct {
	partTable
	active  []*partition // partitions hit this tick, in first-seen order
	pending []*txnBuf    // per-worker transaction batch, parallel to workers

	// trace carries the driver's stage-tracing state; read only on
	// sampled ticks (nil in harnesses that never sample).
	trace *tickTrace
}

func newDistributor(workers []*worker, partBy []string) *distributor {
	d := &distributor{pending: make([]*txnBuf, len(workers))}
	d.init(workers, partBy, nil)
	return d
}

// start launches one goroutine per worker.
func (d *distributor) start(wg *sync.WaitGroup) {
	for _, w := range d.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop()
		}()
	}
}

// route partitions one tick's events and hands each worker at most
// one batched message. Partitions are visited in first-seen order —
// deterministic for in-order input — and transactions of the same
// partition always reach the same worker in timestamp order, the
// §6.2 scheduler correctness condition.
//
// On sampled ticks each dispatched message carries a span stamped
// with the batch's decode/queue shares and this tick's routing time;
// arrival doubles as the route-start instant, so sampling adds
// exactly one extra clock read to the dispatch path.
func (d *distributor) route(ts event.Time, evs []*event.Event, arrival int64, sampled bool) {
	for _, ev := range evs {
		ev.Arrival = arrival
		p := d.partitionOf(ev)
		if p.batch == nil {
			p.batch = p.worker.getEventBuf()
			d.active = append(d.active, p)
		}
		p.batch.evs = append(p.batch.evs, ev)
	}
	for _, p := range d.active {
		w := p.worker
		tb := d.pending[w.id]
		if tb == nil {
			tb = w.getTxnBuf()
			d.pending[w.id] = tb
		}
		tb.txns = append(tb.txns, partTxn{part: p, buf: p.batch})
		p.batch = nil
	}
	d.active = d.active[:0]
	var now int64
	if sampled {
		now = time.Now().UnixNano()
	}
	for i, tb := range d.pending {
		if tb != nil {
			var sp *telemetry.Span
			if sampled {
				sp = d.trace.stages.Start(int64(ts), i)
				d.trace.routed(sp, arrival, now)
			}
			d.workers[i].ch <- txnMsg{ts: ts, buf: tb, span: sp}
			d.workers[i].sentTS = int64(ts)
			d.pending[i] = nil
		}
	}
}

// flush and quiesce are no-ops: route hands every tick over whole.
func (d *distributor) flush()             {}
func (d *distributor) quiesce(event.Time) {}

// stop ends the worker loops with a sentinel message; the channels
// stay open so a cached run can reuse them.
func (d *distributor) stop() {
	for _, w := range d.workers {
		w.ch <- txnMsg{}
	}
}

// fnv1a is an inlined allocation-free FNV-1a over the key bytes; it
// replaces the heap-allocated hash/fnv digest of earlier revisions
// and computes the identical hash, so worker assignment is unchanged.
func fnv1a(key string) uint32 {
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
