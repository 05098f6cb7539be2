package runtime

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

var distTestSchema = event.MustSchema("PR",
	event.Field{Name: "xway", Kind: event.KindInt},
	event.Field{Name: "dir", Kind: event.KindInt},
	event.Field{Name: "seg", Kind: event.KindInt},
	event.Field{Name: "v", Kind: event.KindInt},
)

var distCtlSchema = event.MustSchema("Ctl",
	event.Field{Name: "mode", Kind: event.KindInt},
)

func distEvent(ts event.Time, xway, dir, seg, v int64) *event.Event {
	return event.MustNew(distTestSchema, ts,
		event.Int64(xway), event.Int64(dir), event.Int64(seg), event.Int64(v))
}

// stubWorkers builds n bare workers (no engine) whose channels are
// not yet drained; tests drain them explicitly.
func stubWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i, ch: make(chan txnMsg, 256)}
	}
	return ws
}

func TestPartitionKeyInterning(t *testing.T) {
	d := newDistributor(stubWorkers(3), []string{"xway", "dir", "seg"})

	a := d.partitionOf(distEvent(1, 1, 0, 7, 100))
	b := d.partitionOf(distEvent(2, 1, 0, 7, 200))
	if a != b {
		t.Error("same key attributes produced distinct partition entries")
	}
	if a.key != "1|0|7|" {
		t.Errorf("key = %q, want %q", a.key, "1|0|7|")
	}
	c := d.partitionOf(distEvent(2, 1, 0, 8, 200))
	if c == a {
		t.Error("distinct keys interned to the same partition")
	}
	// Worker assignment is the FNV-1a hash of the key — stable and
	// identical to the seed's hash/fnv-based placement.
	wantWorker := d.workers[fnv1a("1|0|7|")%3]
	if a.worker != wantWorker {
		t.Errorf("worker = %d, want %d", a.worker.id, wantWorker.id)
	}
	if len(d.table) != 2 {
		t.Errorf("table size = %d, want 2", len(d.table))
	}
}

func TestKeylessEventsShareControlPartition(t *testing.T) {
	d := newDistributor(stubWorkers(2), []string{"xway", "dir", "seg"})
	ctl := event.MustNew(distCtlSchema, 1, event.Int64(3))
	p := d.partitionOf(ctl)
	if p.key != controlKey {
		t.Errorf("keyless event landed in %q", p.key)
	}
	if q := d.partitionOf(event.MustNew(distCtlSchema, 2, event.Int64(4))); q != p {
		t.Error("control partition not interned")
	}
	// With no partition attributes configured, everything is control.
	d2 := newDistributor(stubWorkers(2), nil)
	if p2 := d2.partitionOf(distEvent(1, 1, 0, 7, 1)); p2.key != controlKey {
		t.Errorf("unpartitioned event landed in %q", p2.key)
	}
}

func TestPartialKeyAttributesRendered(t *testing.T) {
	// A schema carrying only some key attributes renders placeholders
	// for the missing ones, exactly like the seed's strings.Builder.
	s := event.MustSchema("HalfKey",
		event.Field{Name: "seg", Kind: event.KindInt},
	)
	d := newDistributor(stubWorkers(2), []string{"xway", "dir", "seg"})
	p := d.partitionOf(event.MustNew(s, 1, event.Int64(9)))
	if p.key != "||9|" {
		t.Errorf("key = %q, want %q", p.key, "||9|")
	}
}

// TestDispatchBatchesPerWorker checks the batched hand-off contract:
// each tick delivers at most one txnMsg per worker, transactions
// appear in first-seen partition order, and batch buffers cycle back
// through the worker free lists for reuse.
func TestDispatchBatchesPerWorker(t *testing.T) {
	ws := stubWorkers(1)
	w := ws[0]
	d := newDistributor(ws, []string{"seg"})

	tick := []*event.Event{
		distEvent(1, 0, 0, 5, 1),
		distEvent(1, 0, 0, 3, 2),
		distEvent(1, 0, 0, 5, 3),
		distEvent(1, 0, 0, 3, 4),
	}
	d.route(1, tick, 42, false)

	if got := len(w.ch); got != 1 {
		t.Fatalf("worker received %d messages for one tick, want 1", got)
	}
	msg := <-w.ch
	if msg.ts != 1 {
		t.Errorf("ts = %d", msg.ts)
	}
	if len(msg.buf.txns) != 2 {
		t.Fatalf("txns = %d, want 2", len(msg.buf.txns))
	}
	// First-seen order: segment 5 before segment 3.
	if msg.buf.txns[0].part.key != "5|" || msg.buf.txns[1].part.key != "3|" {
		t.Errorf("txn order = %q, %q", msg.buf.txns[0].part.key, msg.buf.txns[1].part.key)
	}
	seg5 := msg.buf.txns[0].buf.evs
	if len(seg5) != 2 || seg5[0].At(3).Int != 1 || seg5[1].At(3).Int != 3 {
		t.Errorf("segment 5 batch = %v", seg5)
	}
	for _, ev := range tick {
		if ev.Arrival != 42 {
			t.Errorf("arrival not stamped: %v", ev.Arrival)
		}
	}

	// Release like the worker loop does, then dispatch another tick:
	// the same buffers must be reused, not reallocated.
	firstEvBuf, firstTxnBuf := msg.buf.txns[0].buf, msg.buf
	for i := range msg.buf.txns {
		w.putEventBuf(msg.buf.txns[i].buf)
	}
	w.putTxnBuf(msg.buf)

	d.route(2, tick[:2], 43, false)
	msg2 := <-w.ch
	if msg2.buf != firstTxnBuf {
		t.Error("txn buffer was not recycled")
	}
	recycled := false
	for i := range msg2.buf.txns {
		if msg2.buf.txns[i].buf == firstEvBuf {
			recycled = true
		}
	}
	if !recycled {
		t.Error("event batch buffer was not recycled")
	}
}

func TestFnv1aMatchesStdlib(t *testing.T) {
	keys := []string{"", "·", "1|0|7|", "abc|def|", "||9|", "long-partition-key-with-many-bytes|123|"}
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("%d|%d|%d|", i, i%2, i*7))
	}
	for _, k := range keys {
		h := fnv.New32a()
		_, _ = h.Write([]byte(k))
		if want := h.Sum32(); fnv1a(k) != want {
			t.Errorf("fnv1a(%q) = %d, want %d", k, fnv1a(k), want)
		}
	}
}
