package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	var h Histogram
	c.Add(41)
	c.Inc()
	g.Set(7)
	g.Add(-3)
	h.Observe(100)
	r.Register("caesar_events_total", "events seen", &c)
	r.Register("caesar_queue_depth", "queued transactions", &g, Label{"worker", "0"})
	r.Register("caesar_txn_latency_ns", "txn latency", &h, Label{"worker", "0"})
	r.Register("caesar_parts", "partitions", GaugeFunc(func() int64 { return 3 }))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP caesar_events_total events seen",
		"# TYPE caesar_events_total counter",
		"caesar_events_total 42",
		"# TYPE caesar_queue_depth gauge",
		`caesar_queue_depth{worker="0"} 4`,
		"# TYPE caesar_txn_latency_ns summary",
		`caesar_txn_latency_ns{worker="0",quantile="0.99"}`,
		`caesar_txn_latency_ns_count{worker="0"} 1`,
		`caesar_txn_latency_ns_max{worker="0"} 100`,
		"caesar_parts 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	snap := r.Snapshot()
	if snap["caesar_events_total"] != uint64(42) {
		t.Errorf("snapshot counter = %v", snap["caesar_events_total"])
	}
	hs, ok := snap[`caesar_txn_latency_ns{worker="0"}`].(map[string]int64)
	if !ok || hs["count"] != 1 || hs["max"] != 100 {
		t.Errorf("snapshot histogram = %v", snap[`caesar_txn_latency_ns{worker="0"}`])
	}

	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"caesar_events_total": 42`) {
		t.Errorf("json snapshot:\n%s", b.String())
	}
}

func TestRegistryReplace(t *testing.T) {
	r := NewRegistry()
	var c1, c2 Counter
	c1.Add(1)
	c2.Add(2)
	r.Register("x_total", "", &c1)
	r.Register("x_total", "", &c2) // a fresh run re-registers
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x_total 2") || strings.Contains(b.String(), "x_total 1\n") {
		t.Errorf("replace semantics broken:\n%s", b.String())
	}
}

func TestNilRegistryRegister(t *testing.T) {
	var r *Registry
	var c Counter
	r.Register("x", "", &c) // must not panic
}

// TestRegistryConcurrentScrape hammers counters, gauges and
// histograms from N writer goroutines while a reader scrapes
// snapshots and text expositions, asserting monotonicity and the
// no-torn-read invariant. Run under -race in CI.
func TestRegistryConcurrentScrape(t *testing.T) {
	const writers = 8
	const perWriter = 20000

	r := NewRegistry()
	var c Counter
	var g Gauge
	var h Histogram
	r.Register("stress_total", "", &c)
	r.Register("stress_gauge", "", &g)
	r.Register("stress_hist", "", &h)
	r.Register("stress_fn", "", GaugeFunc(func() int64 { return g.Value() }))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed + int64(j%1000))
			}
		}(int64(i))
	}

	var readerErr error
	fail := func(format string, args ...any) {
		if readerErr == nil {
			readerErr = fmt.Errorf(format, args...)
		}
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		var lastCount, lastHist uint64
		var lastMax int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < lastCount {
				fail("counter went backwards: %d -> %d", lastCount, v)
			} else {
				lastCount = v
			}
			s := h.Snapshot()
			if s.Count < lastHist {
				fail("histogram count went backwards: %d -> %d", lastHist, s.Count)
			} else {
				lastHist = s.Count
			}
			if s.Max < lastMax {
				fail("histogram max went backwards: %d -> %d", lastMax, s.Max)
			} else {
				lastMax = s.Max
			}
			// Count is incremented after the bucket: a snapshot that
			// reads count first can never see fewer bucket entries.
			var bucketSum uint64
			for _, b := range s.buckets {
				bucketSum += b
			}
			if bucketSum < s.Count {
				fail("torn snapshot: buckets %d < count %d", bucketSum, s.Count)
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				fail("scrape: %v", err)
			}
			_ = r.Snapshot()
		}
	}()

	wg.Wait()
	close(stop)
	rwg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if c.Value() != writers*perWriter {
		t.Errorf("final count = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Errorf("final histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	if h.Max() != writers-1+999 {
		t.Errorf("final histogram max = %d, want %d", h.Max(), writers-1+999)
	}
	if g.Value() != writers*perWriter {
		t.Errorf("final gauge = %d, want %d", g.Value(), writers*perWriter)
	}
}
