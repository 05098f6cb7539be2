// Package telemetry is the engine's observability core: a lock-free,
// zero-allocation-on-hot-path metrics registry (atomic counters,
// gauges and fixed-bucket log-scale histograms with quantile
// extraction), the stage tracer behind /tracez (span.go), and text
// exposition in Prometheus and JSON formats.
//
// # Design
//
// Metric types are plain structs whose zero value is ready to use;
// recording is a handful of atomic operations — no locks, no maps,
// no allocation. Producers own their metric objects (the runtime
// embeds them in per-run and per-worker state) and optionally attach
// them to a Registry, which is only a named view for the scrape
// endpoints: registration allocates, recording never does. The same
// objects back both the live /metrics view and the end-of-run Stats,
// so batch and serving paths report identical numbers by
// construction.
//
// Registering a metric under an already-taken name replaces the
// previous entry. Engines re-register their run metrics on every Run
// (runs are rebuilt from scratch), so a registry attached to a
// long-lived server always exposes the most recently started run.
//
// # Zero-allocation discipline
//
// Counter.Add/Inc, Gauge.Set/Add and Histogram.Observe are the only
// operations permitted on engine hot paths; all of them are
// allocation-free atomics. Formatting, snapshotting and quantile
// extraction happen on the scrape path only.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (between runs; not for concurrent use).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable signed value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time. The
// function must be safe to call concurrently with the producer (e.g.
// a channel length read).
type GaugeFunc func() int64

// Label is one name="value" pair attached to a metric.
type Label struct{ Key, Value string }

// entry is one registered metric. labels is pre-rendered at
// registration so the scrape path only concatenates.
type entry struct {
	name   string
	help   string
	labels string // rendered {k="v",...} or ""
	metric any    // *Counter | *Gauge | GaugeFunc | *Histogram
}

func (e *entry) fullName() string { return e.name + e.labels }

// Registry is a named view over metric objects for the scrape
// endpoints. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries []*entry
	index   map[string]int // fullName -> entries position
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + `="` + l.Value + `"`
	}
	return s + "}"
}

// Register attaches a metric object under name (+labels). A nil
// registry is a no-op, so producers can register unconditionally.
// Re-registering a full name replaces the previous entry in place,
// keeping the exposition order stable.
func (r *Registry) Register(name, help string, metric any, labels ...Label) {
	if r == nil {
		return
	}
	switch metric.(type) {
	case *Counter, *Gauge, GaugeFunc, *Histogram:
	default:
		panic(fmt.Sprintf("telemetry: unsupported metric type %T", metric))
	}
	e := &entry{name: name, help: help, labels: renderLabels(labels), metric: metric}
	r.mu.Lock()
	if i, ok := r.index[e.fullName()]; ok {
		r.entries[i] = e
	} else {
		r.index[e.fullName()] = len(r.entries)
		r.entries = append(r.entries, e)
	}
	r.mu.Unlock()
}

// sorted returns the entries sorted by full name (stable scrape
// output regardless of registration order).
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	es := make([]*entry, len(r.entries))
	copy(es, r.entries)
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return es[i].fullName() < es[j].fullName() })
	return es
}

// quantiles exposed for histograms, in exposition order.
var exportQuantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Histograms are rendered as
// summaries (quantile series plus _sum/_count) with an extra _max
// series carrying the exact maximum.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var lastTyped string
	for _, e := range r.sorted() {
		if e.name != lastTyped {
			typ := ""
			switch e.metric.(type) {
			case *Counter:
				typ = "counter"
			case *Gauge, GaugeFunc:
				typ = "gauge"
			case *Histogram:
				typ = "summary"
			}
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typ); err != nil {
				return err
			}
			lastTyped = e.name
		}
		var err error
		switch m := e.metric.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, e.labels, m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, e.labels, m.Value())
		case GaugeFunc:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, e.labels, m())
		case *Histogram:
			err = writePromHistogram(w, e, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, e *entry, h *Histogram) error {
	snap := h.Snapshot()
	for _, eq := range exportQuantiles {
		lbl := `{quantile="` + eq.label + `"}`
		if e.labels != "" {
			lbl = e.labels[:len(e.labels)-1] + `,quantile="` + eq.label + `"}`
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, lbl, snap.Quantile(eq.q)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", e.name, e.labels, snap.Sum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, e.labels, snap.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_max%s %d\n", e.name, e.labels, snap.Max)
	return err
}

// Snapshot returns a point-in-time JSON-marshalable view: full metric
// name to value (counters and gauges) or to a summary object
// (histograms: count, sum, max, mean, p50, p95, p99).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, e := range r.sorted() {
		switch m := e.metric.(type) {
		case *Counter:
			out[e.fullName()] = m.Value()
		case *Gauge:
			out[e.fullName()] = m.Value()
		case GaugeFunc:
			out[e.fullName()] = m()
		case *Histogram:
			s := m.Snapshot()
			out[e.fullName()] = map[string]int64{
				"count": int64(s.Count),
				"sum":   s.Sum,
				"max":   s.Max,
				"mean":  s.Mean(),
				"p50":   s.Quantile(0.5),
				"p95":   s.Quantile(0.95),
				"p99":   s.Quantile(0.99),
			}
		}
	}
	return out
}

// WriteJSON renders the Snapshot as indented JSON (the /statusz
// payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
