package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// metricValue extracts the value of the exposition line whose
// name{labels} part equals series.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(ln, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestTelemetryMatchesStats is the acceptance check of the telemetry
// layer: a /metrics scrape after a run must report exactly the
// numbers Stats reports, because both views read the same atomic
// metric objects.
func TestTelemetryMatchesStats(t *testing.T) {
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng := newEngine(t, m, Config{
		PartitionBy: []string{"seg"},
		Workers:     2,
		Telemetry:   reg,
	})
	st, err := eng.Run(trafficStream(t, m))
	if err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	if got := metricValue(t, body, "caesar_events_total"); got != float64(st.Events) {
		t.Errorf("events: scrape %v, stats %d", got, st.Events)
	}
	if got := metricValue(t, body, "caesar_ticks_total"); got != float64(st.Ticks) {
		t.Errorf("ticks: scrape %v, stats %d", got, st.Ticks)
	}
	if got := metricValue(t, body, "caesar_partitions"); got != float64(st.Partitions) {
		t.Errorf("partitions: scrape %v, stats %d", got, st.Partitions)
	}

	// Per-worker counters sum to the run totals; with a registry
	// attached every transaction is timed.
	var txns, timed, skips float64
	for w := 0; w < 2; w++ {
		txns += metricValue(t, body, fmt.Sprintf(`caesar_worker_txns_total{worker="%d"}`, w))
		timed += metricValue(t, body, fmt.Sprintf(`caesar_txn_latency_ns_count{worker="%d"}`, w))
		skips += metricValue(t, body, fmt.Sprintf(`caesar_worker_suspended_skips_total{worker="%d"}`, w))
	}
	if txns != float64(st.Txns) || timed != float64(st.Txns) {
		t.Errorf("txns: scrape %v (timed %v), stats %d", txns, timed, st.Txns)
	}
	if skips != float64(st.SuspendedSkips) {
		t.Errorf("suspended skips: scrape %v, stats %d", skips, st.SuspendedSkips)
	}

	// Per-context window activity: the trafficStream opens and closes
	// congestion and accident windows on segment 1.
	for name, cs := range st.Contexts {
		acts := metricValue(t, body, fmt.Sprintf(`caesar_context_activations_total{context=%q}`, name))
		susps := metricValue(t, body, fmt.Sprintf(`caesar_context_suspensions_total{context=%q}`, name))
		if acts != float64(cs.Activations) || susps != float64(cs.Suspensions) {
			t.Errorf("context %s: scrape %v/%v, stats %d/%d", name, acts, susps, cs.Activations, cs.Suspensions)
		}
	}
	if st.Contexts["congestion"].Activations == 0 || st.Contexts["congestion"].Suspensions == 0 {
		t.Error("congestion window never opened/closed — test stream broken")
	}

	// Latency histogram: quantiles and max agree with Stats exactly
	// (same snapshot math over the same buckets).
	for _, q := range []struct {
		q    string
		want time.Duration
	}{
		{"0.5", st.P50Latency}, {"0.95", st.P95Latency}, {"0.99", st.P99Latency},
	} {
		got := metricValue(t, body, fmt.Sprintf(`caesar_output_latency_ns{quantile=%q}`, q.q))
		if got != float64(q.want) {
			t.Errorf("latency q%s: scrape %v, stats %v", q.q, got, q.want)
		}
	}
	if got := metricValue(t, body, "caesar_output_latency_ns_max"); got != float64(st.MaxLatency) {
		t.Errorf("max latency: scrape %v, stats %v", got, st.MaxLatency)
	}
	if got := metricValue(t, body, "caesar_output_latency_ns_count"); got != float64(st.OutputCount) {
		t.Errorf("latency samples: scrape %v, outputs %d", got, st.OutputCount)
	}

	if st.TxnMax <= 0 || st.TxnP99 <= 0 {
		t.Errorf("txn timing not populated: p99=%v max=%v", st.TxnP99, st.TxnMax)
	}
}
