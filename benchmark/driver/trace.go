package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The traced run gives the per-layer numbers and is never mixed into
// the gated ones. It has three sources: the server's own stage tracer
// and counters, scraped over -admin after a pass at -trace-sample 1;
// the layer probe (../layers), which times each module's public
// functions in process; and this driver's end-to-end measurements,
// which tie the two together.

// stages are the engine's pipeline stages as /statusz names them;
// busy marks service time, the rest is time a tick spent waiting.
var stages = []struct {
	name string
	busy bool
}{
	{"decode", true}, {"queue_wait", false}, {"route", true},
	{"ring_wait", false}, {"exec", true}, {"merge", true},
}

// statusz is one scrape of /statusz: metric name (with labels) to a
// number or to a histogram summary.
type statusz map[string]json.RawMessage

type histogram struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

func scrape(addr, path string) ([]byte, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (s statusz) number(name string) float64 {
	var v float64
	_ = json.Unmarshal(s[name], &v)
	return v
}

func (s statusz) histogram(name string) histogram {
	var h histogram
	_ = json.Unmarshal(s[name], &h)
	return h
}

// family returns the values of every labelled series of a counter or
// gauge, e.g. family("caesar_shard_stall_ns") for each shard's.
func (s statusz) family(name string) []float64 {
	var vs []float64
	for k := range s {
		if strings.HasPrefix(k, name+"{") {
			vs = append(vs, s.number(k))
		}
	}
	return vs
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// layerMetrics derives the per-layer numbers of one traced pass from
// the scrape taken after it. The server registers its counters anew
// for every session, but the stage tracer lives as long as the
// process and its histograms add up over sessions, so their sums are
// taken relative to prev, the scrape before the pass (nil on a fresh
// server); the percentiles are over every traced tick so far.
func layerMetrics(prev, s statusz, m map[string]float64) (busiest string, err error) {
	events := s.number("caesar_events_total")
	if events == 0 {
		return "", fmt.Errorf("/statusz reports no events for the traced pass")
	}
	busy, busiestNs, execNs := 0.0, 0.0, 0.0
	for _, st := range stages {
		name := `caesar_stage_ns{stage="` + st.name + `"}`
		h := s.histogram(name)
		ns := h.Sum - prev.histogram(name).Sum
		m["stage_"+st.name+"_p50_us"] = h.P50 / 1e3
		m["stage_"+st.name+"_p99_us"] = h.P99 / 1e3
		m["stage_"+st.name+"_ns_per_event"] = ns / events
		if st.busy {
			busy += ns
			if ns > busiestNs {
				busiest, busiestNs = st.name, ns
			}
		}
		if st.name == "exec" {
			execNs = ns
		}
	}
	// Both are stamped on every traced tick of the server path; zeros
	// mean the tracer was not wired through, and every number above
	// would be silently wrong with it.
	for _, must := range []string{"decode", "queue_wait"} {
		if m["stage_"+must+"_ns_per_event"] == 0 {
			return "", fmt.Errorf("stage %q is all zero in /statusz although the server ran with -trace-sample 1", must)
		}
	}
	m["exec_share_pct"] = 100 * execNs / busy
	m["router_stall_ns_per_event"] = sum(s.family("caesar_shard_router_stall_ns")) / events
	m["shard_stall_ns_per_event"] = sum(s.family("caesar_shard_stall_ns")) / events

	fed := s.family("caesar_worker_events_fed_total")
	if total := sum(fed); total > 0 {
		sort.Float64s(fed)
		m["shard_skew"] = fed[len(fed)-1] / (total / float64(len(fed)))
		if queries := len(s.family("caesar_query_execs_total")); queries > 0 {
			m["delivered_share"] = total / (events * float64(queries))
		}
	}
	m["instance_execs_per_event"] = sum(s.family("caesar_worker_instance_execs_total")) / events
	m["suspended_skips_per_event"] = sum(s.family("caesar_worker_suspended_skips_total")) / events
	m["matches_per_event"] = sum(s.family("caesar_query_matches_total")) / events
	m["history_resets"] = sum(s.family("caesar_worker_history_resets_total"))
	m["run_nodes"] = sum(s.family("caesar_query_run_nodes"))
	m["derived_arena_chunks"] = sum(s.family("caesar_derived_arena_chunks"))
	m["derived_arena_reclaimed"] = sum(s.family("caesar_derived_arena_reclaimed_total"))
	m["snapshot_ms"] = s.histogram("caesar_checkpoint_write_ns").Mean / 1e6
	m["checkpoints"] = s.number("caesar_checkpoint_total")
	m["trace_spans"] = s.number("caesar_trace_spans_total")
	m["trace_drops"] = s.number("caesar_trace_drops_total")
	return busiest, nil
}

// runLayers execs the layer probe over the job's input and returns
// its numbers.
func (j *job) runLayers() (map[string]float64, error) {
	if _, err := os.Stat(j.e.layers()); err != nil {
		return nil, fmt.Errorf("the probe was not built; run.sh printed the compiler's error")
	}
	dir, err := j.e.freshDir("layers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	input := filepath.Join(dir, "input.evs")
	if err := os.WriteFile(input, j.in.data, 0o644); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(j.e.dir("results"), 0o755); err != nil {
		return nil, err
	}
	args := []string{
		"-workload", j.w.name, "-model", j.model, "-input", input,
		"-partition-by", j.w.partitionBy, "-shards", strconv.Itoa(j.w.shards),
		"-tmp", dir, "-out", j.e.dir("results", "trace-"+j.w.name+".json"),
	}
	for _, f := range j.w.flags {
		if f == "-baseline" {
			args = append(args, "-baseline")
		}
	}
	if j.w.durable {
		args = append(args, "-durable")
	}
	out, err := output(j.e.layers(), args...)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	return m, nil
}

// measureTraced is the traced run of one workload.
func measureTraced(e *env, def *definition, w *workload, o options) (*result, error) {
	j, err := newJob(e, w, o.seed)
	if err != nil {
		return nil, err
	}
	if err := j.establishRef(); err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: o.seed, Metrics: map[string]summary{}, Notes: map[string]float64{}, Text: map[string]string{}}
	plain, traced := j.target(w.shards, false), j.target(w.shards, true)
	defer plain.close()
	defer traced.close()
	var prev, last statusz
	var scraped *server
	keepScrape := func(srv *server) error {
		b, err := scrape(srv.admin, "/statusz")
		if err != nil {
			return err
		}
		prev, last = last, statusz{}
		if srv != scraped {
			prev = nil // a fresh process: its tracer starts from zero
		}
		scraped = srv
		return json.Unmarshal(b, &last)
	}
	if _, err := plain.pass(0, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	if _, err := traced.pass(0, keepScrape); err != nil {
		return nil, fmt.Errorf("%s traced warm-up: %w", w.name, err)
	}

	// Untraced and traced passes alternate, so that drift in the box
	// falls on both sides of tracing_overhead_pct alike.
	var epsPlain, epsTraced []float64
	// The open-loop pass and the probe that follow take the rest.
	budget := time.Duration(o.seconds) * time.Second * 6 / 10
	began := time.Now()
	verified := func(t *target, period time.Duration, after func(*server) error) (*pass, error) {
		p, err := t.pass(period, after)
		if err == nil {
			err = j.verify(p)
		}
		r.Attempted += j.in.events
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		return p, nil
	}
	for n := 0; n < minPasses || time.Since(began) < budget; n++ {
		p, err := verified(plain, 0, nil)
		if err != nil {
			return nil, err
		}
		epsPlain = append(epsPlain, float64(j.in.events)/p.wall.Seconds())
		if p, err = verified(traced, 0, keepScrape); err != nil {
			return nil, err
		}
		epsTraced = append(epsTraced, float64(j.in.events)/p.wall.Seconds())
	}
	p, err := verified(plain, w.period, nil)
	if err != nil {
		return nil, err
	}
	sort.Float64s(p.latMs)
	plain.close()
	traced.close()

	m := map[string]float64{}
	busiest, err := layerMetrics(prev, last, m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	eps := summarize(epsPlain, "1/s", "higher").Median
	m["e2e_ns_per_event"] = 1e9 / eps
	m["tracing_overhead_pct"] = 100 * (eps - summarize(epsTraced, "1/s", "higher").Median) / eps
	m["latency_p50_ms"] = quantile(p.latMs, 0.50)
	m["flush_delay_ms"] = quantile(p.latMs, 0.99) - quantile(p.latMs, 0.50)
	m["peak_rss_mb"] = plain.peakRSS

	probe, err := j.runLayers()
	switch {
	case err != nil:
		// The end-to-end side stands on its own; the probe's metrics
		// read 0 until the probe is repaired.
		r.Text["layers"] = "unavailable: " + err.Error()
	default:
		for k, v := range probe {
			m[k] = v
		}
		serial := m["decode_ns_per_event"] + m["engine_ns_per_event"] + m["encode_ns_per_output"]*m["outputs_per_event"] + m["wal_append_ns_per_event"]
		m["serial_sum_ns_per_event"] = serial
		// Positive: the stages overlap in the pipeline. Negative: the
		// sockets cost more than pipelining saves.
		m["overlap_ns_per_event"] = serial - m["e2e_ns_per_event"]
		m["transport_ns_per_event"] = m["e2e_ns_per_event"] - m["pipelined_ns_per_event"]
	}
	r.Text["busiest_layer"] = busiest + " (largest service time among decode, route, exec, merge)"

	// BENCHMARK.json says which numbers are per-layer metrics; the
	// rest are printed as notes.
	for _, d := range def.PerLayer {
		r.Metrics[d.Name] = single(m[d.Name], d.Unit, d.Better)
		delete(m, d.Name)
	}
	for k, v := range m {
		r.Notes[k] = v
	}
	return r, nil
}
