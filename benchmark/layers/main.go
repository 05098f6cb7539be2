//go:build benchlayers

// Command layers is the per-layer probe of the benchmark's traced
// run. It calls each module through its public functions, in process
// and over the same bytes the end-to-end driver sends, wraps every
// call in a span of the benchmark's own recorder, and prints one JSON
// object of per-layer numbers. It is the only part of the benchmark
// that imports the engine's packages; when a refactor breaks it,
// run.sh reports `layers: unavailable` and the end-to-end metrics are
// measured all the same.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/durability"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/optimizer"
	"github.com/caesar-cep/caesar/internal/plan"
)

// reps is how often each layer is timed; the median is reported.
const reps = 3

func main() {
	var (
		workload    = flag.String("workload", "", "workload name, stamped on every span")
		modelPath   = flag.String("model", "", "model file")
		inputPath   = flag.String("input", "", "event stream in the line format")
		partitionBy = flag.String("partition-by", "", "comma-separated partition key attributes")
		shards      = flag.Int("shards", 1, "engine shards")
		baseline    = flag.Bool("baseline", false, "context-independent strategy")
		durable     = flag.Bool("durable", false, "also probe the WAL and recovery")
		tmp         = flag.String("tmp", "", "scratch directory for the durable probe")
		out         = flag.String("out", "", "file the spans are written to")
	)
	flag.Parse()
	p := &probe{
		rec: newRecorder(*workload),
		cfg: core.Config{
			ContextIndependent: *baseline,
			PartitionBy:        strings.Split(*partitionBy, ","),
			Shards:             *shards,
		},
		tmp:     *tmp,
		metrics: map[string]float64{},
	}
	_, err := p.rec.time("probe", func() error { return p.run(*modelPath, *inputPath, *durable) })
	if err == nil && *out != "" {
		err = p.rec.write(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(p.metrics)
	fmt.Println(string(b))
}

type probe struct {
	rec     *recorder
	cfg     core.Config
	tmp     string
	metrics map[string]float64
}

// median times fn reps times, each in its own span.
func (p *probe) median(name string, fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		d, err := p.rec.time(name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

func (p *probe) run(modelPath, inputPath string, durable bool) error {
	src, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	input, err := os.ReadFile(inputPath)
	if err != nil {
		return err
	}

	// lang + model: source text to compiled model.
	var m *model.Model
	d, err := p.median("compile", func() (err error) {
		m, err = model.CompileSource(string(src))
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["compile_ms"] = ms(d)

	// optimizer + plan: compiled model to executable plan.
	opts := plan.Optimized()
	if p.cfg.ContextIndependent {
		opts = plan.Baseline()
	}
	var pl *plan.Plan
	if d, err = p.median("plan", func() (err error) {
		pl, err = plan.Build(m, opts)
		return err
	}); err != nil {
		return err
	}
	p.metrics["plan_ms"] = ms(d)
	p.metrics["plan_queries"] = float64(len(pl.Queries))
	var queries []*model.Query
	for _, qp := range pl.Queries {
		queries = append(queries, qp.Query)
	}
	p.metrics["plan_shared_queries"] = float64(len(optimizer.ShareWorkload(queries)))
	windows, _ := optimizer.WindowsFromModel(m)
	if groups, err := optimizer.GroupWindows(windows); err == nil {
		p.metrics["plan_window_groups"] = float64(len(groups))
	}

	// event: wire bytes to events, no engine behind it. Nothing but
	// NextBatch runs inside the span; the events the engine span below
	// needs are decoded once more, untimed, and stay alive because
	// that reader's arena is never told to reclaim.
	var batch event.Batch
	decode := func(each func([]*event.Event)) error {
		r := event.NewReader(bytes.NewReader(input), m.Registry)
		for more := true; more; {
			more = r.NextBatch(&batch)
			each(batch.Events)
		}
		return r.Err()
	}
	if d, err = p.median("decode", func() error { return decode(func([]*event.Event) {}) }); err != nil {
		return err
	}
	var events []*event.Event
	if err := decode(func(evs []*event.Event) { events = append(events, evs...) }); err != nil {
		return err
	}
	n := float64(len(events))
	if n == 0 {
		return fmt.Errorf("input holds no events")
	}
	p.metrics["decode_ns_per_event"] = float64(d.Nanoseconds()) / n
	p.metrics["decode_mb_per_s"] = float64(len(input)) / 1e6 / d.Seconds()
	p.metrics["input_events"] = n

	// runtime (+ algebra through plan): pre-decoded batches in,
	// derived events counted as they are handed to OnOutput.
	var outputs atomic.Int64
	cfg := p.cfg
	cfg.OnOutput = func(*event.Event) { outputs.Add(1) }
	eng, err := core.NewEngine(m, cfg)
	if err != nil {
		return err
	}
	if d, err = p.median("engine", func() error {
		outputs.Store(0)
		_, err := eng.RunBatches(event.NewSliceSource(events))
		return err
	}); err != nil {
		return err
	}
	p.metrics["engine_ns_per_event"] = float64(d.Nanoseconds()) / n
	p.metrics["outputs_per_event"] = float64(outputs.Load()) / n

	// event again: derived events to wire bytes.
	cfg = p.cfg
	cfg.CollectOutputs = true
	collector, err := core.NewEngine(m, cfg)
	if err != nil {
		return err
	}
	st, err := collector.RunBatches(event.NewSliceSource(events))
	if err != nil {
		return err
	}
	if len(st.Outputs) > 0 {
		if d, err = p.median("encode", func() error {
			w := event.NewWriter(io.Discard)
			for _, e := range st.Outputs {
				if err := w.Write(e); err != nil {
					return err
				}
			}
			return w.Flush()
		}); err != nil {
			return err
		}
		p.metrics["encode_ns_per_output"] = float64(d.Nanoseconds()) / float64(len(st.Outputs))
	}

	// The whole pipeline in process, as internal/server runs it minus
	// the sockets: decode overlapping dispatch, outputs encoded under
	// a mutex. End-to-end time beyond this is transport.
	var mu sync.Mutex
	var w *event.Writer
	cfg = p.cfg
	cfg.OnOutput = func(e *event.Event) {
		mu.Lock()
		_ = w.Write(e)
		mu.Unlock()
	}
	piped, err := core.NewEngine(m, cfg)
	if err != nil {
		return err
	}
	var reader *event.Reader
	if d, err = p.median("pipelined", func() error {
		w = event.NewWriter(io.Discard)
		reader = event.NewReader(bytes.NewReader(input), m.Registry)
		if _, err := piped.Run(reader); err != nil {
			return err
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	p.metrics["pipelined_ns_per_event"] = float64(d.Nanoseconds()) / n
	chunks, reclaimed := reader.ArenaChunks()
	p.metrics["ingest_arena_chunks"] = float64(chunks)
	p.metrics["ingest_arena_reclaimed"] = float64(reclaimed)

	if durable {
		return p.durability(m, events)
	}
	return nil
}

// durability probes the WAL on its own and recovery through the
// engine: a run that only logs, then a second engine over the same
// directory, which replays the log before it dedups the re-fed input.
func (p *probe) durability(m *model.Model, events []*event.Event) error {
	n := float64(len(events))
	var walBytes int64
	d, err := p.median("wal_append", func() error {
		dir, err := os.MkdirTemp(p.tmp, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		wal, err := durability.OpenWAL(dir, -1)
		if err != nil {
			return err
		}
		for start := 0; start < len(events); {
			end := start
			for end < len(events) && events[end].End() == events[start].End() {
				end++
			}
			if err := wal.Append(events[start].End(), events[start:end]); err != nil {
				return err
			}
			start = end
		}
		walBytes = wal.Backlog()
		return wal.Close()
	})
	if err != nil {
		return err
	}
	p.metrics["wal_append_ns_per_event"] = float64(d.Nanoseconds()) / n
	p.metrics["wal_bytes_per_event"] = float64(walBytes) / n

	dir, err := os.MkdirTemp(p.tmp, "recovery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := p.cfg
	cfg.DurableDir = filepath.Join(dir, "state")
	cfg.CheckpointEvery = 1 << 30 // log only: recovery has the whole stream to replay
	cfg.WALSync = -1
	cfg.OnOutput = func(*event.Event) {}
	logged, err := core.NewEngine(m, cfg)
	if err != nil {
		return err
	}
	if _, err := logged.RunBatches(event.NewSliceSource(events)); err != nil {
		return err
	}
	recovered, err := core.NewEngine(m, cfg)
	if err != nil {
		return err
	}
	d, err = p.rec.time("recovery", func() error {
		st, err := recovered.RunBatches(event.NewSliceSource(events))
		if err == nil && st.ReplayedTicks == 0 {
			err = fmt.Errorf("recovery replayed nothing")
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["recovery_events_per_s"] = n / d.Seconds()
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
