// Package experiments regenerates every table and figure of the
// CAESAR evaluation (paper §7). Each FigNN function runs the
// corresponding parameter sweep and returns a Table whose rows mirror
// the series the paper plots; cmd/experiments prints them and
// bench_test.go wraps them as Go benchmarks.
//
// Absolute numbers differ from the paper's testbed (Java on a 16-core
// VM vs. this Go implementation); the reproduced quantity is the
// shape: who wins, by roughly what factor, and where crossovers fall.
// EXPERIMENTS.md records paper-reported vs. measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/pam"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// Scale sizes a sweep. Quick completes in seconds for tests and
// benchmarks; Full approaches the paper's proportions.
type Scale struct {
	Name string
	// LRDuration is the simulated stream duration in seconds
	// (the paper's streams cover 3 hours).
	LRDuration int64
	// LRSegments is the number of segments per road.
	LRSegments int
	// Workers is the engine worker pool size.
	Workers int
	// MaxQueries bounds query-count sweeps.
	MaxQueries int
	// MaxRoads bounds road-count sweeps.
	MaxRoads int
	// MaxOps bounds the optimizer plan-size sweep.
	MaxOps int
	// MaxOverlap bounds the overlapping-window sweep.
	MaxOverlap int
}

// Quick is the test/benchmark scale.
func Quick() Scale {
	return Scale{
		Name:       "quick",
		LRDuration: 420,
		LRSegments: 4,
		Workers:    4,
		MaxQueries: 8,
		MaxRoads:   3,
		MaxOps:     18,
		MaxOverlap: 12,
	}
}

// Full is the paper-proportioned scale used by cmd/experiments.
func Full() Scale {
	return Scale{
		Name:       "full",
		LRDuration: 1800,
		LRSegments: 10,
		Workers:    4,
		MaxQueries: 20,
		MaxRoads:   8,
		MaxOps:     24,
		MaxOverlap: 45,
	}
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table to w in aligned-column form.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func fmtRatio(r float64) string { return fmt.Sprintf("%.2f", r) }

// lrRun configures one Linear Road engine execution.
type lrRun struct {
	replicas   int
	roads      int
	baseline   bool // the context-independent strategy
	sharing    bool
	noPushDown bool
	script     linearroad.Script
	duration   int64
	segments   int
	workers    int
	pacing     time.Duration
}

// runLR compiles the traffic model, generates the stream and runs it,
// returning the stats.
func runLR(r lrRun) (*runtime.Stats, error) {
	m, err := model.CompileSource(linearroad.ModelSource(r.replicas))
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(m, core.Config{
		ContextIndependent: r.baseline,
		Sharing:            r.sharing,
		DisablePushDown:    r.noPushDown,
		PartitionBy:        linearroad.PartitionBy(),
		Workers:            r.workers,
		Pacing:             r.pacing,
	})
	if err != nil {
		return nil, err
	}
	cfg := linearroad.DefaultConfig()
	cfg.Roads = r.roads
	cfg.Segments = r.segments
	cfg.Duration = r.duration
	cfg.Script = r.script
	evs, err := linearroad.Generate(cfg, m.Registry)
	if err != nil {
		return nil, err
	}
	return eng.Run(event.NewSliceSource(evs))
}

// runPAM runs the physical activity monitoring workload.
// The baseline flag selects the context-independent strategy.
func runPAM(replicas int, baseline bool, duration int64, workers int) (*runtime.Stats, error) {
	m, err := model.CompileSource(pam.ModelSource(replicas))
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(m, core.Config{
		ContextIndependent: baseline,
		PartitionBy:        pam.PartitionBy(),
		Workers:            workers,
	})
	if err != nil {
		return nil, err
	}
	cfg := pam.DefaultConfig()
	cfg.Duration = duration
	evs, err := pam.Generate(cfg, m.Registry)
	if err != nil {
		return nil, err
	}
	return eng.Run(event.NewSliceSource(evs))
}

// effort is the machine-independent cost proxy used alongside wall-
// clock latency: events delivered to active plan instances. Wall
// latency is what the paper reports; effort makes the tables
// reproducible on loaded CI machines.
func effort(st *runtime.Stats) uint64 { return st.EventsFed }

// winRatio is the paper's headline metric: the maximal latency of the
// baseline divided by the maximal latency of the contender (§7.1).
// It returns 0 when the contender latency is zero.
func winRatio(baseline, contender time.Duration) float64 {
	if contender <= 0 {
		return 0
	}
	return float64(baseline) / float64(contender)
}

// lFactor is the scalability metric of the Linear Road benchmark: the
// largest input scale (number of roads) whose maximal latency stays
// within the constraint. latencies[i] is the measured maximal latency
// at scale scales[i]; scales must be increasing.
func lFactor(scales []int, latencies []time.Duration, constraint time.Duration) int {
	best := 0
	for i, s := range scales {
		if latencies[i] <= constraint && s > best {
			best = s
		}
	}
	return best
}
