package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/caesar-cep/caesar/internal/optimizer"
)

// Fig11a reproduces the optimizer search comparison (paper Fig.
// 11(a)): CPU time of the exhaustive (context-independent) plan
// search versus the greedy context-aware search as the number of
// operators in the plan grows. The exhaustive column grows
// exponentially; the greedy one stays flat.
func Fig11a(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig11a",
		Title:  "Optimizer search time vs. plan size",
		Header: []string{"operators", "exhaustive", "greedy", "speedup", "log2(speedup)", "exh states", "greedy states"},
	}
	start := 16
	if s.MaxOps < start {
		start = s.MaxOps
	}
	for n := start; n <= s.MaxOps; n++ {
		ops := optimizer.SyntheticPlan(n, 1)
		t0 := time.Now()
		ex, err := optimizer.ExhaustiveSearch(ops)
		if err != nil {
			return nil, err
		}
		exDur := time.Since(t0)
		t1 := time.Now()
		var gr optimizer.SearchResult
		// The greedy search is so fast that a single call is below
		// timer resolution; amortize over repetitions.
		const reps = 2000
		for i := 0; i < reps; i++ {
			gr, err = optimizer.GreedySearch(ops)
			if err != nil {
				return nil, err
			}
		}
		grDur := time.Since(t1) / reps
		if grDur <= 0 {
			grDur = time.Nanosecond
		}
		speedup := float64(exDur) / float64(grDur)
		t.AddRow(fmt.Sprint(n), fmtDur(exDur), fmtDur(grDur),
			fmt.Sprintf("%.0f", speedup), fmt.Sprintf("%.1f", math.Log2(speedup)),
			fmt.Sprint(ex.Explored), fmt.Sprint(gr.Explored))
	}
	t.Notes = append(t.Notes,
		"paper: exhaustive grows exponentially; CAESAR's greedy search is 2^12-fold faster at 24 operators")
	return t, nil
}

// Fig11b reproduces the L-factor experiment (paper Fig. 11(b)): the
// maximal latency of the optimized (context-window pushed down)
// versus the non-optimized query plan as the number of roads grows,
// and the largest road count each sustains under the latency
// constraint.
func Fig11b(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig11b",
		Title:  "L-factor: max latency vs. number of roads",
		Header: []string{"roads", "optimized", "non-optimized", "opt effort", "non-opt effort"},
	}
	var scales []int
	var optLat, nonLat []time.Duration
	// Best of three trials per point: the non-optimized plan's large
	// pattern state makes single runs GC-noisy.
	best := func(run lrRun) (time.Duration, uint64, error) {
		var lat time.Duration
		var eff uint64
		for trial := 0; trial < 3; trial++ {
			st, err := runLR(run)
			if err != nil {
				return 0, 0, err
			}
			if trial == 0 || st.MaxLatency < lat {
				lat = st.MaxLatency
			}
			eff = effort(st)
		}
		return lat, eff, nil
	}
	for roads := 2; roads <= s.MaxRoads; roads++ {
		// One worker: latency then tracks total work monotonically,
		// which is what the L-factor crossover needs.
		run := lrRun{
			replicas: 3, roads: roads,
			duration: s.LRDuration, segments: s.LRSegments, workers: 1,
		}
		optL, optE, err := best(run)
		if err != nil {
			return nil, err
		}
		run.noPushDown = true
		nonL, nonE, err := best(run)
		if err != nil {
			return nil, err
		}
		scales = append(scales, roads)
		optLat = append(optLat, optL)
		nonLat = append(nonLat, nonL)
		t.AddRow(fmt.Sprint(roads), fmtDur(optL), fmtDur(nonL),
			fmt.Sprint(optE), fmt.Sprint(nonE))
	}
	// The paper's constraint is the benchmark's 5 s on their testbed.
	// Our absolute latencies are different, so the constraint is
	// scaled to the measurement range: the non-optimized latency at
	// two thirds of the road sweep. Under it the non-optimized plan
	// sustains about two thirds of the roads and the optimized plan
	// more — the paper's 7-vs-5 relation at our scale.
	if len(optLat) > 0 {
		constraint := nonLat[(len(nonLat)-1)*2/3] + nonLat[(len(nonLat)-1)*2/3]/20
		lOpt := lFactor(scales, optLat, constraint)
		lNon := lFactor(scales, nonLat, constraint)
		t.Notes = append(t.Notes,
			fmt.Sprintf("constraint %s (scaled stand-in for the benchmark's 5 s): L-factor optimized=%d, non-optimized=%d",
				fmtDur(constraint), lOpt, lNon),
			"paper: optimized sustains 7 roads, non-optimized 5 under the 5 s constraint")
	}
	return t, nil
}
