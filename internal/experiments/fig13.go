package experiments

import (
	"fmt"

	"github.com/caesar-cep/caesar/internal/linearroad"
)

// Placement positions the critical context windows over the run
// (paper Fig. 13): uniformly, clustered at the start (Poisson with
// positive skew — lambda at the first second), or clustered at the
// end (negative skew — lambda at the last second).
type Placement int

const (
	// Uniform spreads windows evenly.
	Uniform Placement = iota
	// PosSkew clusters windows at the beginning of the run, where
	// the ramping stream rate is still low.
	PosSkew
	// NegSkew clusters windows at the end, where the rate peaks.
	NegSkew
)

func (p Placement) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case PosSkew:
		return "poisson-pos-skew"
	case NegSkew:
		return "poisson-neg-skew"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// placementScript builds the window schedule: n windows of the given
// length, placed per the distribution. Clustered placements pack the
// windows back to back at the respective end of the run.
func placementScript(duration int64, n int, length int64, p Placement) linearroad.Script {
	starts := make([]int64, 0, n)
	switch p {
	case Uniform:
		return linearroad.UniformWindows(duration, n, length, linearroad.Congestion)
	case PosSkew:
		for i := 0; i < n; i++ {
			starts = append(starts, int64(i)*length)
		}
	case NegSkew:
		for i := 0; i < n; i++ {
			s := duration - int64(n-i)*length
			if s < 0 {
				s = 0
			}
			starts = append(starts, s)
		}
	}
	return linearroad.WindowsAt(starts, length, linearroad.Congestion)
}

// Fig13 reproduces "evaluating diverse context window distributions"
// (paper Fig. 13): maximal context-aware latency as the query
// workload grows, under the three window placements. The stream rate
// ramps up over the run, so placement decides how many events the
// critical windows cover.
func Fig13(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Max latency vs. queries under window placement distributions",
		Header: []string{"queries", "uniform", "pos-skew", "neg-skew", "uniform effort", "pos effort", "neg effort"},
	}
	const windows = 2
	length := s.LRDuration / 10
	if length < 60 {
		length = 60
	}
	for q := 4; q <= s.MaxQueries; q += 4 {
		row := []string{fmt.Sprint(q)}
		var efforts []string
		for _, p := range []Placement{Uniform, PosSkew, NegSkew} {
			st, err := runLR(lrRun{
				replicas: q, roads: 1,
				script:   placementScript(s.LRDuration, windows, length, p),
				duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(st.MaxLatency))
			efforts = append(efforts, fmt.Sprint(effort(st)))
		}
		row = append(row, efforts...)
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: at 20 queries, uniform is 1.8x faster than pos-skew and 11x slower than neg-skew",
		"mechanism here: the event rate ramps up, so windows at the start cover the fewest events")
	return t, nil
}
