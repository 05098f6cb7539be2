package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one figure.
type Runner func(Scale) (*Table, error)

// Registry maps figure ids to runners.
var registry = map[string]Runner{
	"10a":     Fig10a,
	"10b":     Fig10b,
	"11a":     Fig11a,
	"11b":     Fig11b,
	"12a":     Fig12a,
	"12b":     Fig12b,
	"12c":     Fig12c,
	"12d":     Fig12d,
	"13":      Fig13,
	"14a":     Fig14a,
	"14b":     Fig14b,
	"14c":     Fig14c,
	"summary": Summary,
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run regenerates one figure by id.
func Run(id string, s Scale) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return r(s)
}

// RunAll regenerates every figure and prints each as it completes.
func RunAll(s Scale, w io.Writer) error {
	for _, id := range IDs() {
		t, err := Run(id, s)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		t.Print(w)
	}
	return nil
}

// Summary reproduces the paper's headline claim: context-aware
// processing is on average ~8x faster than context-independent
// processing. It averages the win ratio over a spread of workload
// sizes.
func Summary(s Scale) (*Table, error) {
	t := &Table{
		ID:     "summary",
		Title:  "Headline: average win of CA over CI",
		Header: []string{"queries", "win ratio (latency)", "effort ratio"},
	}
	var latSum, effSum float64
	var n int
	for q := 4; q <= s.MaxQueries; q += 4 {
		ca, err := runLR(lrRun{
			replicas: q, roads: 1,
			script:   criticalScript(s.LRDuration),
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		ci, err := runLR(lrRun{
			replicas: q, roads: 1, baseline: true,
			script:   criticalScript(s.LRDuration),
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		win := winRatio(ci.MaxLatency, ca.MaxLatency)
		eff := float64(effort(ci)) / float64(effort(ca))
		latSum += win
		effSum += eff
		n++
		t.AddRow(fmt.Sprint(q), fmtRatio(win), fmtRatio(eff))
	}
	if n > 0 {
		t.AddRow("avg", fmtRatio(latSum/float64(n)), fmtRatio(effSum/float64(n)))
	}
	t.Notes = append(t.Notes, "paper: 8-fold faster on average than the context-independent solution")
	return t, nil
}
