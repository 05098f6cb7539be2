package experiments

import (
	"fmt"

	"github.com/caesar-cep/caesar/internal/linearroad"
)

// criticalScript reproduces the §7.3.1 workload setup: two critical
// non-overlapping context windows (3 minutes each in the paper's 3 h
// stream, proportionally scaled here). The replicated query workload
// is active only inside them and suspendable everywhere else.
func criticalScript(duration int64) linearroad.Script {
	length := duration / 10
	if length < 120 {
		length = 120
	}
	return linearroad.UniformWindows(duration, 2, length, linearroad.Congestion)
}

// Fig12a reproduces "scaling event query workload" (paper Fig.
// 12(a)): maximal latency of context-aware versus context-independent
// processing as the number of event queries grows, on both the Linear
// Road (LR) and physical activity monitoring (PAM) workloads.
func Fig12a(s Scale) (*Table, error) {
	t := &Table{
		ID:    "fig12a",
		Title: "Max latency vs. event query workload (CA vs. CI)",
		Header: []string{"queries", "LR CA", "LR CI", "LR win", "LR effort ratio",
			"PAM CA", "PAM CI", "PAM win"},
	}
	for q := 2; q <= s.MaxQueries; q += 2 {
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
		pca, err := runPAM(q, false, s.LRDuration, s.Workers)
		if err != nil {
			return nil, err
		}
		pci, err := runPAM(q, true, s.LRDuration, s.Workers)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(q),
			fmtDur(ca.MaxLatency), fmtDur(ci.MaxLatency),
			fmtRatio(winRatio(ci.MaxLatency, ca.MaxLatency)),
			fmtRatio(float64(effort(ci))/float64(effort(ca))),
			fmtDur(pca.MaxLatency), fmtDur(pci.MaxLatency),
			fmtRatio(winRatio(pci.MaxLatency, pca.MaxLatency)))
	}
	t.Notes = append(t.Notes,
		"paper: CA ~8x faster than CI at 10 queries (LR); same win at 20 queries (PAM)")
	return t, nil
}

// Fig12b reproduces "varying event stream rates" (paper Fig. 12(b)):
// maximal latency of CA vs. CI as the number of roads grows.
func Fig12b(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig12b",
		Title:  "Max latency vs. event stream rate (number of roads)",
		Header: []string{"roads", "CA", "CI", "win ratio", "effort ratio"},
	}
	for roads := 2; roads <= min(s.MaxRoads, 7); roads++ {
		ca, err := runLR(lrRun{
			replicas: 6, roads: roads,
			script:   criticalScript(s.LRDuration),
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		ci, err := runLR(lrRun{
			replicas: 6, roads: roads, baseline: true,
			script:   criticalScript(s.LRDuration),
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(roads), fmtDur(ca.MaxLatency), fmtDur(ci.MaxLatency),
			fmtRatio(winRatio(ci.MaxLatency, ca.MaxLatency)),
			fmtRatio(float64(effort(ci))/float64(effort(ca))))
	}
	t.Notes = append(t.Notes, "paper: CA 9x faster than CI at 7 roads")
	return t, nil
}

// coverageScript builds a Script whose critical (congestion) windows
// cover the given fraction of the run, split into n windows; outside
// them the complex workload is suspendable. It returns the script,
// the effective per-window length (clamped to one SegStat period so
// the deriving queries can observe the window), and the suspendable
// stream fraction.
func coverageScript(duration int64, n int, covered float64) (linearroad.Script, int64, float64) {
	if n < 1 {
		n = 1
	}
	length := int64(covered * float64(duration) / float64(n))
	if length < 60 {
		length = 60
	}
	suspendable := 1 - float64(length*int64(n))/float64(duration)
	return linearroad.UniformWindows(duration, n, length, linearroad.Congestion), length, suspendable
}

// Fig12c reproduces "varying context window lengths" (paper Fig.
// 12(c)): the win ratio of CA over CI as the critical windows grow,
// annotated with the percentage of the stream during which the
// complex workload may be suspended.
func Fig12c(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig12c",
		Title:  "Win ratio vs. context window length",
		Header: []string{"window len (s)", "suspendable %", "CA", "CI", "win ratio", "effort ratio"},
	}
	const windows = 2
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75} {
		script, length, suspendable := coverageScript(s.LRDuration, windows, frac)
		ca, err := runLR(lrRun{
			replicas: 6, roads: 1, script: script,
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		ci, err := runLR(lrRun{
			replicas: 6, roads: 1, baseline: true, script: script,
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(length),
			fmt.Sprintf("%.0f%%", 100*suspendable),
			fmtDur(ca.MaxLatency), fmtDur(ci.MaxLatency),
			fmtRatio(winRatio(ci.MaxLatency, ca.MaxLatency)),
			fmtRatio(float64(effort(ci))/float64(effort(ca))))
	}
	t.Notes = append(t.Notes,
		"paper: win ratio exceeds 3 when suspendable coverage exceeds 80%, ~1 below 50%")
	return t, nil
}

// Fig12d reproduces "varying the number of context windows" (paper
// Fig. 12(d)): the win ratio as the number of critical windows grows
// at fixed per-window length.
func Fig12d(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig12d",
		Title:  "Win ratio vs. number of context windows",
		Header: []string{"windows", "suspendable %", "CA", "CI", "win ratio", "effort ratio"},
	}
	length := s.LRDuration / 20
	if length < 60 {
		length = 60
	}
	for _, n := range []int{1, 2, 4, 6} {
		script := linearroad.UniformWindows(s.LRDuration, n, length, linearroad.Congestion)
		suspendable := 1 - float64(length*int64(n))/float64(s.LRDuration)
		ca, err := runLR(lrRun{
			replicas: 6, roads: 1, script: script,
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		ci, err := runLR(lrRun{
			replicas: 6, roads: 1, baseline: true, script: script,
			duration: s.LRDuration, segments: s.LRSegments, workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.0f%%", 100*suspendable),
			fmtDur(ca.MaxLatency), fmtDur(ci.MaxLatency),
			fmtRatio(winRatio(ci.MaxLatency, ca.MaxLatency)),
			fmtRatio(float64(effort(ci))/float64(effort(ca))))
	}
	t.Notes = append(t.Notes,
		"paper: win ratio exceeds 2 above 80% suspendable coverage, ~1 below 50%")
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
