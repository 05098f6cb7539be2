package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// definition is BENCHMARK.json: what the benchmark measures and by
// how much each end-to-end metric may worsen.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDefinition(e *env) (*definition, error) {
	b, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func (d *definition) bound(metric string) (float64, bool) {
	for _, m := range d.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}

type options struct {
	seed    int64
	seconds int
	traced  bool
}

// stamp records where and on what a result file was measured, so two
// files can be told comparable or not.
type stamp struct {
	CPU        string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	UTC        string `json:"utc"`
	Seed       int64  `json:"seed"`
	RunSeconds int    `json:"run_s"`
	Traced     bool   `json:"traced"`
}

func newStamp(e *env, o options) stamp {
	s := stamp{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", UTC: time.Now().UTC().Format("20060102T150405Z"),
		Seed: o.seed, RunSeconds: o.seconds, Traced: o.traced,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout exported without its history has no commit to name.
	cmd := exec.Command("git", "-C", e.root, "rev-parse", "--short=12", "HEAD")
	if out, err := cmd.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

// resultFile is what every run leaves under benchmark/results.
type resultFile struct {
	Stamp   stamp     `json:"stamp"`
	Results []*result `json:"results"`
}

// save writes the file under a name that is never reused.
func (f *resultFile) save(e *env) (string, error) {
	dir := e.dir("results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	base := filepath.Join(dir, f.Stamp.Commit+"-"+f.Stamp.UTC)
	for n := 0; ; n++ {
		path := base + ".json"
		if n > 0 {
			path = fmt.Sprintf("%s-%d.json", base, n)
		}
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, err = file.Write(append(b, '\n'))
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		return path, err
	}
}

// printResult lists every metric of a result by name, with its unit.
func printResult(r *result, def *definition) {
	fmt.Printf("workload %s (seed %d)\n", r.Workload, r.Seed)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		gate := "not gated"
		if b, ok := def.bound(name); ok {
			gate = fmt.Sprintf("may worsen by %.0f %%", 100*b)
		}
		spread := "measured once"
		if m.N > 1 {
			spread = fmt.Sprintf("IQR %.6g..%.6g (%.1f %% of median) over %d", m.Q1, m.Q3, 100*m.spread(), m.N)
		}
		fmt.Printf("  %-30s %14.6g %-6s  %s  [%s is better, %s]\n", name, m.Median, m.Unit, spread, m.Better, gate)
	}
	for _, name := range sortedKeys(r.Notes) {
		fmt.Printf("  %-30s %14.6g\n", name, r.Notes[name])
	}
	for _, name := range sortedKeys(r.Text) {
		fmt.Printf("  %-30s %s\n", name, r.Text[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runWorkload measures one workload, gated or traced.
func runWorkload(e *env, def *definition, w *workload, o options) (*result, error) {
	if o.traced {
		return measureTraced(e, def, w, o)
	}
	return measure(e, w, o.seed, o.seconds)
}

// lastLine is the one-line result the contract of BENCHMARK.json
// asks for: the end-to-end metrics of a gated run, the per-layer
// metrics of a traced one.
func lastLine(r *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{r.Metrics[d.Name].Median, d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// runOne is the mode the benchmark's contract drives: one workload,
// ending in the one-line JSON result.
func runOne(e *env, def *definition, name string, o options) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(e, def, w, o)
	if err != nil {
		return err
	}
	printResult(r, def)
	f := &resultFile{Stamp: newStamp(e, o), Results: []*result{r}}
	if path, err := f.save(e); err != nil {
		e.logf("result file not written: %v", err)
	} else {
		fmt.Printf("result file %s\n", path)
	}
	defs := def.EndToEnd
	if o.traced {
		defs = def.PerLayer
	}
	fmt.Println(lastLine(r, defs))
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d events belong to passes that failed verification", name, r.Failed, r.Attempted)
	}
	return nil
}

// runSuite measures all six workloads in turn and prints the
// context-aware win ratio the paper leads with.
func runSuite(e *env, def *definition, o options) (*resultFile, error) {
	f := &resultFile{Stamp: newStamp(e, o)}
	fmt.Printf("stamp %+v\n", f.Stamp)
	failed := 0
	by := map[string]*result{}
	for i := range workloads {
		r, err := runWorkload(e, def, &workloads[i], o)
		if err != nil {
			return nil, err
		}
		printResult(r, def)
		f.Results = append(f.Results, r)
		by[r.Workload] = r
		failed += r.Failed
	}
	if !o.traced {
		ca, ci := by["toll"].Metrics["events_per_s"].Median, by["toll-ci"].Metrics["events_per_s"].Median
		fmt.Printf("ca_win_ratio %.3f  (toll %.0f events/s / toll-ci %.0f events/s; reported, not gated)\n", ca/ci, ca, ci)
	}
	path, err := f.save(e)
	if err != nil {
		return nil, err
	}
	fmt.Printf("result file %s\n", path)
	if failed > 0 {
		return f, fmt.Errorf("%d events belong to passes that failed verification", failed)
	}
	return f, nil
}

// compareRows prints one row per workload and gated metric.
func compareRows(def *definition, a, b *resultFile) (worse, better, unresolved int) {
	fmt.Printf("A: %+v\nB: %+v\n", a.Stamp, b.Stamp)
	if a.Stamp.CPU != b.Stamp.CPU || a.Stamp.Cores != b.Stamp.Cores || a.Stamp.RunSeconds != b.Stamp.RunSeconds {
		fmt.Println("warning: the two files were not measured on the same hardware and run length")
	}
	bres := map[string]*result{}
	for _, r := range b.Results {
		bres[r.Workload] = r
	}
	fmt.Printf("%-13s %-15s %14s %7s %4s %14s %7s %4s %8s %6s  %s\n",
		"workload", "metric", "A median", "A IQR%", "n", "B median", "B IQR%", "n", "B worse%", "bound%", "verdict")
	for _, ra := range a.Results {
		rb := bres[ra.Workload]
		if rb == nil {
			continue
		}
		for _, m := range def.EndToEnd {
			ma, mb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			by := worseBy(ma.Median, mb.Median, m.Better)
			verdict := "same"
			switch {
			case max(ma.medianSpread(), mb.medianSpread()) > m.Bound:
				// The medians are not known to within the bound, so the
				// row can show neither a regression nor its absence.
				verdict = "unresolved"
				unresolved++
			case by > m.Bound:
				verdict = "WORSE"
				worse++
			case -by > m.Bound:
				verdict = "better"
				better++
			}
			fmt.Printf("%-13s %-15s %14.6g %7.1f %4d %14.6g %7.1f %4d %8.1f %6.0f  %s\n",
				ra.Workload, m.Name, ma.Median, 100*ma.spread(), ma.N, mb.Median, 100*mb.spread(), mb.N,
				100*by, 100*m.Bound, verdict)
		}
	}
	return worse, better, unresolved
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(def *definition, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	compareRows(def, a, b)
	return nil
}

// selfCheck runs the suite twice on one build; the benchmark is only
// usable if it then agrees with itself within its own bounds.
func selfCheck(e *env, def *definition, o options) error {
	o.traced = false
	a, err := runSuite(e, def, o)
	if err != nil {
		return err
	}
	b, err := runSuite(e, def, o)
	if err != nil {
		return err
	}
	worse, better, unresolved := compareRows(def, a, b)
	if worse+better+unresolved > 0 {
		return fmt.Errorf("selfcheck: %d rows disagree beyond their bound, %d have a spread wider than it", worse+better, unresolved)
	}
	fmt.Println("selfcheck: the two runs agree within the bound on every gated row")
	return nil
}

// regenGolden rewrites the committed references of one seed. It
// writes nothing for a workload unless both shard counts return the
// same multiset.
func regenGolden(e *env, seed int64) error {
	for i := range workloads {
		j, err := newJob(e, &workloads[i], seed)
		if err != nil {
			return err
		}
		ref, err := j.crossCheck()
		if err != nil {
			return fmt.Errorf("%s: refusing to write a golden file: %w", j.w.name, err)
		}
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(j.goldenPath()), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(j.goldenPath(), append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %s\n", j.goldenPath(), ref.Output)
	}
	return nil
}
