package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// These tests cover the generator and the harness arithmetic; none of
// them starts a server or runs the benchmark.

func TestSkewChurnSeeds(t *testing.T) {
	a, b, c := genSkewChurn(1), genSkewChurn(1), genSkewChurn(2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same bytes")
	}
}

func TestSkewChurnShape(t *testing.T) {
	s, err := splitTicks(genSkewChurn(1)) // also checks time never goes back
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ticks) != skewTicks || s.events != skewTicks*skewTickEvents {
		t.Fatalf("got %d ticks, %d events", len(s.ticks), s.events)
	}
	perKey := map[string]int{}
	lastSwitch := map[string]int{} // key -> tick of its latest switch
	windows, windowTicks := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(s.data)), "\n") {
		f := strings.Split(line, "|") // Reading|tick|key|val|ctl
		tick, _ := strconv.Atoi(f[1])
		perKey[f[2]]++
		if f[4] != "0" {
			if at, ok := lastSwitch[f[2]]; ok {
				windows++
				windowTicks += tick - at
			}
			lastSwitch[f[2]] = tick
		}
	}
	hottest := 0
	for _, n := range perKey {
		hottest = max(hottest, n)
	}
	if share := float64(hottest) / float64(s.events); share < 0.20 {
		t.Errorf("hottest key has %.1f %% of events, want at least 20 %%", 100*share)
	}
	if mean := float64(windowTicks) / float64(windows); mean < 6 || mean > 10 {
		t.Errorf("context windows last %.1f ticks on average over %d windows, want 6 to 10", mean, windows)
	} else {
		t.Logf("hottest key %.1f %%, %d windows of %.1f ticks on average", 100*float64(hottest)/float64(s.events), windows, mean)
	}
}

// A hand-built stream: ticks at 0, 30 and 60, two events each.
const handStream = "A|0|1\nA|0|2\nA|30|3\nB|30|4\nA|60|5\nA|60|6\n"

func TestSplitTicks(t *testing.T) {
	s, err := splitTicks([]byte(handStream))
	if err != nil {
		t.Fatal(err)
	}
	if s.events != 6 || len(s.ticks) != 3 {
		t.Fatalf("got %d events in %d ticks", s.events, len(s.ticks))
	}
	for i, want := range []string{"A|0|1\nA|0|2\n", "A|30|3\nB|30|4\n", "A|60|5\nA|60|6\n"} {
		if got := string(s.data[s.ticks[i].off:s.ticks[i].end]); got != want {
			t.Errorf("tick %d is %q, want %q", i, got, want)
		}
	}
	if _, err := splitTicks([]byte("A|30|1\nA|0|2\n")); err == nil {
		t.Error("time going back was accepted")
	}
	if _, err := splitTicks([]byte("A|0|1")); err == nil {
		t.Error("a stream without a final newline was accepted")
	}
}

func TestLatencyAttribution(t *testing.T) {
	s, err := splitTicks([]byte(handStream))
	if err != nil {
		t.Fatal(err)
	}
	// A result stamped T is released by the first tick later than T;
	// results of the last tick wait for the half-close, index 3.
	for _, c := range []struct {
		line string
		want int
	}{
		{"Out|0|x", 1}, {"Out|29|x", 1}, {"Out|30|x", 2}, {"Out|59|x", 2},
		{"Out|0~30|x", 2}, // an interval counts by its end
		{"Out|60|x", 3}, {"Out|89|x", 3},
	} {
		_, T, err := lineTime([]byte(c.line))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.closingTick(T); got != c.want {
			t.Errorf("%s closes with tick %d, want %d", c.line, got, c.want)
		}
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	a := digestOf([]byte("X|1|a\nY|1|b\nX|2|c\n"))
	b := digestOf([]byte("X|2|c\nX|1|a\nY|1|b\n"))
	if a.String() != b.String() {
		t.Errorf("order changed the digest:\n%s\n%s", a, b)
	}
	if c := digestOf([]byte("X|1|a\nY|1|b\nX|2|d\n")); c.String() == a.String() {
		t.Error("a changed line kept the digest")
	}
	if c := digestOf([]byte("X|1|a\nY|1|b\n")); c.String() == a.String() {
		t.Error("a missing line kept the digest")
	}
	if !strings.Contains(a.String(), "lines=3 X=2 Y=1") {
		t.Errorf("per-type counts missing from %q", a)
	}
}

func TestSummarize(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 10; i >= 1; i-- {
		v = append(v, float64(i))
	}
	s := summarize(v, "ms", "lower")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
	if worseBy(100, 90, "higher") <= 0 || worseBy(100, 90, "lower") >= 0 {
		t.Error("worseBy has the direction wrong")
	}
}

// BENCHMARK.json and the driver must name the same workloads, and the
// gated run must produce every end-to-end metric it lists.
func TestDefinitionMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	var def definition
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, w.Name, workloads[i].name)
		}
	}
	measured := map[string]bool{"events_per_s": true, "cpu_ns_per_event": true, "latency_p99_ms": true, "setup_s": true}
	for _, m := range def.EndToEnd {
		if !measured[m.Name] {
			t.Errorf("BENCHMARK.json gates %q, which the gated run does not measure", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
