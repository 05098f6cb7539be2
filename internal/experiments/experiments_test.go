package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny is an even smaller scale than Quick for unit tests.
func tiny() Scale {
	return Scale{
		Name:       "tiny",
		LRDuration: 300,
		LRSegments: 3,
		Workers:    2,
		MaxQueries: 4,
		MaxRoads:   3,
		MaxOps:     17,
		MaxOverlap: 8,
	}
}

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig"+id && id != "summary" {
		t.Errorf("table id = %s", tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Errorf("%s row %d has %d cells, header has %d", id, i, len(r), len(tab.Header))
		}
	}
	return tab
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"10a", "10b", "11a", "11b", "12a", "12b", "12c", "12d", "13", "14a", "14b", "14c", "summary"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestFig10a(t *testing.T) {
	tab := mustRun(t, "10a")
	// One row per segment; every segment has position reports.
	if len(tab.Rows) != tiny().LRSegments {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	sawWarnings := false
	for _, r := range tab.Rows {
		if cellFloat(t, r[1]) <= 0 {
			t.Errorf("segment %s has no reports", r[0])
		}
		if cellFloat(t, r[4]) > 0 {
			sawWarnings = true
			if r[0] != "2" {
				t.Errorf("warnings on non-accident segment %s", r[0])
			}
		}
	}
	if !sawWarnings {
		t.Error("no accident warnings anywhere")
	}
}

func TestFig10b(t *testing.T) {
	tab := mustRun(t, "10b")
	// Warnings only in the scripted accident minutes; real tolls only
	// after the congestion phase begins.
	congMinute := float64(tiny().LRDuration) * 0.4 / 60
	for _, r := range tab.Rows {
		minute := cellFloat(t, r[0])
		real := cellFloat(t, r[3])
		if real > 0 && minute < congMinute-1 {
			t.Errorf("real tolls at minute %v before congestion", minute)
		}
	}
}

func TestFig11a(t *testing.T) {
	tab := mustRun(t, "11a")
	// Exhaustive explored states grow monotonically (exponentially).
	var prev float64
	for i, r := range tab.Rows {
		states := cellFloat(t, r[5])
		if i > 0 && states <= prev {
			t.Errorf("exhaustive states not growing: %v after %v", states, prev)
		}
		prev = states
	}
	// Greedy states stay tiny.
	last := tab.Rows[len(tab.Rows)-1]
	if cellFloat(t, last[6]) > 100 {
		t.Errorf("greedy states = %s", last[6])
	}
}

func TestFig11b(t *testing.T) {
	tab := mustRun(t, "11b")
	// Optimized effort is below non-optimized effort at every scale.
	for _, r := range tab.Rows {
		opt, non := cellFloat(t, r[3]), cellFloat(t, r[4])
		if opt >= non {
			t.Errorf("roads %s: optimized effort %v not below %v", r[0], opt, non)
		}
	}
}

func TestFig12a(t *testing.T) {
	tab := mustRun(t, "12a")
	// CI does strictly more work than CA at every workload size.
	for _, r := range tab.Rows {
		if cellFloat(t, r[4]) <= 1 {
			t.Errorf("queries %s: effort ratio %s not above 1", r[0], r[4])
		}
	}
	// Effort ratio grows with the workload (the CI replication cost).
	first := cellFloat(t, tab.Rows[0][4])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][4])
	if last <= first {
		t.Errorf("effort ratio did not grow: %v -> %v", first, last)
	}
}

func TestFig12c(t *testing.T) {
	tab := mustRun(t, "12c")
	// More suspendable coverage => larger effort ratio: the first row
	// (90% suspendable) must beat the last (25%).
	first := cellFloat(t, tab.Rows[0][5])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][5])
	if first <= last {
		t.Errorf("effort ratio not decreasing with coverage: %v -> %v", first, last)
	}
}

func TestFig12d(t *testing.T) {
	mustRun(t, "12d")
}

func TestFig13(t *testing.T) {
	tab := mustRun(t, "13")
	// Pos-skew windows sit in the low-rate ramp start: they cover
	// fewer events than neg-skew windows, so pos-skew effort is
	// lowest and neg-skew highest.
	for _, r := range tab.Rows {
		pos, neg := cellFloat(t, r[5]), cellFloat(t, r[6])
		if pos >= neg {
			t.Errorf("queries %s: pos-skew effort %v not below neg-skew %v", r[0], pos, neg)
		}
	}
}

func TestFig14a(t *testing.T) {
	tab := mustRun(t, "14a")
	for _, r := range tab.Rows {
		if cellFloat(t, r[5]) <= 1 {
			t.Errorf("windows %s: sharing effort ratio %s not above 1", r[0], r[5])
		}
	}
	// Gain grows with the number of overlapping windows.
	first := cellFloat(t, tab.Rows[0][5])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][5])
	if last <= first {
		t.Errorf("sharing gain did not grow with overlap count: %v -> %v", first, last)
	}
}

func TestFig14b(t *testing.T) {
	tab := mustRun(t, "14b")
	// Gain grows with overlap length.
	first := cellFloat(t, tab.Rows[0][4])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][4])
	if last <= first {
		t.Errorf("sharing gain did not grow with overlap length: %v -> %v", first, last)
	}
}

func TestFig14c(t *testing.T) {
	tab := mustRun(t, "14c")
	for _, r := range tab.Rows {
		if cellFloat(t, r[4]) <= 1 {
			t.Errorf("queries %s: effort ratio %s not above 1", r[0], r[4])
		}
	}
}

func TestSummary(t *testing.T) {
	tab := mustRun(t, "summary")
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "avg" {
		t.Fatalf("no average row: %v", last)
	}
	if cellFloat(t, last[2]) <= 1.5 {
		t.Errorf("average CA/CI effort ratio %s implausibly low", last[2])
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bbbb"},
		Notes:  []string{"note"},
	}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "# note") {
		t.Errorf("print output:\n%s", out)
	}
}

func TestPlacementString(t *testing.T) {
	if Uniform.String() != "uniform" || PosSkew.String() != "poisson-pos-skew" || NegSkew.String() != "poisson-neg-skew" {
		t.Error("placement strings")
	}
}

func TestOverlapSpecGeometry(t *testing.T) {
	o := overlapSpec{Windows: 4, Length: 100, Overlap: 60, QueriesPer: 2, Rate: 2, Workers: 1}
	st := o.starts()
	if len(st) != 4 || st[1]-st[0] != 40 {
		t.Errorf("starts = %v", st)
	}
	if mc := o.maxConcurrent(); mc != 3 {
		t.Errorf("max concurrent = %d, want 3", mc)
	}
	if d := o.duration(); d != st[3]+100+10 {
		t.Errorf("duration = %d", d)
	}
}

func TestFig12b(t *testing.T) {
	tab := mustRun(t, "12b")
	for _, r := range tab.Rows {
		if cellFloat(t, r[4]) <= 1 {
			t.Errorf("roads %s: effort ratio %s not above 1", r[0], r[4])
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	s := tiny()
	s.MaxQueries = 4
	s.MaxOverlap = 4
	s.MaxOps = 16
	var buf bytes.Buffer
	if err := RunAll(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range IDs() {
		if id == "summary" {
			continue
		}
		if !strings.Contains(out, "== fig"+id+":") {
			t.Errorf("RunAll output missing figure %s", id)
		}
	}
}

func TestScalePresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Name != "quick" || f.Name != "full" {
		t.Error("preset names")
	}
	if q.LRDuration >= f.LRDuration || q.MaxQueries >= f.MaxQueries {
		t.Error("quick not smaller than full")
	}
}

func TestWinRatio(t *testing.T) {
	if got := winRatio(80*time.Millisecond, 10*time.Millisecond); got != 8 {
		t.Errorf("win ratio = %g", got)
	}
	if got := winRatio(time.Second, 0); got != 0 {
		t.Errorf("zero contender ratio = %g", got)
	}
}

func TestLFactor(t *testing.T) {
	scales := []int{2, 3, 5, 7, 8}
	lat := []time.Duration{1, 2, 4, 5, 9}
	if got := lFactor(scales, lat, 5); got != 7 {
		t.Errorf("L-factor = %d, want 7", got)
	}
	if got := lFactor(scales, lat, 0); got != 0 {
		t.Errorf("L-factor under impossible constraint = %d", got)
	}
}
