package runtime

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/optimizer"
)

// fig7Src is the paper's Fig. 7 scenario: two overlapping windows
// c1 = (X>10, X>=30) and c2 = (X>20, X>=40) over a monotone attribute
// X, with Q1 shared by both contexts, Q3 only in c1, Q2 only in c2.
const fig7Src = `
EVENT S(x int, v int, seg int)
EVENT R1(v int, seg int)
EVENT R2(v int, seg int)
EVENT R3(v int, seg int)

CONTEXT idle DEFAULT
CONTEXT c1
CONTEXT c2

# The upper bound on the initiate conditions stops re-initiation
# after the window terminates (X is monotone, so "X > 10" alone would
# stay true forever).
INITIATE CONTEXT c1
PATTERN S s
WHERE s.x > 10 AND s.x < 30
CONTEXT idle, c1, c2

TERMINATE CONTEXT c1
PATTERN S s
WHERE s.x >= 30
CONTEXT c1

INITIATE CONTEXT c2
PATTERN S s
WHERE s.x > 20 AND s.x < 40
CONTEXT idle, c1, c2

TERMINATE CONTEXT c2
PATTERN S s
WHERE s.x >= 40
CONTEXT c2

DERIVE R1(s.v, s.seg)
PATTERN S s
WHERE s.v > 0
CONTEXT c1

DERIVE R3(s.v, s.seg)
PATTERN S s
WHERE s.v > 0
CONTEXT c1

DERIVE R1(s.v, s.seg)
PATTERN S s
WHERE s.v > 0
CONTEXT c2

DERIVE R2(s.v, s.seg)
PATTERN S s
WHERE s.v > 0
CONTEXT c2
`

// TestGroupingMatchesRuntimeActivation drives a monotone X stream
// through the shared engine and checks that, for every X strictly
// inside a grouped window, exactly the queries of that group produce
// results — the compile-time grouping of Listing 1 and the runtime's
// union-mask sharing describe the same execution.
func TestGroupingMatchesRuntimeActivation(t *testing.T) {
	m, err := model.CompileSource(fig7Src)
	if err != nil {
		t.Fatal(err)
	}

	// Compile-time view: Listing 1 over the windows extracted from
	// the deriving-query thresholds.
	ws, skipped := optimizer.WindowsFromModel(m)
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	groups, err := optimizer.GroupWindows(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	// Expected result types per grouped window, from the paper:
	// [10,20): {R1,R3}; [20,30): {R1,R2,R3}; [30,40): {R1,R2}.
	wantTypes := []map[string]bool{
		{"R1": true, "R3": true},
		{"R1": true, "R2": true, "R3": true},
		{"R1": true, "R2": true},
	}
	for i, g := range groups {
		got := map[string]bool{}
		for _, q := range g.Queries {
			got[q.Out.Name()] = true
		}
		for ty := range wantTypes[i] {
			if !got[ty] {
				t.Errorf("group %d missing %s", i, ty)
			}
		}
		if len(got) != len(wantTypes[i]) {
			t.Errorf("group %d types = %v, want %v", i, got, wantTypes[i])
		}
	}

	// Runtime view: X advances 1 per second; events inside each
	// grouped window must derive exactly the group's result types.
	eng := newEngine(t, m, Config{
		Sharing:        true,
		PartitionBy:    []string{"seg"},
		Workers:        1,
		CollectOutputs: true,
	})
	sb := &streamBuilder{t: t, m: m}
	// v mirrors x so each output identifies its trigger event.
	for x := int64(0); x <= 50; x++ {
		sb.add("S", event.Time(x), x, x, 7)
	}
	st, err := eng.Run(sb.source())
	if err != nil {
		t.Fatal(err)
	}

	// Transitions take effect for t > trigger, so a window (a, b]
	// derives results for x in (a, b]. Sample strictly inside each
	// group span to avoid boundary ticks.
	perX := map[int64]map[string]bool{}
	for _, e := range st.Outputs {
		v, _ := e.Get("v")
		if perX[v.Int] == nil {
			perX[v.Int] = map[string]bool{}
		}
		perX[v.Int][e.TypeName()] = true
	}
	for i, g := range groups {
		for x := int64(g.Start) + 2; x < int64(g.End); x += 3 {
			got := perX[x]
			for ty := range wantTypes[i] {
				if !got[ty] {
					t.Errorf("x=%d (group %d): missing %s (got %v)", x, i, ty, got)
				}
			}
			for ty := range got {
				if !wantTypes[i][ty] {
					t.Errorf("x=%d (group %d): unexpected %s", x, i, ty)
				}
			}
		}
	}
	// Outside all windows nothing is derived.
	for _, x := range []int64{5, 45, 50} {
		if len(perX[x]) != 0 {
			t.Errorf("x=%d outside windows derived %v", x, perX[x])
		}
	}
	// Sharing collapsed the two R1 queries: each in-window x yields
	// R1 once (CollectOutputs retains every derivation).
	r1 := 0
	for _, e := range st.Outputs {
		if e.TypeName() == "R1" {
			v, _ := e.Get("v")
			if v.Int == 25 {
				r1++
			}
		}
	}
	if r1 != 1 {
		t.Errorf("R1 at x=25 derived %d times, want 1 (shared)", r1)
	}
}
