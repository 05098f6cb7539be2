package experiments

import (
	"fmt"
	"strings"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/pam"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// overlapSpec parameterizes the synthetic overlapping-context-window
// workload of §7.3.2 (paper defaults: 30 windows of 15 minutes each,
// overlapping by 10 minutes, 4 event queries per window).
type overlapSpec struct {
	// Windows is the number of context types/windows.
	Windows int
	// Length is each window's duration in seconds.
	Length int64
	// Overlap is the length shared by consecutive windows.
	Overlap int64
	// QueriesPer is the (identical, shareable) workload per window.
	QueriesPer int
	// Rate is the number of data events per second.
	Rate    int
	Workers int
}

// modelSource renders the CAESAR model: one context per window, all
// initiated/terminated by control events, each carrying the same
// QueriesPer join queries (identical across contexts, so the sharing
// optimizer can merge them).
func (o overlapSpec) modelSource() string {
	var b strings.Builder
	b.WriteString(`EVENT W(seg int, idx int, op int)
EVENT P(seg int, v int, sec int)
EVENT R(seg int, v int, q int)

CONTEXT idle DEFAULT
`)
	for i := 0; i < o.Windows; i++ {
		fmt.Fprintf(&b, "CONTEXT k%d\n", i)
	}
	all := make([]string, 0, o.Windows+1)
	all = append(all, "idle")
	for i := 0; i < o.Windows; i++ {
		all = append(all, fmt.Sprintf("k%d", i))
	}
	for i := 0; i < o.Windows; i++ {
		fmt.Fprintf(&b, `
INITIATE CONTEXT k%d
PATTERN W w
WHERE w.idx = %d AND w.op = 1
CONTEXT %s
`, i, i, strings.Join(all, ", "))
		fmt.Fprintf(&b, `
TERMINATE CONTEXT k%d
PATTERN W w
WHERE w.idx = %d AND w.op = 0
CONTEXT k%d
`, i, i, i)
		for j := 0; j < o.QueriesPer; j++ {
			fmt.Fprintf(&b, `
DERIVE R(p2.seg, p2.v, %d)
PATTERN SEQ(P p1, P p2)
WHERE p1.v = p2.v AND p2.sec = p1.sec + 1 AND p2.v >= %d
WITHIN 5
CONTEXT k%d
`, j, j, i)
		}
	}
	return b.String()
}

// starts returns each window's start time: consecutive windows are
// staggered by Length-Overlap.
func (o overlapSpec) starts() []int64 {
	gap := o.Length - o.Overlap
	if gap < 1 {
		gap = 1
	}
	out := make([]int64, o.Windows)
	for i := range out {
		out[i] = int64(i) * gap
	}
	return out
}

// duration is the stream length covering all windows plus margin.
func (o overlapSpec) duration() int64 {
	st := o.starts()
	return st[len(st)-1] + o.Length + 10
}

// maxConcurrent reports the peak number of simultaneously open
// windows (the paper's "number of overlapping context windows").
func (o overlapSpec) maxConcurrent() int {
	st := o.starts()
	best := 0
	for _, s := range st {
		n := 0
		for _, s2 := range st {
			if s2 <= s && s < s2+o.Length {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// stream builds the control + data stream against the model registry.
func (o overlapSpec) stream(reg *event.Registry) ([]*event.Event, error) {
	w, ok := reg.Lookup("W")
	if !ok {
		return nil, fmt.Errorf("experiments: registry lacks W")
	}
	p, ok := reg.Lookup("P")
	if !ok {
		return nil, fmt.Errorf("experiments: registry lacks P")
	}
	var evs []*event.Event
	for i, s := range o.starts() {
		evs = append(evs,
			event.MustNew(w, event.Time(s), event.Int64(0), event.Int64(int64(i)), event.Int64(1)),
			event.MustNew(w, event.Time(s+o.Length), event.Int64(0), event.Int64(int64(i)), event.Int64(0)))
	}
	d := o.duration()
	for t := int64(0); t < d; t++ {
		for v := 0; v < o.Rate; v++ {
			evs = append(evs, event.MustNew(p, event.Time(t),
				event.Int64(0), event.Int64(int64(v)), event.Int64(t)))
		}
	}
	event.SortByTime(evs)
	return evs, nil
}

// run executes the workload with or without sharing.
func (o overlapSpec) run(sharing bool) (*runtime.Stats, error) {
	m, err := model.CompileSource(o.modelSource())
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(m, core.Config{
		Sharing:     sharing,
		PartitionBy: []string{"seg"},
		Workers:     o.Workers,
	})
	if err != nil {
		return nil, err
	}
	evs, err := o.stream(m.Registry)
	if err != nil {
		return nil, err
	}
	return eng.Run(event.NewSliceSource(evs))
}

func (o overlapSpec) compare() (shared, nonShared *runtime.Stats, err error) {
	shared, err = o.run(true)
	if err != nil {
		return nil, nil, err
	}
	nonShared, err = o.run(false)
	if err != nil {
		return nil, nil, err
	}
	return shared, nonShared, nil
}

// baseOverlap derives the scaled default workload from the paper's
// "30 windows x 15 min, overlapping by 10 min, 4 queries each".
func baseOverlap(s Scale) overlapSpec {
	return overlapSpec{
		Windows:    min(10, s.MaxOverlap),
		Length:     270,
		Overlap:    240,
		QueriesPer: 4,
		Rate:       12,
		Workers:    s.Workers,
	}
}

// Fig14a reproduces "varying the number of overlapping context
// windows" (paper Fig. 14(a)): shared versus non-shared maximal
// latency as the peak overlap grows.
func Fig14a(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig14a",
		Title:  "Shared vs. non-shared: number of overlapping windows",
		Header: []string{"windows", "max concurrent", "shared", "non-shared", "win ratio", "effort ratio"},
	}
	for n := 4; n <= s.MaxOverlap; n += 4 {
		o := baseOverlap(s)
		o.Windows = n
		// Keep every window overlapping its neighbors regardless of
		// count: constant stagger, so concurrency grows with n.
		o.Length = 30 * int64(n)
		o.Overlap = o.Length - 20
		sh, non, err := o.compare()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(o.maxConcurrent()),
			fmtDur(sh.MaxLatency), fmtDur(non.MaxLatency),
			fmtRatio(winRatio(non.MaxLatency, sh.MaxLatency)),
			fmtRatio(float64(non.InstanceExecs)/float64(sh.InstanceExecs)))
	}
	t.Notes = append(t.Notes, "paper: sharing wins 10x when 45 windows overlap")
	return t, nil
}

// Fig14b reproduces "varying the length of context window overlap"
// (paper Fig. 14(b)).
func Fig14b(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig14b",
		Title:  "Shared vs. non-shared: overlap length",
		Header: []string{"overlap (s)", "shared", "non-shared", "win ratio", "effort ratio"},
	}
	for _, overlap := range []int64{0, 60, 120, 180, 240} {
		o := baseOverlap(s)
		o.Overlap = overlap
		sh, non, err := o.compare()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(overlap),
			fmtDur(sh.MaxLatency), fmtDur(non.MaxLatency),
			fmtRatio(winRatio(non.MaxLatency, sh.MaxLatency)),
			fmtRatio(float64(non.InstanceExecs)/float64(sh.InstanceExecs)))
	}
	t.Notes = append(t.Notes,
		"paper: the gain grows linearly with overlap; 6x at 15 min overlap of 30 windows")
	return t, nil
}

// Fig14c reproduces "shared workload size" (paper Fig. 14(c)): shared
// versus non-shared as the per-window query workload grows, on the
// synthetic LR-like workload and on PAM (paper runs both).
func Fig14c(s Scale) (*Table, error) {
	t := &Table{
		ID:     "fig14c",
		Title:  "Shared vs. non-shared: shared workload size",
		Header: []string{"queries/window", "shared", "non-shared", "win ratio", "effort ratio", "PAM shared", "PAM non-shared"},
	}
	for q := 2; q <= min(10, s.MaxQueries); q += 2 {
		o := baseOverlap(s)
		o.QueriesPer = q
		sh, non, err := o.compare()
		if err != nil {
			return nil, err
		}
		psh, pnon, err := pamSharing(q, s)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(q),
			fmtDur(sh.MaxLatency), fmtDur(non.MaxLatency),
			fmtRatio(winRatio(non.MaxLatency, sh.MaxLatency)),
			fmtRatio(float64(effort(non))/float64(effort(sh))),
			fmtDur(psh.MaxLatency), fmtDur(pnon.MaxLatency))
	}
	t.Notes = append(t.Notes, "paper: sharing wins 9x at 10 shareable queries per window (LR)")
	return t, nil
}

// pamSharing runs the activity workload with a query set duplicated
// across the exercising and peak contexts so sharing has material to
// merge.
func pamSharing(queriesPer int, s Scale) (shared, nonShared *runtime.Stats, err error) {
	var b strings.Builder
	b.WriteString(pam.ModelSource(1))
	for j := 0; j < queriesPer; j++ {
		for _, ctx := range []string{"exercising", "peak"} {
			fmt.Fprintf(&b, `
DERIVE Summary(r.subj, r.cadence, r.sec, %d)
PATTERN Reading r
WHERE r.cadence >= %d
CONTEXT %s
`, 2000+j, 40+j, ctx)
		}
	}
	src := b.String()
	run := func(sharing bool) (*runtime.Stats, error) {
		m, err := model.CompileSource(src)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(m, core.Config{
			Sharing:     sharing,
			PartitionBy: pam.PartitionBy(),
			Workers:     s.Workers,
		})
		if err != nil {
			return nil, err
		}
		cfg := pam.DefaultConfig()
		cfg.Duration = s.LRDuration
		evs, err := pam.Generate(cfg, m.Registry)
		if err != nil {
			return nil, err
		}
		return eng.Run(event.NewSliceSource(evs))
	}
	shared, err = run(true)
	if err != nil {
		return nil, nil, err
	}
	nonShared, err = run(false)
	if err != nil {
		return nil, nil, err
	}
	return shared, nonShared, nil
}
