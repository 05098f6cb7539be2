package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
)

// trafficSrc is a compact traffic model: context transitions are
// driven by Trigger control events per segment; toll derivation is
// the two-query combined plan of paper Fig. 3.
const trafficSrc = `
EVENT Trigger(seg int, mode int)
EVENT PositionReport(vid int, seg int, lane int, sec int)
EVENT NewCar(vid int, seg int, sec int)
EVENT Toll(vid int, seg int, toll int)
EVENT Warn(vid int, seg int)

CONTEXT clear DEFAULT
CONTEXT congestion
CONTEXT accident

SWITCH CONTEXT congestion
PATTERN Trigger t
WHERE t.mode = 1
CONTEXT clear

SWITCH CONTEXT clear
PATTERN Trigger t
WHERE t.mode = 0
CONTEXT congestion

INITIATE CONTEXT accident
PATTERN Trigger t
WHERE t.mode = 2
CONTEXT clear, congestion

TERMINATE CONTEXT accident
PATTERN Trigger t
WHERE t.mode = 3
CONTEXT accident

DERIVE NewCar(p2.vid, p2.seg, p2.sec)
PATTERN SEQ(NOT PositionReport p1, PositionReport p2)
WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != 4
CONTEXT congestion

DERIVE Toll(c.vid, c.seg, 5)
PATTERN NewCar c
CONTEXT congestion

DERIVE Warn(p.vid, p.seg)
PATTERN PositionReport p
WHERE p.lane != 4
CONTEXT accident
`

type streamBuilder struct {
	t   testing.TB
	m   *model.Model
	evs []*event.Event
}

func (sb *streamBuilder) add(typ string, ts event.Time, vals ...int64) *streamBuilder {
	s, ok := sb.m.Registry.Lookup(typ)
	if !ok {
		sb.t.Fatalf("no schema %s", typ)
	}
	values := make([]event.Value, len(vals))
	for i, v := range vals {
		values[i] = event.Int64(v)
	}
	sb.evs = append(sb.evs, event.MustNew(s, ts, values...))
	return sb
}

func (sb *streamBuilder) source() *event.SliceSource {
	event.SortByTime(sb.evs)
	return event.NewSliceSource(sb.evs)
}

// newEngine builds the plan cfg's strategy selects and an engine
// executing it.
func newEngine(t testing.TB, m *model.Model, cfg Config) *Engine {
	t.Helper()
	p, err := plan.Build(m, cfg.PlanOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// buildEngine compiles src and runs it partitioned by segment,
// context-independently when baseline is set.
func buildEngine(t testing.TB, src string, baseline, sharing bool, workers int) (*Engine, *model.Model) {
	t.Helper()
	m, err := model.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(t, m, Config{
		ContextIndependent: baseline,
		Sharing:            sharing,
		PartitionBy:        []string{"seg"},
		Workers:            workers,
		CollectOutputs:     true,
	}), m
}

// trafficStream builds the canonical test stream: segment 1 becomes
// congested at t=1; cars 10 and 11 report; accident at t=100; clear
// of congestion at t=130; accident over at t=160.
func trafficStream(t testing.TB, m *model.Model) *event.SliceSource {
	sb := &streamBuilder{t: t, m: m}
	sb.add("Trigger", 1, 1, 1) // seg 1 congested
	// Car 10 reports at 31 (new), 61 (has predecessor).
	sb.add("PositionReport", 31, 10, 1, 0, 31)
	sb.add("PositionReport", 61, 10, 1, 0, 61)
	// Car 11 on exit lane: never tolled.
	sb.add("PositionReport", 61, 11, 1, 4, 61)
	// Accident at t=100 (overlaps congestion).
	sb.add("Trigger", 100, 1, 2)
	sb.add("PositionReport", 121, 12, 1, 1, 121) // new car + warned
	// Congestion ends.
	sb.add("Trigger", 130, 1, 0)
	sb.add("PositionReport", 151, 13, 1, 1, 151) // accident only: warn, no toll
	sb.add("Trigger", 160, 1, 3)                 // accident over
	sb.add("PositionReport", 181, 14, 1, 1, 181) // clear: nothing
	return sb.source()
}

func outputsByType(st *Stats, typ string) []*event.Event {
	var out []*event.Event
	for _, e := range st.Outputs {
		if e.TypeName() == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestContextAwareTrafficEndToEnd(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 2)
	st, err := eng.Run(trafficStream(t, m))
	if err != nil {
		t.Fatal(err)
	}
	tolls := outputsByType(st, "Toll")
	// Tolls: car 10 at 31, car 12 at 121 (car 13 arrives after the
	// congestion window closed, car 11 is on the exit lane).
	if len(tolls) != 2 {
		t.Fatalf("tolls = %v", tolls)
	}
	if tolls[0].At(0).Int != 10 || tolls[1].At(0).Int != 12 {
		t.Errorf("toll vids = %v", tolls)
	}
	warns := outputsByType(st, "Warn")
	// Warnings during the accident window (100,160]: cars 12 and 13.
	if len(warns) != 2 || warns[0].At(0).Int != 12 || warns[1].At(0).Int != 13 {
		t.Fatalf("warns = %v", warns)
	}
	// switch to congestion = term clear + init congestion (2);
	// initiate accident (1); switch to clear = term congestion +
	// init clear (2); terminate accident (1).
	if st.Transitions != 6 {
		t.Errorf("transitions = %d, want 6", st.Transitions)
	}
	if st.SuspendedSkips == 0 {
		t.Error("no plans were ever suspended")
	}
	if st.Events != 10 || st.OutputCount == 0 || st.Partitions != 1 {
		t.Errorf("stats = %+v", st)
	}
	// NewCar: car 10 at 31 and car 12 at 121 (car 10 at 61 has a
	// predecessor; car 13 arrives after the congestion window).
	if st.PerType["Toll"] != 2 || st.PerType["Warn"] != 2 || st.PerType["NewCar"] != 2 {
		t.Errorf("per-type = %v", st.PerType)
	}
}

func TestPartitionIsolation(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 3)
	sb := &streamBuilder{t: t, m: m}
	sb.add("Trigger", 1, 1, 1)                 // seg 1 congested
	sb.add("PositionReport", 31, 10, 1, 0, 31) // seg 1: toll
	sb.add("PositionReport", 31, 20, 2, 0, 31) // seg 2 clear: no toll
	st, err := eng.Run(sb.source())
	if err != nil {
		t.Fatal(err)
	}
	tolls := outputsByType(st, "Toll")
	if len(tolls) != 1 || tolls[0].At(1).Int != 1 {
		t.Fatalf("tolls = %v", tolls)
	}
	if st.Partitions != 2 {
		t.Errorf("partitions = %d", st.Partitions)
	}
}

func TestHistoryDiscardedOnWindowClose(t *testing.T) {
	// The NewCar negation buffer must be cleared when congestion
	// closes: car 10's report at t=31 (inside window 1) must not
	// suppress its report at t=61 (inside window 2).
	eng, m := buildEngine(t, trafficSrc, false, false, 1)
	sb := &streamBuilder{t: t, m: m}
	sb.add("Trigger", 1, 1, 1)
	sb.add("PositionReport", 31, 10, 1, 0, 31) // toll (new in window 1)
	sb.add("Trigger", 40, 1, 0)                // congestion off
	sb.add("Trigger", 50, 1, 1)                // congestion on again
	sb.add("PositionReport", 61, 10, 1, 0, 61) // new again: history reset
	st, err := eng.Run(sb.source())
	if err != nil {
		t.Fatal(err)
	}
	tolls := outputsByType(st, "Toll")
	if len(tolls) != 2 {
		t.Fatalf("tolls = %v (history not discarded?)", tolls)
	}
	if st.HistoryResets == 0 {
		t.Error("no history resets recorded")
	}
}

// equivalentStream is a stream on which context-aware and
// context-independent semantics provably coincide: no pattern match
// spans a context boundary (congestion holds before any position
// report arrives and never ends).
func equivalentStream(t testing.TB, m *model.Model) *event.SliceSource {
	sb := &streamBuilder{t: t, m: m}
	sb.add("Trigger", 1, 1, 1)
	sb.add("Trigger", 1, 2, 1)
	vidBase := int64(100)
	for seg := int64(1); seg <= 2; seg++ {
		for i := int64(0); i < 6; i++ {
			vid := vidBase + seg*10 + i%3
			ts := event.Time(31 + 30*i)
			sb.add("PositionReport", ts, vid, seg, i%5, int64(ts))
		}
	}
	return sb.source()
}

func sortedRenderings(st *Stats) []string {
	out := make([]string, 0, len(st.Outputs))
	for _, e := range st.Outputs {
		out = append(out, e.String())
	}
	sort.Strings(out)
	return out
}

func TestContextIndependentEquivalence(t *testing.T) {
	ca, mca := buildEngine(t, trafficSrc, false, false, 2)
	stCA, err := ca.Run(equivalentStream(t, mca))
	if err != nil {
		t.Fatal(err)
	}
	ci, mci := buildEngine(t, trafficSrc, true, false, 2)
	stCI, err := ci.Run(equivalentStream(t, mci))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedRenderings(stCA), sortedRenderings(stCI)
	if len(a) == 0 {
		t.Fatal("no outputs at all")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("outputs differ:\nCA: %v\nCI: %v", a, b)
	}
	// The point of context-awareness: CI executes far more plan
	// instances for the same answer.
	if stCI.InstanceExecs <= stCA.InstanceExecs {
		t.Errorf("CI execs %d not above CA execs %d", stCI.InstanceExecs, stCA.InstanceExecs)
	}
	if stCA.SuspendedSkips == 0 {
		t.Error("CA suspended nothing")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var runs [][]string
	for _, workers := range []int{1, 4} {
		eng, m := buildEngine(t, trafficSrc, false, false, workers)
		st, err := eng.Run(trafficStream(t, m))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, sortedRenderings(st))
	}
	if strings.Join(runs[0], "\n") != strings.Join(runs[1], "\n") {
		t.Errorf("outputs differ across worker counts:\n1: %v\n4: %v", runs[0], runs[1])
	}
}

const sharingSrc = `
EVENT T(seg int, mode int)
EVENT P(v int, seg int)
EVENT R(v int, seg int)

CONTEXT idle DEFAULT
CONTEXT a
CONTEXT b

INITIATE CONTEXT a
PATTERN T t
WHERE t.mode = 1
CONTEXT idle, b

TERMINATE CONTEXT a
PATTERN T t
WHERE t.mode = 2
CONTEXT a

INITIATE CONTEXT b
PATTERN T t
WHERE t.mode = 3
CONTEXT idle, a

TERMINATE CONTEXT b
PATTERN T t
WHERE t.mode = 4
CONTEXT b

DERIVE R(p.v, p.seg)
PATTERN P p
WHERE p.v > 0
CONTEXT a

DERIVE R(p.v, p.seg)
PATTERN P p
WHERE p.v > 0
CONTEXT b
`

func TestWorkloadSharingOverlappingWindows(t *testing.T) {
	mkStream := func(m *model.Model) *event.SliceSource {
		sb := &streamBuilder{t: t, m: m}
		sb.add("T", 1, 1, 1)  // a on
		sb.add("P", 5, 50, 1) // only a active
		sb.add("T", 8, 1, 3)  // b on: overlap
		sb.add("P", 10, 60, 1)
		sb.add("T", 12, 1, 2) // a off
		sb.add("P", 15, 70, 1)
		sb.add("T", 20, 1, 4) // b off
		return sb.source()
	}

	shared, m1 := buildEngine(t, sharingSrc, false, true, 1)
	stS, err := shared.Run(mkStream(m1))
	if err != nil {
		t.Fatal(err)
	}
	non, m2 := buildEngine(t, sharingSrc, false, false, 1)
	stN, err := non.Run(mkStream(m2))
	if err != nil {
		t.Fatal(err)
	}

	// Shared: one instance serves both windows — exactly 3 results.
	if n := len(outputsByType(stS, "R")); n != 3 {
		t.Fatalf("shared R outputs = %d, want 3: %v", n, stS.Outputs)
	}
	// Non-shared: during the overlap (P@10) both query instances
	// produce the result — 4 outputs, duplicated work.
	if n := len(outputsByType(stN, "R")); n != 4 {
		t.Fatalf("non-shared R outputs = %d, want 4: %v", n, stN.Outputs)
	}
	// Deduplicated result sets coincide.
	dedup := func(st *Stats) []string {
		seen := map[string]bool{}
		var out []string
		for _, e := range st.Outputs {
			if e.TypeName() != "R" || seen[e.String()] {
				continue
			}
			seen[e.String()] = true
			out = append(out, e.String())
		}
		sort.Strings(out)
		return out
	}
	if strings.Join(dedup(stS), "\n") != strings.Join(dedup(stN), "\n") {
		t.Errorf("deduplicated outputs differ:\nshared: %v\nnon-shared: %v", dedup(stS), dedup(stN))
	}
	if stN.InstanceExecs <= stS.InstanceExecs {
		t.Errorf("sharing did not save executions: %d vs %d", stS.InstanceExecs, stN.InstanceExecs)
	}
	// The shared instance's history persists across the grouped
	// windows: while a or b holds, the merged instance stays active.
	if g, i := shared.Groups(); g != 1 || i >= 6 {
		t.Errorf("shared groups/instances = %d/%d", g, i)
	}
}

func TestPacingStretchesWallTime(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 1)
	eng.cfg.Pacing = time.Millisecond
	st, err := eng.Run(trafficStream(t, m))
	if err != nil {
		t.Fatal(err)
	}
	// Stream spans 180 application time units at 1ms each.
	if st.WallTime < 150*time.Millisecond {
		t.Errorf("paced run took only %v", st.WallTime)
	}
}

func TestOnOutputCallback(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 2)
	var n atomic.Int64
	eng.cfg.OnOutput = func(*event.Event) { n.Add(1) }
	st, err := eng.Run(trafficStream(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != int64(st.OutputCount) {
		t.Errorf("callback saw %d, stats %d", n.Load(), st.OutputCount)
	}
}

func TestConfigValidation(t *testing.T) {
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	pOpt, _ := plan.Build(m, plan.Optimized())
	pNon, _ := plan.Build(m, plan.NonOptimized())

	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := New(pOpt, Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := New(pOpt, Config{ContextIndependent: true}); err == nil {
		t.Error("CI over pushed-down plan accepted")
	}
	if _, err := New(pNon, Config{ContextIndependent: true, Sharing: true}); err == nil {
		t.Error("CI with sharing accepted")
	}
	if _, err := New(pNon, Config{ContextIndependent: true}); err != nil {
		t.Errorf("valid CI config rejected: %v", err)
	}
}

// TestModeString pins the strategy names the durability fingerprint
// and the /buildz summary print.
func TestModeString(t *testing.T) {
	if (Config{}).mode() != "context-aware" || (Config{ContextIndependent: true}).mode() != "context-independent" {
		t.Error("mode strings broken")
	}
}

func TestControlPartitionForKeylessEvents(t *testing.T) {
	// Events lacking every partition attribute land in the control
	// partition rather than being dropped.
	src := `
EVENT Ping(x int)
EVENT Pong(x int)
CONTEXT c DEFAULT
DERIVE Pong(p.x)
PATTERN Ping p
`
	m, err := model.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, m, Config{PartitionBy: []string{"seg"}, Workers: 1, CollectOutputs: true})
	sb := &streamBuilder{t: t, m: m}
	sb.add("Ping", 1, 7)
	st, err := eng.Run(sb.source())
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputCount != 1 || st.Partitions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLatencyObserved(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 2)
	st, err := eng.Run(trafficStream(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxLatency <= 0 || st.MeanLatency <= 0 || st.MaxLatency < st.MeanLatency {
		t.Errorf("latency stats implausible: max=%v mean=%v", st.MaxLatency, st.MeanLatency)
	}
}

// rawSource bypasses SliceSource's ordering check to inject an
// out-of-order event.
type rawSource struct {
	evs []*event.Event
	pos int
}

func (r *rawSource) Next() *event.Event {
	if r.pos >= len(r.evs) {
		return nil
	}
	e := r.evs[r.pos]
	r.pos++
	return e
}

func TestOutOfOrderEventRejected(t *testing.T) {
	eng, m := buildEngine(t, trafficSrc, false, false, 1)
	pr, _ := m.Registry.Lookup("PositionReport")
	mk := func(ts event.Time) *event.Event {
		return event.MustNew(pr, ts, event.Int64(1), event.Int64(1), event.Int64(0), event.Int64(int64(ts)))
	}
	src := &rawSource{evs: []*event.Event{mk(10), mk(20), mk(15)}}
	if _, err := eng.Run(src); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("disorder accepted: %v", err)
	}
}

// errSource reports a decode error after yielding events.
type errSource struct {
	done bool
}

func (e *errSource) Next() *event.Event {
	e.done = true
	return nil
}
func (e *errSource) Err() error { return errSentinel }

var errSentinel = fmt.Errorf("decode failed")

func TestSourceErrorSurfaced(t *testing.T) {
	eng, _ := buildEngine(t, trafficSrc, false, false, 1)
	if _, err := eng.Run(&errSource{}); err == nil || !strings.Contains(err.Error(), "decode failed") {
		t.Errorf("source error lost: %v", err)
	}
}

const fusionRuntimeSrc = `
EVENT P(v int, seg int)
EVENT A(v int, fee int)

CONTEXT idle DEFAULT
CONTEXT busy

SWITCH CONTEXT busy
PATTERN P p
WHERE p.v > 100
CONTEXT idle

SWITCH CONTEXT idle
PATTERN P p
WHERE p.v < 0
CONTEXT busy

DERIVE A(p.v, 1)
PATTERN P p
WHERE p.v > 3
CONTEXT busy

DERIVE A(p.v, 2)
PATTERN P p
WHERE p.v > 3
CONTEXT busy

DERIVE A(p.v, 3)
PATTERN P p
WHERE p.v > 3
CONTEXT busy
`

func runFusion(t *testing.T, fusion bool) *Stats {
	t.Helper()
	m, err := model.CompileSource(fusionRuntimeSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, m, Config{
		FusePatterns:   fusion,
		PartitionBy:    []string{"seg"},
		Workers:        1,
		CollectOutputs: true,
	})
	sb := &streamBuilder{t: t, m: m}
	sb.add("P", 1, 200, 1) // switch to busy
	for ts := event.Time(2); ts < 40; ts++ {
		sb.add("P", ts, int64(ts%10), 1)
	}
	st, err := eng.Run(sb.source())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPatternFusionEquivalence: fusing the three identical-pattern
// queries changes neither the derived outputs nor their multiplicity,
// while executing a third of the plan instances.
func TestPatternFusionEquivalence(t *testing.T) {
	plain := runFusion(t, false)
	fused := runFusion(t, true)
	if strings.Join(sortedRenderings(plain), "\n") != strings.Join(sortedRenderings(fused), "\n") {
		t.Fatalf("fusion changed outputs:\nplain: %v\nfused: %v",
			sortedRenderings(plain), sortedRenderings(fused))
	}
	if plain.PerType["A"] == 0 || plain.PerType["A"]%3 != 0 {
		t.Fatalf("plain outputs = %v", plain.PerType)
	}
	if fused.InstanceExecs >= plain.InstanceExecs {
		t.Errorf("fusion did not reduce executions: %d vs %d",
			fused.InstanceExecs, plain.InstanceExecs)
	}
}

func TestFusionConfigValidation(t *testing.T) {
	m, err := model.CompileSource(fusionRuntimeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := plan.Build(m, plan.Baseline())
	if _, err := New(p, Config{ContextIndependent: true, FusePatterns: true}); err == nil {
		t.Error("CI with fusion accepted")
	}
}
