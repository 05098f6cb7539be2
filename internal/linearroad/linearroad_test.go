package linearroad

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/runtime"
)

func compileLR(t testing.TB, replicas int) *model.Model {
	t.Helper()
	m, err := model.CompileSource(ModelSource(replicas))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelSourceCompiles(t *testing.T) {
	for _, replicas := range []int{1, 3, 10} {
		m := compileLR(t, replicas)
		want := 7 + 2*replicas
		if len(m.Queries) != want {
			t.Errorf("replicas=%d: queries = %d, want %d", replicas, len(m.Queries), want)
		}
		if m.Default.Name != "clear" {
			t.Errorf("default = %s", m.Default.Name)
		}
	}
	// replicas < 1 clamps to 1.
	if m := compileLR(t, 0); len(m.Queries) != 9 {
		t.Errorf("clamped replicas queries = %d", len(m.Queries))
	}
}

func TestGenerateValidation(t *testing.T) {
	m := compileLR(t, 1)
	bad := DefaultConfig()
	bad.Roads = 0
	if _, err := Generate(bad, m.Registry); err == nil {
		t.Error("zero roads accepted")
	}
	bad = DefaultConfig()
	bad.StatEvery = 10 // < ReportEvery
	if _, err := Generate(bad, m.Registry); err == nil {
		t.Error("StatEvery < ReportEvery accepted")
	}
	if _, err := Generate(DefaultConfig(), event.NewRegistry()); err == nil {
		t.Error("foreign registry accepted")
	}
}

func TestGenerateStreamShape(t *testing.T) {
	m := compileLR(t, 1)
	cfg := DefaultConfig()
	cfg.Segments = 10
	cfg.Duration = 600
	evs, err := Generate(cfg, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty stream")
	}
	last := event.Time(-1)
	counts := CountByType(evs)
	for _, e := range evs {
		if e.End() < last {
			t.Fatal("stream not sorted")
		}
		last = e.End()
	}
	// The stream carries raw position reports only; statistics are
	// derived by the engine's SegStat aggregation query.
	if counts["PositionReport"] == 0 || len(counts) != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Expected volume: per segment, one report per car per interval.
	if counts["PositionReport"] < cfg.Segments*2*int(cfg.Duration/cfg.ReportEvery) {
		t.Errorf("implausibly few reports: %v", counts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := compileLR(t, 1)
	cfg := DefaultConfig()
	cfg.Segments = 4
	cfg.Duration = 300
	a, _ := Generate(cfg, m.Registry)
	b, _ := Generate(cfg, m.Registry)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
	cfg.Seed = 2
	c, _ := Generate(cfg, m.Registry)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if !a[i].Equal(c[i]) {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical streams")
		}
	}
}

func TestRampGrowsEventRate(t *testing.T) {
	m := compileLR(t, 1)
	cfg := DefaultConfig()
	cfg.Segments = 5
	cfg.Duration = 1200
	cfg.Ramp = 2
	cfg.Script = func(road, seg int) []Phase { return nil } // all clear
	evs, err := Generate(cfg, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	half := event.Time(cfg.Duration / 2)
	var early, late int
	for _, e := range evs {
		if e.TypeName() != "PositionReport" {
			continue
		}
		if e.End() < half {
			early++
		} else {
			late++
		}
	}
	if late <= early {
		t.Errorf("ramp did not grow rate: early=%d late=%d", early, late)
	}
}

// runLR executes the benchmark end to end and returns outputs;
// baseline selects the context-independent strategy.
func runLR(t testing.TB, replicas int, cfg Config, baseline bool) (*runtime.Stats, Config) {
	t.Helper()
	m := compileLR(t, replicas)
	eng, err := core.NewEngine(m, core.Config{
		ContextIndependent: baseline,
		PartitionBy:        PartitionBy(),
		Workers:            4,
		CollectOutputs:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := Generate(cfg, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(event.NewSliceSource(evs))
	if err != nil {
		t.Fatal(err)
	}
	return st, cfg
}

func TestBenchmarkSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Segments = 10
	cfg.Duration = 900
	st, _ := runLR(t, 1, cfg, false)

	if st.PerType["TollNotification"] == 0 {
		t.Fatal("no tolls derived")
	}
	if st.PerType["AccidentWarning"] == 0 {
		t.Fatal("no accident warnings derived")
	}
	if st.Transitions == 0 || st.SuspendedSkips == 0 {
		t.Errorf("transitions=%d suspensions=%d", st.Transitions, st.SuspendedSkips)
	}

	// Real tolls (toll > 0) happen only while congestion is scripted
	// (with slack for the SegStat-driven transition lag: the stat
	// aggregation window plus the transaction that flushes it);
	// warnings only around accident windows; zero tolls only outside
	// congestion.
	congStart := DefaultCongestionStart(cfg.Duration)
	accStart, accEnd, ok := DefaultAccidentWindow(cfg.Duration)
	if !ok {
		t.Fatal("no accident window at this duration")
	}
	slack := 2*cfg.StatEvery + cfg.ReportEvery + 2
	for _, e := range st.Outputs {
		sec, _ := e.Get("sec")
		switch e.TypeName() {
		case "TollNotification":
			toll, _ := e.Get("toll")
			if toll.Int > 0 && sec.Int < congStart {
				t.Errorf("real toll before congestion: %v", e)
			}
			if toll.Int <= 0 && sec.Int >= congStart+slack {
				t.Errorf("zero toll during congestion: %v", e)
			}
		case "AccidentWarning":
			if sec.Int < accStart || sec.Int > accEnd+slack {
				t.Errorf("warning outside accident window: %v", e)
			}
		}
	}
}

func TestContextAwareBeatsContextIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Segments = 6
	cfg.Duration = 600
	ca, _ := runLR(t, 3, cfg, false)
	ci, _ := runLR(t, 3, cfg, true)
	if ci.InstanceExecs <= 2*ca.InstanceExecs {
		t.Errorf("CI execs %d not clearly above CA execs %d", ci.InstanceExecs, ca.InstanceExecs)
	}
}

func TestUniformWindowsScript(t *testing.T) {
	s := UniformWindows(1000, 4, 100, Congestion)
	ps := s(0, 0)
	if len(ps) != 4 {
		t.Fatalf("phases = %v", ps)
	}
	for i, p := range ps {
		if p.Kind != Congestion || p.End-p.Start != 100 {
			t.Errorf("phase %d = %+v", i, p)
		}
		if p.Start < 0 || p.End > 1000 {
			t.Errorf("phase %d out of range: %+v", i, p)
		}
		if i > 0 && p.Start < ps[i-1].End {
			t.Errorf("windows overlap: %v", ps)
		}
	}
}

func TestPhaseAtPrecedence(t *testing.T) {
	ps := []Phase{
		{Kind: Congestion, Start: 0, End: 100},
		{Kind: Accident, Start: 40, End: 60},
	}
	if phaseAt(ps, 10) != Congestion || phaseAt(ps, 50) != Accident || phaseAt(ps, 70) != Congestion {
		t.Error("phase precedence wrong")
	}
	if phaseAt(ps, 200) != Clear {
		t.Error("uncovered time not clear")
	}
	if Clear.String() != "clear" || Congestion.String() != "congestion" || Accident.String() != "accident" {
		t.Error("PhaseKind strings")
	}
}
