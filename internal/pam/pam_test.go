package pam

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

func compilePAM(t testing.TB, replicas int) *model.Model {
	t.Helper()
	m, err := model.CompileSource(ModelSource(replicas))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelSourceCompiles(t *testing.T) {
	for _, replicas := range []int{1, 5, 20} {
		m := compilePAM(t, replicas)
		want := 4 + 2*replicas
		if len(m.Queries) != want {
			t.Errorf("replicas=%d: queries = %d, want %d", replicas, len(m.Queries), want)
		}
	}
	if m := compilePAM(t, -1); len(m.Queries) != 6 {
		t.Error("replica clamp broken")
	}
}

func TestGenerateValidation(t *testing.T) {
	m := compilePAM(t, 1)
	bad := DefaultConfig()
	bad.Subjects = 20
	if _, err := Generate(bad, m.Registry); err == nil {
		t.Error("too many subjects accepted")
	}
	bad = DefaultConfig()
	bad.Every = 0
	if _, err := Generate(bad, m.Registry); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Generate(DefaultConfig(), event.NewRegistry()); err == nil {
		t.Error("foreign registry accepted")
	}
}

func TestGenerateStream(t *testing.T) {
	m := compilePAM(t, 1)
	cfg := DefaultConfig()
	cfg.Duration = 600
	evs, err := Generate(cfg, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	wantPerSubject := int(cfg.Duration / cfg.Every)
	if len(evs) != wantPerSubject*cfg.Subjects {
		t.Fatalf("events = %d, want %d", len(evs), wantPerSubject*cfg.Subjects)
	}
	last := event.Time(-1)
	subjects := map[int64]bool{}
	for _, e := range evs {
		if e.End() < last {
			t.Fatal("stream not sorted")
		}
		last = e.End()
		s, _ := e.Get("subj")
		subjects[s.Int] = true
		hr, _ := e.Get("hr")
		if hr.Int < 40 || hr.Int > 220 {
			t.Fatalf("implausible heart rate %d", hr.Int)
		}
	}
	if len(subjects) != cfg.Subjects {
		t.Errorf("subjects seen = %d", len(subjects))
	}
}

func TestEndToEndActivityMonitoring(t *testing.T) {
	m := compilePAM(t, 2)
	eng, err := core.NewEngine(m, core.Config{
		PartitionBy:    PartitionBy(),
		Workers:        4,
		CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Duration = 900
	evs, err := Generate(cfg, m.Registry)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(event.NewSliceSource(evs))
	if err != nil {
		t.Fatal(err)
	}
	if st.PerType["Alert"] == 0 || st.PerType["Summary"] == 0 {
		t.Fatalf("per-type = %v", st.PerType)
	}
	if st.Transitions == 0 || st.SuspendedSkips == 0 {
		t.Errorf("transitions=%d suspensions=%d", st.Transitions, st.SuspendedSkips)
	}
	if st.Partitions != cfg.Subjects {
		t.Errorf("partitions = %d, want %d", st.Partitions, cfg.Subjects)
	}
	// Alerts are sustained-peak pairs: both readings >= 160.
	for _, e := range st.Outputs {
		if e.TypeName() != "Alert" {
			continue
		}
		hr, _ := e.Get("hr")
		if hr.Int < 160 {
			t.Errorf("alert below peak threshold: %v", e)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	m := compilePAM(t, 1)
	cfg := DefaultConfig()
	cfg.Duration = 300
	a, _ := Generate(cfg, m.Registry)
	b, _ := Generate(cfg, m.Registry)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
}
