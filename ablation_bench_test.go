package caesar

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// Ablation benchmarks for the design choices DESIGN.md calls out:
// each toggles one engine mechanism on the same Linear Road workload
// so `go test -bench=Ablation` quantifies its contribution.

func ablationRun(b *testing.B, opts plan.Options, sharing bool) {
	b.Helper()
	m, err := model.CompileSource(linearroad.ModelSource(4))
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := runtime.New(p, runtime.Config{
		Sharing:     sharing,
		PartitionBy: linearroad.PartitionBy(),
		Workers:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := linearroad.DefaultConfig()
	gen.Segments = 4
	gen.Duration = 600
	events, err := linearroad.Generate(gen, m.Registry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(event.NewSliceSource(events))
		if err != nil {
			b.Fatal(err)
		}
		if st.OutputCount == 0 {
			b.Fatal("no outputs")
		}
	}
}

// Context window push-down (paper §5.2, Theorem 1).
func BenchmarkAblationPushDownOn(b *testing.B) {
	ablationRun(b, plan.Optimized(), false)
}

func BenchmarkAblationPushDownOff(b *testing.B) {
	ablationRun(b, plan.Options{EagerFilters: true}, false)
}

// Eager predicate evaluation inside the pattern operator versus a
// separate downstream filter (paper Fig. 6a vs. 6b plan shapes).
func BenchmarkAblationEagerFiltersOn(b *testing.B) {
	ablationRun(b, plan.Optimized(), false)
}

func BenchmarkAblationEagerFiltersOff(b *testing.B) {
	ablationRun(b, plan.Options{PushDown: true}, false)
}

// Negation-buffer hash index (engine addition; the paper's toll query
// SEQ(NOT PositionReport p1, PositionReport p2) probes it on every
// candidate match).
func BenchmarkAblationNegIndexOn(b *testing.B) {
	ablationRun(b, plan.Optimized(), false)
}

func BenchmarkAblationNegIndexOff(b *testing.B) {
	opts := plan.Optimized()
	opts.DisableNegIndex = true
	ablationRun(b, opts, false)
}

// Context workload sharing (paper §5.3).
func BenchmarkAblationSharingOn(b *testing.B) {
	ablationRun(b, plan.Optimized(), true)
}

func BenchmarkAblationSharingOff(b *testing.B) {
	ablationRun(b, plan.Optimized(), false)
}

// Pattern fusion (MQO within the shared workload, §5.3): the Linear
// Road toll replicas share one pattern under fusion.
func BenchmarkAblationFusionOn(b *testing.B) {
	m, err := model.CompileSource(linearroad.ModelSource(8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		b.Fatal(err)
	}
	benchFusion(b, p, m, true)
}

func BenchmarkAblationFusionOff(b *testing.B) {
	m, err := model.CompileSource(linearroad.ModelSource(8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		b.Fatal(err)
	}
	benchFusion(b, p, m, false)
}

func benchFusion(b *testing.B, p *plan.Plan, m *model.Model, fusion bool) {
	b.Helper()
	eng, err := runtime.New(p, runtime.Config{
		FusePatterns: fusion,
		PartitionBy:  linearroad.PartitionBy(),
		Workers:      4,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := linearroad.DefaultConfig()
	gen.Segments = 4
	gen.Duration = 600
	events, err := linearroad.Generate(gen, m.Registry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(event.NewSliceSource(events))
		if err != nil {
			b.Fatal(err)
		}
		if st.OutputCount == 0 {
			b.Fatal("no outputs")
		}
	}
}
