package caesar

import (
	"fmt"
	"testing"

	"github.com/caesar-cep/caesar/internal/experiments"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// benchScale sizes the per-figure benchmarks so the whole suite
// completes in minutes. cmd/experiments -scale full runs the
// paper-proportioned sweeps.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name:       "bench",
		LRDuration: 420,
		LRSegments: 3,
		Workers:    4,
		MaxQueries: 6,
		MaxRoads:   3,
		MaxOps:     17,
		MaxOverlap: 8,
	}
}

// benchFigure runs one figure regeneration per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("figure %s produced no rows", id)
		}
	}
}

// One benchmark per table/figure of the paper's evaluation (§7).

func BenchmarkFig10a(b *testing.B) { benchFigure(b, "10a") } // events per segment
func BenchmarkFig10b(b *testing.B) { benchFigure(b, "10b") } // events per minute
func BenchmarkFig11a(b *testing.B) { benchFigure(b, "11a") } // optimizer search
func BenchmarkFig11b(b *testing.B) { benchFigure(b, "11b") } // L-factor
func BenchmarkFig12a(b *testing.B) { benchFigure(b, "12a") } // query workload CA vs CI
func BenchmarkFig12b(b *testing.B) { benchFigure(b, "12b") } // stream rate CA vs CI
func BenchmarkFig12c(b *testing.B) { benchFigure(b, "12c") } // window length
func BenchmarkFig12d(b *testing.B) { benchFigure(b, "12d") } // window count
func BenchmarkFig13(b *testing.B)  { benchFigure(b, "13") }  // window distributions
func BenchmarkFig14a(b *testing.B) { benchFigure(b, "14a") } // overlap count sharing
func BenchmarkFig14b(b *testing.B) { benchFigure(b, "14b") } // overlap length sharing
func BenchmarkFig14c(b *testing.B) { benchFigure(b, "14c") } // shared workload size

// Engine micro-benchmarks: end-to-end throughput of the strategies
// the paper compares, on a fixed Linear Road stream.

func lrBenchEngine(b *testing.B, cfg Config) (*Engine, []*Event) {
	b.Helper()
	eng, err := NewFromSource(LinearRoadModel(4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := LinearRoadDefaults()
	gen.Segments = 4
	gen.Duration = 600
	events, err := GenerateLinearRoad(gen, eng.Registry())
	if err != nil {
		b.Fatal(err)
	}
	return eng, events
}

func runEngineBench(b *testing.B, cfg Config) {
	eng, events := lrBenchEngine(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(NewSliceSource(events))
		if err != nil {
			b.Fatal(err)
		}
		if st.OutputCount == 0 {
			b.Fatal("no outputs")
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

func BenchmarkEngineContextAware(b *testing.B) {
	runEngineBench(b, Config{PartitionBy: LinearRoadPartitionBy(), Workers: 4})
}

func BenchmarkEngineContextAwareShared(b *testing.B) {
	runEngineBench(b, Config{PartitionBy: LinearRoadPartitionBy(), Workers: 4, Sharing: true})
}

func BenchmarkEngineContextIndependent(b *testing.B) {
	runEngineBench(b, Config{PartitionBy: LinearRoadPartitionBy(), Workers: 4, ContextIndependent: true})
}

func BenchmarkEngineNoPushDown(b *testing.B) {
	runEngineBench(b, Config{PartitionBy: LinearRoadPartitionBy(), Workers: 4, DisablePushDown: true})
}

func BenchmarkEngineSingleWorker(b *testing.B) {
	runEngineBench(b, Config{PartitionBy: LinearRoadPartitionBy(), Workers: 1})
}

// dispatchBenchModel keeps the query workload minimal so the ingest/
// dispatch path — tick formation, partition key extraction, worker
// hand-off — dominates the per-event cost.
const dispatchBenchModel = `
EVENT PositionReport(vid int, xway int, lane int, dir int, seg int, pos int, speed int, sec int)
EVENT Halted(vid int, seg int)

CONTEXT clear DEFAULT

DERIVE Halted(p.vid, p.seg)
PATTERN PositionReport p
WHERE p.speed < 0
`

// BenchmarkEngineDispatchBound measures end-to-end throughput in the
// distributor-bound regime: a real Linear Road position report stream
// over many (xway, dir, seg) partitions with a near-empty query
// workload, isolating the cost of ingesting and routing one event.
func BenchmarkEngineDispatchBound(b *testing.B) {
	eng, err := NewFromSource(dispatchBenchModel, Config{
		PartitionBy: LinearRoadPartitionBy(),
		Workers:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := LinearRoadDefaults()
	gen.Segments = 20
	gen.Duration = 1200
	events, err := GenerateLinearRoad(gen, eng.Registry())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(NewSliceSource(events))
		if err != nil {
			b.Fatal(err)
		}
		if st.Events != uint64(len(events)) {
			b.Fatal("events lost")
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// BenchmarkEngineSharded is the sharded runtime's scaling series: the
// dispatch-bound workload of BenchmarkEngineDispatchBound across
// shard counts (shards=1 is the legacy distributor + worker-pool
// pipeline), with the stage tracer enabled at its default 1-in-64
// sample rate — the series doubles as the proof that sampled tracing
// costs nothing measurable. scripts/bench.sh renders this series into
// BENCH_scaling.json; speedup over shards=1 is bounded by the
// machine's core count — see EXPERIMENTS.md for measured numbers and
// the hardware note.
func BenchmarkEngineSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, err := NewFromSource(dispatchBenchModel, Config{
				PartitionBy: LinearRoadPartitionBy(),
				Shards:      shards,
				Stages:      telemetry.NewStageTracer(0, 0),
			})
			if err != nil {
				b.Fatal(err)
			}
			gen := LinearRoadDefaults()
			gen.Segments = 20
			gen.Duration = 1200
			events, err := GenerateLinearRoad(gen, eng.Registry())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := eng.Run(NewSliceSource(events))
				if err != nil {
					b.Fatal(err)
				}
				if st.Events != uint64(len(events)) {
					b.Fatal("events lost")
				}
			}
			b.ReportMetric(float64(len(events)), "events/op")
		})
	}
}
