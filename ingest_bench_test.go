package caesar

import (
	"bytes"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
)

// dispatchGen sizes the stream for the ingest-bound benchmarks: the
// same shape BenchmarkEngineDispatchBound uses.
func dispatchGen() LinearRoadConfig {
	gen := LinearRoadDefaults()
	gen.Segments = 20
	gen.Duration = 1200
	return gen
}

// BenchmarkEngineWireIngest is the full ingest pipeline end to end:
// wire bytes through the arena decoder, the read-ahead ring and the
// dispatch loop, under the minimal query workload so decode + routing
// dominate. The Reader and its arena are reused across iterations.
func BenchmarkEngineWireIngest(b *testing.B) {
	eng, err := NewFromSource(dispatchBenchModel, Config{
		PartitionBy: LinearRoadPartitionBy(),
		Workers:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	events, err := GenerateLinearRoad(dispatchGen(), eng.Registry())
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	w := event.NewWriter(&wire)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	br := bytes.NewReader(raw)
	rd := event.NewReader(br, eng.Registry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(raw)
		rd.Reset(br)
		st, err := eng.Run(rd)
		if err != nil {
			b.Fatal(err)
		}
		if st.Events != uint64(len(events)) {
			b.Fatal("events lost")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// BenchmarkEngineBatchStream feeds the engine from the arena-backed
// Linear Road generator: no decode, no per-event allocation anywhere
// on the ingest side — the dispatch loop is the remaining cost.
func BenchmarkEngineBatchStream(b *testing.B) {
	eng, err := NewFromSource(dispatchBenchModel, Config{
		PartitionBy: LinearRoadPartitionBy(),
		Workers:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	src, err := linearroad.NewStream(dispatchGen(), eng.Registry())
	if err != nil {
		b.Fatal(err)
	}
	var n uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		st, err := eng.RunBatches(src)
		if err != nil {
			b.Fatal(err)
		}
		if st.Events == 0 {
			b.Fatal("no events")
		}
		n = st.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*int(n)), "ns/event")
}
