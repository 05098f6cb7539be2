package caesar

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
)

// The toll fingerprint is the data oracle for every engine
// configuration: the Linear Road toll workload (tollGenConfig) must
// produce exactly the recorded output whatever the ingest path,
// topology, plan sharing or derived-event slab size. The constant was
// recorded while the per-combination pattern kernel, the synchronous
// ingest loop and heap-allocated derived events still existed, and all
// three reproduced it, so it is the output those deleted references
// agreed on.
var tollFingerprint = tollPrint{
	OutputSHA256: "66c79055eddc0edc0463676b4c5ee43128f90a3c705023842bf62ab39b02d200",
	Events:       20880,
	OutputCount:  857,
	Transitions:  10,
	Partitions:   4,
	PerType:      "map[AccidentWarning:127 SegStat:236 StoppedCar:2 TollNotification:492]",
	Contexts:     "map[accident:{1 1} congestion:{4 0}]",
}

// tollPrint is what a toll run must reproduce: the SHA-256 of the
// sorted rendered output plus the run statistics that do not depend on
// scheduling. PerType and Contexts are rendered with fmt, which prints
// map keys in sorted order.
type tollPrint struct {
	OutputSHA256 string
	Events       uint64
	OutputCount  uint64
	Transitions  uint64
	Partitions   int
	PerType      string
	Contexts     string
}

func printOf(out string, st *Stats) tollPrint {
	sum := sha256.Sum256([]byte(out))
	return tollPrint{
		OutputSHA256: hex.EncodeToString(sum[:]),
		Events:       st.Events,
		OutputCount:  st.OutputCount,
		Transitions:  st.Transitions,
		Partitions:   st.Partitions,
		PerType:      fmt.Sprint(st.PerType),
		Contexts:     fmt.Sprint(st.Contexts),
	}
}

func tollGenConfig() LinearRoadConfig {
	gen := LinearRoadDefaults()
	gen.Segments = 4
	// Long enough that the watermark (which trails by 2·horizon, the
	// default horizon being 300) passes whole slabs mid-run.
	gen.Duration = 3600
	return gen
}

// runToll executes the Linear Road toll workload: it builds an engine
// with cfg, generates the benchmark stream against that engine's
// registry (schemas are matched by identity, so every run generates
// its own), executes run, and returns the Writer-rendered derived
// events (sorted, newline-joined — worker interleaving permutes
// emission order) plus the Stats.
func runToll(t *testing.T, cfg Config, run func(*Engine, []*Event) (*Stats, error)) (string, *Stats) {
	t.Helper()
	cfg.PartitionBy = LinearRoadPartitionBy()
	cfg.CollectOutputs = true
	eng, err := NewFromSource(LinearRoadModel(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := GenerateLinearRoad(tollGenConfig(), eng.Registry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := run(eng, evs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := event.NewWriter(&buf)
	lines := make([]string, 0, len(st.Outputs))
	for _, e := range st.Outputs {
		buf.Reset()
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, buf.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, ""), st
}

// encodeWire renders events in the wire format.
func encodeWire(t *testing.T, evs []*Event) []byte {
	t.Helper()
	var wire bytes.Buffer
	w := event.NewWriter(&wire)
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// tollRow is one run configuration of the toll workload. run defaults
// to Engine.Run over a SliceSource; check, when set, asserts on the
// row's Stats beyond the fingerprint.
type tollRow struct {
	name  string
	cfg   Config
	run   func(t *testing.T, e *Engine, evs []*Event) (*Stats, error)
	check func(t *testing.T, st *Stats)
}

// checkToll runs every row as a subtest and requires each to hit the
// recorded fingerprint.
func checkToll(t *testing.T, rows []tollRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out, st := runToll(t, row.cfg, func(e *Engine, evs []*Event) (*Stats, error) {
				if row.run != nil {
					return row.run(t, e, evs)
				}
				return e.Run(NewSliceSource(evs))
			})
			if got := printOf(out, st); got != tollFingerprint {
				t.Errorf("toll fingerprint diverges\n got: %+v\nwant: %+v", got, tollFingerprint)
			}
			if row.check != nil {
				row.check(t, st)
			}
		})
	}
}

// TestTollFingerprint covers the plain and the shared/fused
// multi-query plan on the worker pool.
func TestTollFingerprint(t *testing.T) {
	checkToll(t, []tollRow{
		{name: "workers=3", cfg: Config{Workers: 3}},
		{name: "fused", cfg: Config{Workers: 3, Sharing: true, FusePatterns: true}},
	})
}

// TestIngestPathsByteIdentical covers the ingest sources: the wire
// decoder's arena path behind the read-ahead ring, and the
// arena-backed generator fed through RunBatches.
func TestIngestPathsByteIdentical(t *testing.T) {
	checkToll(t, []tollRow{
		{name: "wire", cfg: Config{Workers: 3},
			run: func(t *testing.T, e *Engine, evs []*Event) (*Stats, error) {
				return e.Run(event.NewReader(bytes.NewReader(encodeWire(t, evs)), e.Registry()))
			},
			check: func(t *testing.T, st *Stats) {
				if st.Batches == 0 {
					t.Error("wire ingest reported no batches")
				}
				// Mid-run reclamation needs worker progress concurrent
				// with decode: the watermark follows the workers'
				// completed marks, and on a single P the buffered
				// hand-off legitimately defers execution until decode
				// quiesces, so reclaim activity is only a meaningful
				// assertion with ≥2 scheduler threads.
				if runtime.GOMAXPROCS(0) > 1 && st.ReclaimedChunks == 0 {
					t.Error("wire ingest never reclaimed an arena slab")
				}
			}},
		{name: "stream", cfg: Config{Workers: 3},
			run: func(t *testing.T, e *Engine, evs []*Event) (*Stats, error) {
				s, err := linearroad.NewStream(tollGenConfig(), e.Registry())
				if err != nil {
					t.Fatal(err)
				}
				return e.RunBatches(s)
			},
			check: func(t *testing.T, st *Stats) {
				if st.Batches == 0 {
					t.Error("stream ingest reported no batches")
				}
			}},
	})
}

// TestShardedTollByteIdentical covers the engine topologies: one shard
// (the distributor and worker pool) and the sharded runtime's SPSC
// rings, per-shard completion marks, watermark and ordered merge.
func TestShardedTollByteIdentical(t *testing.T) {
	checkToll(t, []tollRow{
		{name: "shards=1", cfg: Config{Shards: 1}},
		{name: "shards=2", cfg: Config{Shards: 2}},
		{name: "shards=4", cfg: Config{Shards: 4}},
	})
}

// TestDerivedArenaTollByteIdentical shrinks the derived-event slabs to
// 64 events so the watermark recycles them continuously mid-run; the
// workload chains derivations (NewCar feeds Toll in-transaction), so a
// premature reclamation shows up as a diverging fingerprint.
func TestDerivedArenaTollByteIdentical(t *testing.T) {
	checkToll(t, []tollRow{
		{name: "pipelined", cfg: Config{Workers: 3, DerivedChunkEvents: 64}},
		{name: "shards=1", cfg: Config{Shards: 1, Workers: 3, DerivedChunkEvents: 64}},
		{name: "shards=2", cfg: Config{Shards: 2, DerivedChunkEvents: 64}},
		{name: "shards=4", cfg: Config{Shards: 4, DerivedChunkEvents: 64}},
	})
}
