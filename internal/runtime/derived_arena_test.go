// Derived-event arena lifetime and differential tests (DESIGN.md
// §3.8). The model chains two derivations — A projects to B, and a
// SEQ joins pairs of B — so a derived B allocated at tick t is still
// referenced by downstream pattern state until the horizon passes.
// With DerivedChunkEvents shrunk to 8 the arena recycles slabs many
// times mid-run, which makes any premature reclamation visible as a
// corrupted or missing C output against a run whose slabs never
// recycle.
package runtime

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

const chainSrc = `
EVENT A(k int, v int)
EVENT B(k int, v int)
EVENT C(k int, v1 int, v2 int)

CONTEXT on DEFAULT

DERIVE B(a.k, a.v)
PATTERN A a
WITHIN 8

DERIVE C(b1.k, b1.v, b2.v)
PATTERN SEQ(B b1, B b2)
WHERE b1.k = b2.k
WITHIN 8
`

// chainEngine builds an engine over chainSrc with a deliberately tiny
// derived arena; mutate customizes the config (workers/shards/arena).
func chainEngine(t testing.TB, mutate func(*Config)) (*Engine, *model.Model) {
	t.Helper()
	m, err := model.CompileSource(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		PartitionBy:        []string{"k"},
		CollectOutputs:     true,
		DerivedChunkEvents: 8,
	}
	mutate(&cfg)
	return newEngine(t, m, cfg), m
}

// chainStream emits one A per key per tick: every tick derives three
// B events, and each B joins with up to 8 predecessors of its key.
func chainStream(t testing.TB, m *model.Model, ticks int) *event.SliceSource {
	sb := streamBuilder{t: t, m: m}
	for i := 1; i <= ticks; i++ {
		for k := int64(0); k < 3; k++ {
			sb.add("A", event.Time(i), k, int64(i*10)+k)
		}
	}
	return sb.source()
}

// TestDerivedChainSurvivesReclamation is the arena lifetime proof: a
// chained derived event must stay valid until the watermark releases
// its tick, even while the tiny slabs recycle continuously. The
// small-slab run must produce byte-identical outputs to a reference
// run whose one slab outsizes the whole derived output, so nothing
// ever seals or recycles there, and the small-slab arena must actually
// have reclaimed slabs mid-run — otherwise the test proved nothing.
func TestDerivedChainSurvivesReclamation(t *testing.T) {
	const ticks = 120
	cases := []struct {
		name   string
		mutate func(*Config)
		// reclaimed reads the total recycled-slab count off the cached
		// run scaffolding after the run.
		reclaimed func(e *Engine) uint64
	}{
		{"workers=2", func(c *Config) { c.Workers = 2 },
			func(e *Engine) uint64 { return sumReclaimed(e.cached.workers) }},
		{"shards=2", func(c *Config) { c.Shards = 2 },
			func(e *Engine) uint64 { return sumReclaimed(e.cached.workers) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arena, m := chainEngine(t, tc.mutate)
			stA, err := arena.Run(chainStream(t, m, ticks))
			if err != nil {
				t.Fatal(err)
			}
			whole, mw := chainEngine(t, func(c *Config) {
				tc.mutate(c)
				c.DerivedChunkEvents = 1 << 16
			})
			stW, err := whole.Run(chainStream(t, mw, ticks))
			if err != nil {
				t.Fatal(err)
			}
			if n := tc.reclaimed(whole); n != 0 {
				t.Fatalf("reference run reclaimed %d slabs; its slab must outsize the run", n)
			}
			a, w := sortedRenderings(stA), sortedRenderings(stW)
			if len(a) != len(w) {
				t.Fatalf("small slabs %d outputs, one slab %d", len(a), len(w))
			}
			for i := range a {
				if a[i] != w[i] {
					t.Fatalf("output %d differs:\nsmall slabs: %s\none slab:    %s", i, a[i], w[i])
				}
			}
			// ~8 C per B per key: a healthy run derives far more events
			// than one slab holds.
			if len(a) < ticks {
				t.Fatalf("suspiciously few outputs: %d", len(a))
			}
			if n := tc.reclaimed(arena); n == 0 {
				t.Fatal("arena never reclaimed a slab; lifetime was not exercised")
			}
		})
	}
}

func sumReclaimed(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.wm.derivedReclaimed.Value()
	}
	return n
}

// TestRunReuseIdenticalOutputs covers the cached-run scaffolding: the
// same Engine must be re-runnable, with the second run starting from
// fresh logical state (same outputs, same event count) while reusing
// rings, workers and arenas.
func TestRunReuseIdenticalOutputs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers=2", func(c *Config) { c.Workers = 2 }},
		{"shards=2", func(c *Config) { c.Shards = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, m := chainEngine(t, tc.mutate)
			st1, err := eng.Run(chainStream(t, m, 60))
			if err != nil {
				t.Fatal(err)
			}
			out1 := sortedRenderings(st1)
			st2, err := eng.Run(chainStream(t, m, 60))
			if err != nil {
				t.Fatal(err)
			}
			out2 := sortedRenderings(st2)
			if len(out1) == 0 {
				t.Fatal("no outputs")
			}
			if len(out1) != len(out2) {
				t.Fatalf("run 1: %d outputs, run 2: %d", len(out1), len(out2))
			}
			for i := range out1 {
				if out1[i] != out2[i] {
					t.Fatalf("output %d differs across runs:\n1: %s\n2: %s", i, out1[i], out2[i])
				}
			}
			if st1.Events != st2.Events || st1.Ticks != st2.Ticks {
				t.Fatalf("stats drifted: events %d→%d ticks %d→%d",
					st1.Events, st2.Events, st1.Ticks, st2.Ticks)
			}
		})
	}
}
