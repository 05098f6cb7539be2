package runtime

import (
	"fmt"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// traceEngine builds a traffic engine with stage tracing at sample
// rate 1 and a health surface, for both runtime shapes.
func traceEngine(t testing.TB, shards int) (*Engine, *model.Model, *telemetry.StageTracer, *telemetry.Health) {
	t.Helper()
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewStageTracer(1, 64)
	h := telemetry.NewHealth()
	eng, err := New(p, Config{
		PartitionBy: []string{"seg"},
		Shards:      shards,
		Workers:     2,
		Stages:      tr,
		Health:      h,
		OnOutput:    func(*event.Event) {}, // enable the ordered merge path
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, m, tr, h
}

// TestStageTracingEndToEnd runs the full engine with every tick
// sampled on both runtimes and checks the tracer saw every pipeline
// stage with sane latencies, the flight recorder holds complete
// timelines, and the health probes settle on "completed".
func TestStageTracingEndToEnd(t *testing.T) {
	const segs, ticks = 8, 200
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, m, tr, h := traceEngine(t, shards)
			st, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks))
			if err != nil {
				t.Fatal(err)
			}
			if st.OutputCount == 0 {
				t.Fatal("run derived nothing")
			}

			// Every stage of the pipeline must have been observed: the
			// batch source exercises decode + queue (pipelined ingest),
			// dispatch exercises route, the hand-off ring_wait, the
			// kernel exec, and OnOutput the sharded merge hold-back.
			stages := []telemetry.Stage{
				telemetry.StageDecode, telemetry.StageQueue, telemetry.StageRoute,
				telemetry.StageRingWait, telemetry.StageExec,
			}
			if shards > 1 {
				stages = append(stages, telemetry.StageMerge)
			}
			for _, stg := range stages {
				snap := tr.StageSnapshot(stg)
				if snap.Count == 0 {
					t.Errorf("stage %s never observed", stg)
					continue
				}
				if max := snap.Max; max <= 0 || max > int64(time.Minute) {
					t.Errorf("stage %s max latency insane: %dns", stg, max)
				}
				if snap.Quantile(0.5) > snap.Max {
					t.Errorf("stage %s p50 %d exceeds max %d", stg, snap.Quantile(0.5), snap.Max)
				}
			}

			// The recorder's retained timelines are complete: exec
			// stamped, counts populated, completion stamps monotone
			// (the seqlock publishes in completion order per slot pass).
			tls := tr.Timelines()
			if len(tls) == 0 {
				t.Fatal("flight recorder is empty")
			}
			for _, tl := range tls {
				if tl.Stamped&(1<<telemetry.StageExec) == 0 {
					t.Errorf("timeline tick=%d unit=%d missing exec stage (stamped %b)",
						tl.Tick, tl.Unit, tl.Stamped)
				}
				if tl.Events <= 0 {
					t.Errorf("timeline tick=%d has no events", tl.Tick)
				}
				if tl.At <= 0 {
					t.Errorf("timeline tick=%d has no completion stamp", tl.Tick)
				}
			}

			// After the run, the health surface reports completed-and-
			// drained on every probe.
			rep := h.Check()
			if !rep.OK {
				t.Errorf("health not ok after completed run: %+v", rep)
			}
			unit := "workers"
			if shards > 1 {
				unit = "shards"
			}
			for _, name := range []string{"engine", "watermark", unit} {
				p, ok := rep.Probes[name]
				if !ok || !p.OK {
					t.Errorf("probe %q missing or failing: %+v", name, rep.Probes)
				}
			}
			if rep.Probes["engine"].Detail != "completed" {
				t.Errorf("engine probe detail = %q, want completed", rep.Probes["engine"].Detail)
			}
		})
	}
}

// TestStageTracingSampledSubset checks the sampling contract at rate
// N>1: roughly ticks/N spans recorded, none when the tracer is absent,
// and a traced run's outputs are identical to an untraced run's.
func TestStageTracingSampledSubset(t *testing.T) {
	const segs, ticks = 4, 120
	m, err := model.CompileSource(trafficSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(m, plan.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *telemetry.StageTracer) *Stats {
		eng, err := New(p, Config{
			PartitionBy:    []string{"seg"},
			Shards:         2,
			Stages:         tr,
			CollectOutputs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.RunBatches(newArenaTickSource(t, m, segs, ticks))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	tr := telemetry.NewStageTracer(10, 64)
	stTraced := run(tr)
	stPlain := run(nil)

	execs := tr.StageSnapshot(telemetry.StageExec).Count
	if execs == 0 {
		t.Fatal("sampling rate 10 recorded nothing")
	}
	// The sharded router samples per (tick, shard): at most
	// ticks×shards draws, at least ticks/10 (each draw is 1-in-10).
	if max := uint64(ticks * 2); execs > max {
		t.Errorf("rate 10 recorded %d exec spans, want ≤ %d", execs, max)
	}
	if st := stTraced; st.OutputCount != stPlain.OutputCount || st.Transitions != stPlain.Transitions {
		t.Errorf("tracing changed results: traced %+v, plain %+v", st, stPlain)
	}
}
