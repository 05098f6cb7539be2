package runtime

import (
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// TestResolve covers the one resolution point: every invalid
// combination the engine rejects, the defaults it fills in, and
// idempotence.
func TestResolve(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative workers":             {Workers: -1},
		"negative shards":              {Shards: -1},
		"negative checkpoint interval": {DurableDir: "d", CheckpointEvery: -1},
		"negative interval, no dir":    {CheckpointEvery: -1},
		"negative slab size":           {DerivedChunkEvents: -1},
		"negative pacing":              {Pacing: -1},
		"CI with sharing":              {ContextIndependent: true, Sharing: true},
		"CI with fusion":               {ContextIndependent: true, FusePatterns: true},
		"CI with no-pushdown":          {ContextIndependent: true, DisablePushDown: true},
	} {
		if _, err := cfg.Resolve(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	got, err := Config{DurableDir: "d", Stages: telemetry.NewStageTracer(3, 0)}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != 4 || got.Shards != 1 || got.CheckpointEvery != 512 || got.WALSync != 1 {
		t.Errorf("defaults = workers %d shards %d checkpoint %d wal sync %d, want 4 1 512 1",
			got.Workers, got.Shards, got.CheckpointEvery, got.WALSync)
	}
	for _, cfg := range []Config{
		{},
		{DurableDir: "d", WALSync: -1, CheckpointEvery: 16, Workers: 2, Shards: 3},
		{ContextIndependent: true, PartitionBy: []string{"seg"}, Pacing: 5},
		{Sharing: true, FusePatterns: true, DisablePushDown: true, DefaultHorizon: 90},
	} {
		once, err := cfg.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		twice, err := once.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("resolve not idempotent:\n once: %+v\ntwice: %+v", once, twice)
		}
		if once.PlanOptions() != cfg.PlanOptions() {
			t.Errorf("resolve changed the plan options of %+v", cfg)
		}
	}
}

// TestPlanOptions pins the strategy → plan mapping.
func TestPlanOptions(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want plan.Options
	}{
		{Config{}, plan.Optimized()},
		{Config{DisablePushDown: true}, plan.NonOptimized()},
		{Config{ContextIndependent: true}, plan.Baseline()},
	} {
		c.want.DefaultHorizon = 42
		c.cfg.DefaultHorizon = 42
		if got := c.cfg.PlanOptions(); got != c.want {
			t.Errorf("%+v: plan options %+v, want %+v", c.cfg, got, c.want)
		}
	}
}
