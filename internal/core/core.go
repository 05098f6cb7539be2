// Package core assembles the CAESAR system — the paper's primary
// contribution — out of its layers (paper Fig. 8): the specification
// layer (internal/lang, internal/model), the optimization layer
// (internal/plan, internal/optimizer) and the execution layer
// (internal/runtime). An Engine owns a compiled model, the optimized
// (or deliberately non-optimized) query plan, and a configured
// runtime; Run executes streams against it.
package core

import (
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/optimizer"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// Config selects the execution strategy and tuning knobs of an
// Engine; it is the runtime's configuration (see runtime.Config). The
// zero value is the fully optimized context-aware configuration of
// the paper.
type Config = runtime.Config

// Engine is a compiled, optimized, runnable CAESAR system.
type Engine struct {
	model *model.Model
	plan  *plan.Plan
	rt    *runtime.Engine
	cfg   Config
}

// NewEngine compiles the plan cfg's strategy selects for a model and
// configures the runtime.
func NewEngine(m *model.Model, cfg Config) (*Engine, error) {
	p, err := plan.Build(m, cfg.PlanOptions())
	if err != nil {
		return nil, err
	}
	rt, err := runtime.New(p, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{model: m, plan: p, rt: rt, cfg: cfg}, nil
}

// NewEngineFromSource parses, compiles and configures in one step.
func NewEngineFromSource(src string, cfg Config) (*Engine, error) {
	m, err := model.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return NewEngine(m, cfg)
}

// Model returns the compiled model.
func (e *Engine) Model() *model.Model { return e.model }

// Plan returns the compiled query plan.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Registry returns the model's event type registry; event sources
// must build events against it.
func (e *Engine) Registry() *event.Registry { return e.model.Registry }

// SharingStats reports how much the workload-sharing pass shrank the
// query set (1:1 when sharing is off).
func (e *Engine) SharingStats() optimizer.SharingStats {
	var qs []*model.Query
	for _, qp := range e.plan.Queries {
		qs = append(qs, qp.Query)
	}
	if e.cfg.Sharing {
		return optimizer.Stats(optimizer.ShareWorkload(qs), len(qs))
	}
	return optimizer.Stats(optimizer.NonShared(qs), len(qs))
}

// Run executes the engine over a source until exhaustion. Engines
// are reusable: each Run starts from fresh partition state. Sources
// that also implement event.BatchSource feed the pipelined ingest
// path (see runtime.Engine.Run).
func (e *Engine) Run(src event.Source) (*runtime.Stats, error) {
	return e.rt.Run(src)
}

// RunBatches executes the engine over a batch-oriented source, e.g. a
// linearroad.Stream that generates directly into an event arena.
func (e *Engine) RunBatches(src event.BatchSource) (*runtime.Stats, error) {
	return e.rt.RunBatches(src)
}
