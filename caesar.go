// Package caesar is a context-aware complex event processing engine:
// a from-scratch Go implementation of the CAESAR system ("Context-
// aware Event Stream Analytics", Poppe, Lei, Rundensteiner and
// Dougherty, EDBT 2016).
//
// CAESAR treats application contexts — higher-order situations of
// unknown duration such as "congestion" or "accident" — as first-
// class citizens. Event queries are associated with contexts;
// context deriving queries initiate, switch and terminate context
// windows, and context processing queries run only while their
// window holds. The optimizer pushes context windows to the bottom
// of query plans, so whole plans suspend at constant cost while
// their context is inactive, and shares the workloads of overlapping
// context windows.
//
// # Quick start
//
//	src := `
//	EVENT Reading(sensor int, temp int, sec int)
//	EVENT Alarm(sensor int, temp int)
//
//	CONTEXT normal DEFAULT
//	CONTEXT overheated
//
//	SWITCH CONTEXT overheated
//	PATTERN Reading r
//	WHERE r.temp > 90
//	CONTEXT normal
//
//	SWITCH CONTEXT normal
//	PATTERN Reading r
//	WHERE r.temp < 70
//	CONTEXT overheated
//
//	DERIVE Alarm(r.sensor, r.temp)
//	PATTERN Reading r
//	CONTEXT overheated
//	`
//	eng, err := caesar.NewFromSource(src, caesar.Config{
//		PartitionBy:    []string{"sensor"},
//		CollectOutputs: true,
//	})
//	if err != nil { ... }
//	stats, err := eng.Run(source)
//
// The model language follows the paper's grammar (Fig. 4): queries
// are built from INITIATE/SWITCH/TERMINATE CONTEXT or DERIVE heads,
// a PATTERN clause (single events or SEQ with NOT negation), an
// optional WHERE predicate, an optional WITHIN horizon, and the
// CONTEXT clause naming the windows the query runs in.
package caesar

import (
	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/pam"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// Core engine types.
type (
	// Engine is a compiled, optimized, runnable CAESAR system.
	Engine = core.Engine
	// Config selects execution strategy and tuning knobs; the zero
	// value is the fully optimized context-aware configuration.
	Config = runtime.Config
	// Stats reports a run's measurements (maximal latency, counts,
	// suspension savings).
	Stats = runtime.Stats
	// Model is a compiled CAESAR model: context types with a default
	// context plus the compiled context-aware queries.
	Model = model.Model
)

// Event model types.
type (
	// Event is a simple or complex event.
	Event = event.Event
	// Value is a typed attribute value.
	Value = event.Value
	// Schema describes an event type.
	Schema = event.Schema
	// Time is an application timestamp.
	Time = event.Time
	// Source yields events in non-decreasing time order.
	Source = event.Source
	// SliceSource replays a slice of events.
	SliceSource = event.SliceSource
	// Registry resolves event type names to schemas.
	Registry = event.Registry
)

// New compiles and configures an engine for a model.
func New(m *Model, cfg Config) (*Engine, error) { return core.NewEngine(m, cfg) }

// NewFromSource parses a model file and builds an engine.
func NewFromSource(src string, cfg Config) (*Engine, error) {
	return core.NewEngineFromSource(src, cfg)
}

// ParseModel parses and compiles a CAESAR model file.
func ParseModel(src string) (*Model, error) { return model.CompileSource(src) }

// NewSliceSource wraps events as a Source. Events must be sorted by
// occurrence time (use SortByTime).
func NewSliceSource(events []*Event) *SliceSource { return event.NewSliceSource(events) }

// SortByTime stably sorts events by occurrence end time.
func SortByTime(events []*Event) { event.SortByTime(events) }

// Value constructors.
var (
	// Int64 builds an integer value.
	Int64 = event.Int64
	// Float64 builds a float value.
	Float64 = event.Float64
	// String builds a string value.
	String = event.String
	// Bool builds a boolean value.
	Bool = event.Bool
)

// NewEvent builds a simple event of schema s at time t.
func NewEvent(s *Schema, t Time, values ...Value) (*Event, error) {
	return event.New(s, t, values...)
}

// Built-in workloads: the Linear Road traffic benchmark and the
// physical activity monitoring data set used in the paper's
// evaluation (§7.1).

// LinearRoadModel renders the traffic-management CAESAR model with
// the processing workload replicated the given number of times.
func LinearRoadModel(replicas int) string { return linearroad.ModelSource(replicas) }

// LinearRoadConfig is the generator configuration for the traffic
// stream; see LinearRoadDefaults.
type LinearRoadConfig = linearroad.Config

// LinearRoadDefaults returns a laptop-scale traffic setup.
func LinearRoadDefaults() LinearRoadConfig { return linearroad.DefaultConfig() }

// GenerateLinearRoad produces the traffic event stream against the
// engine's registry.
func GenerateLinearRoad(cfg LinearRoadConfig, reg *Registry) ([]*Event, error) {
	return linearroad.Generate(cfg, reg)
}

// LinearRoadPartitionBy is the partition key of the traffic model
// (one unidirectional road segment).
func LinearRoadPartitionBy() []string { return linearroad.PartitionBy() }

// PAMModel renders the physical-activity-monitoring CAESAR model.
func PAMModel(replicas int) string { return pam.ModelSource(replicas) }

// PAMConfig is the generator configuration for the activity stream.
type PAMConfig = pam.Config

// PAMDefaults returns a laptop-scale activity monitoring setup.
func PAMDefaults() PAMConfig { return pam.DefaultConfig() }

// GeneratePAM produces the activity event stream against the
// engine's registry.
func GeneratePAM(cfg PAMConfig, reg *Registry) ([]*Event, error) {
	return pam.Generate(cfg, reg)
}

// PAMPartitionBy is the partition key of the activity model (one
// subject).
func PAMPartitionBy() []string { return pam.PartitionBy() }
