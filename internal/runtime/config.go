package runtime

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"github.com/caesar-cep/caesar/internal/durability"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// defaultWorkers is the worker pool size when Config.Workers is 0.
const defaultWorkers = 4

// Config is the engine's one configuration: the execution strategy
// the paper evaluates plus the runtime's tuning knobs and hooks. The
// zero value is the fully optimized context-aware configuration.
// Resolve validates it and fills in the defaults; New resolves the
// configuration it is given, so callers only resolve themselves when
// they need the effective values (the /buildz summary).
type Config struct {
	// ContextIndependent switches to the state-of-the-art baseline
	// (§7.3): every query runs on every event, and every context
	// processing query privately re-derives the contexts it depends
	// on.
	ContextIndependent bool
	// Sharing enables context workload sharing (§5.3): equivalent
	// queries from overlapping contexts execute as one instance.
	// Context-aware mode only.
	Sharing bool
	// FusePatterns enables pattern fusion (the §5.3 MQO step): DERIVE
	// queries with identical pattern, filters, horizon and context
	// mask evaluate one shared pattern with multiple projection
	// heads. Context-aware mode only.
	FusePatterns bool
	// DisablePushDown keeps context windows above the pattern/filter
	// operators (the Fig. 6a / Fig. 11b non-optimized plan).
	// Context-aware mode only; the baseline is always non-pushed.
	DisablePushDown bool
	// DefaultHorizon overrides the default pattern matching horizon
	// (see plan.DefaultHorizon) when positive.
	DefaultHorizon int64
	// PartitionBy names the attributes forming the stream partition
	// key (e.g. xway, dir, seg). Events carrying none of the key
	// attributes land in partition "·", a dedicated control
	// partition.
	PartitionBy []string
	// Workers is the worker pool size of the single-router pipeline;
	// 0 means 4. Ignored when the sharded runtime runs (Shards > 1):
	// shards are the execution units then.
	Workers int
	// Shards selects the sharded multi-core runtime (DESIGN.md §3.6):
	// N independent engine shards, each owning a disjoint set of
	// stream partitions end to end, fed through lock-free SPSC rings.
	// 0 and 1 run the single-router pipeline (distributor + worker
	// pool). The engine never sizes itself from GOMAXPROCS; callers
	// that want one shard per core resolve that themselves.
	Shards int
	// Pacing, when positive, replays the stream in real time: one
	// application time unit lasts Pacing of wall time. Zero feeds the
	// stream as fast as possible, so maximal latency measures CPU
	// backlog (the paper's win-ratio configuration).
	Pacing time.Duration
	// CollectOutputs retains all derived events in Stats.Outputs.
	CollectOutputs bool
	// DerivedChunkEvents sizes the per-execution-unit derived-event
	// slab arena (DESIGN.md §3.8), in events; 0 means
	// event.DefaultChunkEvents.
	DerivedChunkEvents int
	// OnOutput, when set, is invoked for every derived output event.
	// On the worker pool it is called concurrently from worker
	// goroutines; on the sharded runtime (Shards > 1) it is called
	// from a single merger goroutine in deterministic order — sorted
	// by derivation tick, then shard, then emission order (the
	// ordered merge layer, DESIGN.md §3.6). A consumer that buffers
	// should flush in OnIdle: nothing else tells it that no output is
	// about to follow.
	//
	// Derived events live in the execution unit's slab arena: an event
	// handed to OnOutput is valid for the duration of the callback and
	// until its tick falls behind the reclamation watermark, after
	// which its slab is recycled. A consumer that retains events
	// beyond that must copy them (event.Clone). Stats.Outputs is
	// always safe: collected events are cloned to the heap at emit
	// time.
	OnOutput func(*event.Event)
	// OnIdle, when set, is called by a goroutine that delivers OnOutput
	// once it has delivered everything it holds and is about to wait for
	// more: a pool worker whose queue is empty after a tick, or the
	// sharded runtime's merger after a release with no wake-up pending
	// (DESIGN.md §3.10). On the worker pool it is called concurrently
	// from worker goroutines.
	OnIdle func()
	// Telemetry, when set, registers the run's live metrics with the
	// registry: per-worker transaction counters and latency
	// histograms, per-context window activity, per-query operator
	// counters and queue-depth gauges. Stats is derived from the same
	// metric objects, so a live scrape and the end-of-run report
	// agree. When nil, only the always-on counters run (plain atomic
	// adds); per-query detail and per-transaction timing are skipped.
	Telemetry *telemetry.Registry
	// Stages, when set, samples tick timelines end to end through the
	// pipeline (decode, queue wait, route, ring wait, execute, merge
	// hold-back) into per-stage latency histograms and the flight
	// recorder behind /tracez (DESIGN.md §3.7). Sampling is 1-in-N
	// (the tracer's rate); unsampled ticks pay one atomic add. When
	// nil, no stage clocks are read at all.
	Stages *telemetry.StageTracer
	// Health, when set, receives the run's liveness/readiness probes
	// (engine running, watermark advancing, execution units draining)
	// behind /healthz. Probes are replaced per run, like registry
	// metrics.
	Health *telemetry.Health
	// DurableDir, when non-empty, enables the durability subsystem
	// (DESIGN.md §3.9): every tick's input batch is appended to a
	// write-ahead log under the directory before dispatch, periodic
	// tick-aligned snapshots of all partition state are written
	// alongside, and Run recovers from the latest snapshot plus the
	// WAL tail before consuming live input. Ticks already covered by
	// recovery are dropped from the live source, so re-feeding the
	// full input after a restart resumes exactly-once.
	DurableDir string
	// CheckpointEvery is the snapshot interval in dispatched ticks; 0
	// means 512. Durability only.
	CheckpointEvery int
	// WALSync selects the WAL fsync policy: 0 or 1 sync after every
	// tick append (a crash loses at most the tick being written), N > 1
	// syncs every N appends, negative leaves flushing to the OS
	// (fastest, weakest). Resolve turns 0 into 1. Durability only.
	WALSync int
	// testCrashTick, when positive, aborts the run with a simulated
	// crash at the boundary before the first tick at or beyond it
	// (fault injection for the recovery tests).
	testCrashTick int64
}

// Resolve validates the configuration and returns it with every
// default filled in: Workers 4, Shards 1, CheckpointEvery 512 and a
// per-tick WALSync. It is pure and idempotent; New calls it, and a
// caller that reports the effective configuration resolves once and
// hands the result to both the engine and the report.
func (c Config) Resolve() (Config, error) {
	switch {
	case c.Workers < 0:
		return Config{}, errors.New("runtime: negative worker count")
	case c.Shards < 0:
		return Config{}, errors.New("runtime: negative shard count")
	case c.CheckpointEvery < 0:
		return Config{}, errors.New("runtime: negative checkpoint interval")
	case c.DerivedChunkEvents < 0:
		return Config{}, errors.New("runtime: negative derived-event slab size")
	case c.Pacing < 0:
		return Config{}, errors.New("runtime: negative pacing")
	case c.ContextIndependent && (c.Sharing || c.FusePatterns):
		return Config{}, errors.New("runtime: workload sharing and pattern fusion require context-aware mode")
	case c.ContextIndependent && c.DisablePushDown:
		return Config{}, errors.New("runtime: the context-independent baseline is already non-pushed-down")
	}
	if c.Workers == 0 {
		c.Workers = defaultWorkers
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = defaultCheckpointEvery
	}
	if c.WALSync == 0 {
		c.WALSync = durability.SyncPerTick
	}
	return c, nil
}

// PlanOptions maps the execution strategy onto plan options: the
// optimized plan for context-aware processing, the non-pushed plan
// with DisablePushDown, and the baseline plan for the
// context-independent strategy, each with DefaultHorizon applied.
func (c Config) PlanOptions() plan.Options {
	opts := plan.Optimized()
	switch {
	case c.ContextIndependent:
		opts = plan.Baseline()
	case c.DisablePushDown:
		opts = plan.NonOptimized()
	}
	opts.DefaultHorizon = c.DefaultHorizon
	return opts
}

// mode names the execution strategy, as the durability fingerprint
// and the /buildz summary print it.
func (c Config) mode() string {
	if c.ContextIndependent {
		return "context-independent"
	}
	return "context-aware"
}

// Summary renders the configuration as a flat string map — the
// config block of the /buildz admin endpoint. Summarize a resolved
// configuration to report the values the engine runs with; workers
// appears only on the pool (Shards ≤ 1).
func (c Config) Summary() map[string]string {
	s := map[string]string{
		"mode":         c.mode(),
		"sharing":      strconv.FormatBool(c.Sharing),
		"fusion":       strconv.FormatBool(c.FusePatterns),
		"pushdown":     strconv.FormatBool(!c.DisablePushDown && !c.ContextIndependent),
		"partition_by": strings.Join(c.PartitionBy, ","),
		"shards":       strconv.Itoa(c.Shards),
	}
	if c.Shards <= 1 { // the shards ignore the pool size
		s["workers"] = strconv.Itoa(c.Workers)
	}
	if c.Pacing > 0 {
		s["pacing"] = c.Pacing.String()
	}
	if c.Stages != nil {
		s["trace_sample_rate"] = strconv.Itoa(c.Stages.SampleRate())
	}
	if c.DurableDir != "" {
		s["durable_dir"] = c.DurableDir
		s["checkpoint_every"] = strconv.Itoa(c.CheckpointEvery)
		s["wal_sync"] = strconv.Itoa(c.WALSync)
	}
	return s
}
