package runtime

import (
	"strconv"

	"github.com/caesar-cep/caesar/internal/telemetry"
)

// runMetrics is one Run's metric set (see DESIGN.md §3.3). The
// metric objects are plain atomic structs owned by the run; Stats is
// derived from them at the end of the run, and when a telemetry
// registry is configured the same objects are registered there, so
// the live /metrics view and the end-of-run Stats report identical
// numbers by construction.
//
// Layout follows the writers: per-worker metrics are written by
// exactly one goroutine each (no contention, no false sharing — each
// workerMetrics is its own allocation); engine-level metrics are
// either single-writer (events/ticks belong to the driver goroutine)
// or written on cold paths (context transitions, partition interning)
// and per-derived-event paths (output latency, per-type counts), where
// cross-worker contention is bounded by the output rate, not the
// input rate.
type runMetrics struct {
	events     telemetry.Counter // input events (driver goroutine)
	ticks      telemetry.Counter // dispatched ticks (driver goroutine)
	partitions telemetry.Gauge   // interned partitions (partition tables)

	// Ingest pipeline metrics: batches dispatched (dispatch
	// goroutine), arena slabs reclaimed (decode goroutine), and the
	// read-ahead ring depth probe set where the run builds its ring.
	batches   telemetry.Counter
	reclaims  telemetry.Counter
	ringDepth func() int64

	// outputLatency tracks arrival→derivation latency per derived
	// event in nanoseconds (the paper's latency metric, §7.1).
	outputLatency telemetry.Histogram
	// perType counts derived events by schema index.
	perType []telemetry.Counter

	// ctx is indexed by context index: the stream router's
	// per-context window activity.
	ctx []ctxMetrics

	workers []*workerMetrics

	// query is indexed by execUnit.qmIdx: per-operator counters.
	// Updated only when detail is set (a registry is attached) — the
	// plain Stats path never pays for them.
	query  []queryMetrics
	detail bool

	// stages is the stage-span tracer (Config.Stages); nil disables
	// all stage clock reads. Shared with the distributor / router.
	stages *telemetry.StageTracer
}

// ctxMetrics is the router's per-context activity: activations
// (windows opened), suspensions (windows closed) and the lifetime of
// closed windows in application time units.
type ctxMetrics struct {
	activations telemetry.Counter
	suspensions telemetry.Counter
	lifetime    telemetry.Histogram
}

// workerMetrics mirrors the former plain per-worker counters as
// atomics, so a live scraper can read them mid-run without torn
// reads. Each instance is written by its worker goroutine only.
type workerMetrics struct {
	txns           telemetry.Counter
	outputs        telemetry.Counter
	transitions    telemetry.Counter
	suspendedSkips telemetry.Counter
	instanceExecs  telemetry.Counter
	eventsFed      telemetry.Counter
	historyResets  telemetry.Counter
	// txnLatency is the per-worker stream-transaction execution time
	// in nanoseconds; only fed when txn timing is on (detail mode).
	txnLatency telemetry.Histogram
	// Derived-event arena occupancy (DESIGN.md §3.8): lifetime slabs
	// allocated, sealed slabs awaiting reclamation, and slabs
	// recycled. Mirrored from the worker-confined arena after each
	// reclamation pass, so a live scrape reads single-writer atomics,
	// never the arena's plain counters.
	derivedChunks    telemetry.Gauge
	derivedLive      telemetry.Gauge
	derivedReclaimed telemetry.Counter
}

// queryMetrics is the per-operator breakdown of one query plan,
// aggregated over all partitions.
type queryMetrics struct {
	execs       telemetry.Counter
	matches     telemetry.Counter
	filteredOut telemetry.Counter
	negated     telemetry.Counter
	negChecks   telemetry.Counter
	arenaChunks telemetry.Counter
	negBuffered telemetry.Gauge
	pending     telemetry.Gauge
	runNodes    telemetry.Gauge
	predEntries telemetry.Gauge
}

func newRunMetrics(e *Engine, nWorkers int) *runMetrics {
	rm := &runMetrics{
		perType: make([]telemetry.Counter, e.m.Registry.Len()),
		ctx:     make([]ctxMetrics, len(e.m.Contexts)),
		workers: make([]*workerMetrics, nWorkers),
		query:   make([]queryMetrics, len(e.queryNames)),
		detail:  e.cfg.Telemetry != nil,
		stages:  e.cfg.Stages,
	}
	for i := range rm.workers {
		rm.workers[i] = &workerMetrics{}
	}
	return rm
}

// reset rewinds every per-run metric so a cached run's Stats cover
// only the new run. The partitions gauge is deliberately kept: the
// partition tables persist across runs (that is the point of run
// reuse), so the gauge keeps reflecting the interned count.
func (rm *runMetrics) reset() {
	rm.events.Reset()
	rm.ticks.Reset()
	rm.batches.Reset()
	rm.reclaims.Reset()
	rm.outputLatency.Reset()
	for i := range rm.perType {
		rm.perType[i].Reset()
	}
	for i := range rm.ctx {
		rm.ctx[i].activations.Reset()
		rm.ctx[i].suspensions.Reset()
		rm.ctx[i].lifetime.Reset()
	}
	for _, wm := range rm.workers {
		wm.txns.Reset()
		wm.outputs.Reset()
		wm.transitions.Reset()
		wm.suspendedSkips.Reset()
		wm.instanceExecs.Reset()
		wm.eventsFed.Reset()
		wm.historyResets.Reset()
		wm.txnLatency.Reset()
		wm.derivedChunks.Set(0)
		wm.derivedLive.Set(0)
		wm.derivedReclaimed.Reset()
	}
	for i := range rm.query {
		qm := &rm.query[i]
		qm.execs.Reset()
		qm.matches.Reset()
		qm.filteredOut.Reset()
		qm.negated.Reset()
		qm.negChecks.Reset()
		qm.arenaChunks.Reset()
		qm.negBuffered.Set(0)
		qm.pending.Set(0)
		qm.runNodes.Set(0)
		qm.predEntries.Set(0)
	}
}

// register attaches the run's metric objects to the registry. Called
// once per Run; re-registration replaces the previous run's entries
// (telemetry.Registry documents the replace semantics).
func (rm *runMetrics) register(reg *telemetry.Registry, e *Engine, workers []*worker) {
	if reg == nil {
		return
	}
	reg.Register("caesar_events_total", "input events consumed", &rm.events)
	reg.Register("caesar_ticks_total", "application time ticks dispatched", &rm.ticks)
	reg.Register("caesar_partitions", "stream partitions interned", &rm.partitions)
	reg.Register("caesar_output_latency_ns", "arrival-to-derivation latency of derived events", &rm.outputLatency)
	reg.Register("caesar_ingest_batches_total", "ingest batches dispatched", &rm.batches)
	reg.Register("caesar_ingest_reclaimed_chunks_total", "event arena slabs reclaimed", &rm.reclaims)
	if rm.ringDepth != nil {
		reg.Register("caesar_ingest_ring_depth", "decoded batches queued ahead of dispatch",
			telemetry.GaugeFunc(rm.ringDepth))
	}

	schemas := e.m.Registry.Schemas()
	for i := range rm.perType {
		reg.Register("caesar_outputs_by_type_total", "derived events by type",
			&rm.perType[i], telemetry.Label{Key: "type", Value: schemas[i].Name()})
	}
	for i := range rm.ctx {
		lbl := telemetry.Label{Key: "context", Value: e.m.Contexts[i].Name}
		reg.Register("caesar_context_activations_total", "context windows opened", &rm.ctx[i].activations, lbl)
		reg.Register("caesar_context_suspensions_total", "context windows closed", &rm.ctx[i].suspensions, lbl)
		reg.Register("caesar_context_window_ticks", "closed context window lifetime in application time units", &rm.ctx[i].lifetime, lbl)
	}
	for i, wm := range rm.workers {
		lbl := telemetry.Label{Key: "worker", Value: strconv.Itoa(i)}
		reg.Register("caesar_worker_txns_total", "stream transactions executed", &wm.txns, lbl)
		reg.Register("caesar_worker_outputs_total", "derived events emitted", &wm.outputs, lbl)
		reg.Register("caesar_worker_transitions_total", "context transitions applied", &wm.transitions, lbl)
		reg.Register("caesar_worker_suspended_skips_total", "plan executions skipped by the router", &wm.suspendedSkips, lbl)
		reg.Register("caesar_worker_instance_execs_total", "plan executions performed", &wm.instanceExecs, lbl)
		reg.Register("caesar_worker_events_fed_total", "events delivered to active plans", &wm.eventsFed, lbl)
		reg.Register("caesar_worker_history_resets_total", "context history discards", &wm.historyResets, lbl)
		reg.Register("caesar_txn_latency_ns", "stream transaction execution time", &wm.txnLatency, lbl)
		w := workers[i]
		reg.Register("caesar_worker_queue_depth", "transactions queued at the worker",
			telemetry.GaugeFunc(w.queueDepth), lbl)
		reg.Register("caesar_derived_arena_chunks", "derived-event arena slabs allocated", &wm.derivedChunks, lbl)
		reg.Register("caesar_derived_arena_live_chunks", "sealed derived-event slabs awaiting reclamation", &wm.derivedLive, lbl)
		reg.Register("caesar_derived_arena_reclaimed_total", "derived-event slabs recycled by watermark reclamation", &wm.derivedReclaimed, lbl)
	}
	for i := range rm.query {
		lbl := telemetry.Label{Key: "query", Value: e.queryNames[i]}
		qm := &rm.query[i]
		reg.Register("caesar_query_execs_total", "plan executions", &qm.execs, lbl)
		reg.Register("caesar_query_matches_total", "pattern matches emitted", &qm.matches, lbl)
		reg.Register("caesar_query_filtered_total", "matches rejected by predicates", &qm.filteredOut, lbl)
		reg.Register("caesar_query_negated_total", "matches invalidated by negation", &qm.negated, lbl)
		reg.Register("caesar_query_negation_checks_total", "negation conditions evaluated against buffered candidates", &qm.negChecks, lbl)
		reg.Register("caesar_query_arena_chunks_total", "arena slabs allocated", &qm.arenaChunks, lbl)
		reg.Register("caesar_query_neg_buffered", "buffered negation events", &qm.negBuffered, lbl)
		reg.Register("caesar_query_pending", "matches awaiting a negation deadline", &qm.pending, lbl)
		reg.Register("caesar_query_run_nodes", "shared automaton run nodes retained", &qm.runNodes, lbl)
		reg.Register("caesar_query_pred_entries", "predecessor-set entries across run nodes", &qm.predEntries, lbl)
	}
	rm.stages.RegisterOn(reg)
}

// registerShardMetrics attaches the sharded runtime's per-shard view:
// input ring occupancy, cumulative stall time on both ring sides,
// owned partitions, and the last completed tick. Worker-level
// execution metrics are covered by register above (each shard's
// worker occupies one workerMetrics slot).
func registerShardMetrics(reg *telemetry.Registry, shards []*engineShard) {
	if reg == nil {
		return
	}
	for _, s := range shards {
		s := s
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(s.id)}
		reg.Register("caesar_shard_ring_occupancy", "grants queued in the router-to-shard ring",
			telemetry.GaugeFunc(s.in.occupancy), lbl)
		reg.Register("caesar_shard_router_stall_ns", "time the router spent blocked on a full shard ring",
			telemetry.GaugeFunc(func() int64 { p, _ := s.in.stallNs(); return p }), lbl)
		reg.Register("caesar_shard_stall_ns", "time the shard spent blocked on an empty ring",
			telemetry.GaugeFunc(func() int64 { _, c := s.in.stallNs(); return c }), lbl)
		reg.Register("caesar_shard_partitions", "stream partitions owned by the shard",
			telemetry.GaugeFunc(s.parts.Load), lbl)
		reg.Register("caesar_shard_completed_tick", "last application tick fully executed by the shard",
			telemetry.GaugeFunc(s.w.completed.Load), lbl)
	}
}
