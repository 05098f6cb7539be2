// Durable state integration (DESIGN.md §3.9): the runtime side of the
// durability subsystem. Input ticks are appended to the write-ahead
// log before dispatch, periodic tick-aligned snapshots serialize every
// partition's state at a quiesce barrier, and Run recovers from the
// latest snapshot plus the WAL tail before consuming live input.
//
// Recovery gives exactly-once state and at-least-once output: partition
// state is restored to the snapshot tick and never re-executes a tick
// it already covers, while outputs derived between the snapshot and the
// crash are emitted again during WAL replay (a non-transactional sink
// cannot distinguish "delivered before the crash" from "not"). Ticks at
// or below the recovery point arriving from the live source are
// dropped, so re-feeding the full input stream after a restart resumes
// instead of double-processing.
//
// Everything here is gated on Config.DurableDir: with durability off,
// the dispatch paths see one nil check per tick and allocate nothing.
package runtime

import (
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/durability"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/telemetry"
	"github.com/caesar-cep/caesar/internal/wire"
)

// defaultCheckpointEvery is the snapshot interval, in dispatched
// ticks, that Resolve sets when Config.CheckpointEvery is 0.
const defaultCheckpointEvery = 512

// maxHealthyBacklog is the WAL backlog (bytes appended since the last
// checkpoint truncation) above which the durability probe degrades.
const maxHealthyBacklog = 64 << 20

// errSimulatedCrash aborts a run at a configured tick boundary; the
// recovery tests inject it to model a crash with the WAL flushed up to
// (but excluding) the crash tick.
var errSimulatedCrash = errors.New("runtime: simulated crash (test fault injection)")

// durableState is one run's durability context: the open WAL, the
// checkpoint cadence, the recovery dedup bound, and the metric
// surface. Owned by the dispatch/router goroutine except for the
// atomics the health probe reads.
type durableState struct {
	e           *Engine
	dir         string
	wal         *durability.WAL
	every       int
	fingerprint string

	// replaying suppresses WAL appends, pacing and checkpointing while
	// recovery re-dispatches the WAL tail (those ticks are already
	// logged).
	replaying bool
	// skipUntil is the recovery point: live ticks at or below it were
	// already processed via snapshot restore or WAL replay and are
	// dropped by the dispatch loops.
	skipUntil event.Time
	haveSkip  bool

	// ticksSince counts live ticks since the last checkpoint (atomic:
	// the health probe reads it from the scrape goroutine).
	ticksSince atomic.Int64
	// lastCkpt is the tick of the last snapshot written or restored
	// (MinInt64 before any).
	lastCkpt atomic.Int64

	// scratch carries the checkpoint's partition list across
	// invocations so the barrier path does not regrow it.
	scratch []partSnap
	// lastSyncs tracks the WAL's cumulative sync count for delta
	// publishing into walSyncs.
	lastSyncs uint64

	walFrames   telemetry.Counter
	walSyncs    telemetry.Counter
	walBacklog  telemetry.Gauge
	fsync       telemetry.Histogram
	replayed    telemetry.Counter
	dups        telemetry.Counter
	checkpoints telemetry.Counter
	ckptBytes   telemetry.Gauge
	ckptDur     telemetry.Histogram
}

// partSnap pairs a partition key with its state for checkpointing.
type partSnap struct {
	key string
	ps  *partitionState
}

func (e *Engine) newDurableState() *durableState {
	ds := &durableState{
		e:           e,
		dir:         e.cfg.DurableDir,
		every:       e.cfg.CheckpointEvery,
		fingerprint: e.durabilityFingerprint(),
	}
	ds.lastCkpt.Store(math.MinInt64)
	return ds
}

// walSyncEvery maps the resolved Config.WALSync onto the WAL's sync
// policy: N ≥ 1 syncs every N tick appends (1 is
// durability.SyncPerTick), negative leaves flushing to the OS.
func (e *Engine) walSyncEvery() int {
	if e.cfg.WALSync < 0 {
		return durability.SyncAsync
	}
	return e.cfg.WALSync
}

// durabilityFingerprint identifies the snapshot-compatible engine
// shape: a snapshot restores only into an engine that builds the same
// groups, units and kernel programs. The shard/worker count is
// deliberately absent — sections are keyed by partition and rerouted
// by hash on restore, so a snapshot taken under one topology restores
// under another.
func (e *Engine) durabilityFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "caesar-snap-v1|mode=%s|sharing=%t|fusion=%t|partition=%s",
		e.cfg.mode(), e.cfg.Sharing, e.cfg.FusePatterns, strings.Join(e.cfg.PartitionBy, ","))
	o := e.plan.Opts
	// The trailing false fills the slot of a removed kernel-selection
	// option, so snapshots written while it existed still restore.
	fmt.Fprintf(&b, "|opts=%t,%t,%d,%t,false",
		o.PushDown, o.EagerFilters, o.DefaultHorizon, o.DisableNegIndex)
	for gi := range e.groups {
		b.WriteString("|g")
		for i := range e.groups[gi].units {
			u := &e.groups[gi].units[i]
			fmt.Fprintf(&b, "|%s:%x:%d", u.qp.Query.Name, u.mask, u.qp.Horizon)
			for _, q := range u.fused {
				b.WriteByte('+')
				b.WriteString(q.Name)
			}
		}
	}
	return b.String()
}

// registerMetrics attaches the durability counters to the registry
// (replace semantics per run, like every other run metric).
func (ds *durableState) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Register("caesar_wal_frames_total", "WAL tick frames appended", &ds.walFrames)
	reg.Register("caesar_wal_syncs_total", "WAL fsync batches issued", &ds.walSyncs)
	reg.Register("caesar_wal_backlog_bytes", "bytes appended to the WAL since the last checkpoint truncation", &ds.walBacklog)
	reg.Register("caesar_wal_fsync_ns", "WAL fsync latency", &ds.fsync)
	reg.Register("caesar_wal_replayed_ticks_total", "WAL ticks re-dispatched during recovery", &ds.replayed)
	reg.Register("caesar_wal_duplicate_ticks_total", "input ticks dropped as already covered by recovery", &ds.dups)
	reg.Register("caesar_checkpoint_total", "snapshots written", &ds.checkpoints)
	reg.Register("caesar_checkpoint_bytes", "size of the last snapshot written", &ds.ckptBytes)
	reg.Register("caesar_checkpoint_write_ns", "snapshot serialize-and-write latency", &ds.ckptDur)
}

// registerHealth adds the durability probe: degraded while checkpoints
// fall behind the configured cadence or the WAL backlog grows past the
// truncation threshold.
func (ds *durableState) registerHealth(h *telemetry.Health, rh *runHealth) {
	if h == nil {
		return
	}
	every := int64(ds.every)
	h.Set("durability", func() telemetry.ProbeResult {
		backlog := ds.walBacklog.Value()
		age := ds.ticksSince.Load()
		switch {
		case !rh.done.Load() && age > 3*every:
			return telemetry.ProbeResult{OK: false,
				Detail: fmt.Sprintf("checkpoint overdue: %d ticks since last (interval %d)", age, every)}
		case backlog > maxHealthyBacklog:
			return telemetry.ProbeResult{OK: false,
				Detail: fmt.Sprintf("wal backlog %d bytes since last checkpoint", backlog)}
		default:
			return telemetry.ProbeResult{OK: true,
				Detail: fmt.Sprintf("last checkpoint t=%d, wal backlog %d bytes", ds.lastCkpt.Load(), backlog)}
		}
	})
}

// appendTick logs one tick's input batch before it is dispatched. The
// frame must be durable (per the sync policy) before any worker can
// act on the events — that ordering is what makes the WAL a redo log.
func (ds *durableState) appendTick(ts event.Time, evs []*event.Event) error {
	if err := ds.wal.Append(ts, evs); err != nil {
		return err
	}
	ds.walFrames.Inc()
	if s := ds.wal.Syncs(); s != ds.lastSyncs {
		ds.walSyncs.Add(s - ds.lastSyncs)
		ds.lastSyncs = s
	}
	ds.walBacklog.Set(ds.wal.Backlog())
	return nil
}

// tickDone advances the checkpoint cadence; true when the caller
// should checkpoint at this tick.
func (ds *durableState) tickDone() bool {
	return ds.ticksSince.Add(1) >= int64(ds.every)
}

// checkpoint serializes the quiesced partition states, writes the
// snapshot atomically and truncates the WAL to the oldest snapshot
// still retained. The caller holds the quiesce barrier: every
// dispatched tick ≤ ts is fully executed and its outputs delivered.
func (ds *durableState) checkpoint(ts event.Time, parts []partSnap) error {
	start := time.Now()
	sort.Slice(parts, func(i, j int) bool { return parts[i].key < parts[j].key })
	secs := make([]durability.Section, 0, len(parts))
	for _, p := range parts {
		data, err := savePartitionState(p.ps)
		if err != nil {
			return fmt.Errorf("runtime: checkpoint t=%d partition %q: %w", ts, p.key, err)
		}
		secs = append(secs, durability.Section{Key: "p:" + p.key, Data: data})
	}
	n, err := durability.WriteSnapshot(ds.dir, ts, ds.fingerprint, secs)
	if err != nil {
		return fmt.Errorf("runtime: checkpoint t=%d: %w", ts, err)
	}
	// Truncate only up to the oldest retained snapshot, not ts: if the
	// snapshot just written turns out corrupt at recovery time,
	// LoadLatestSnapshot falls back to the older image, and that
	// fallback is sound only while the WAL still holds every frame
	// after the older image's tick.
	bound := ts
	if oldest, ok := durability.OldestSnapshotTick(ds.dir); ok && oldest < bound {
		bound = oldest
	}
	if err := ds.wal.Truncate(bound); err != nil {
		return fmt.Errorf("runtime: wal truncate to t=%d: %w", bound, err)
	}
	ds.checkpoints.Inc()
	ds.ckptBytes.Set(n)
	ds.ckptDur.ObserveDuration(time.Since(start))
	ds.lastCkpt.Store(int64(ts))
	ds.walBacklog.Set(ds.wal.Backlog())
	ds.ticksSince.Store(0)
	return nil
}

// closeWAL closes the log after a clean run. Failed runs leave the
// files exactly as the sync policy last flushed them — that is the
// crash image recovery consumes.
func (ds *durableState) closeWAL() error {
	if ds == nil || ds.wal == nil {
		return nil
	}
	return ds.wal.Close()
}

// recover drives the common recovery sequence: load the latest usable
// snapshot, restore it through the runtime-specific hook, re-dispatch
// the WAL tail, then open the WAL for the run's own appends.
// restoredTo advances the caller's ordering clock to the snapshot
// tick; replay dispatches one recovered tick on the caller's path.
func (ds *durableState) recover(
	restore func(*durability.Snapshot) error,
	restoredTo func(event.Time),
	replay func(event.Time, []*event.Event) error,
) error {
	snap, err := durability.LoadLatestSnapshot(ds.dir, ds.fingerprint)
	if err != nil {
		return err
	}
	if snap != nil {
		if err := restore(snap); err != nil {
			return err
		}
		ds.skipUntil, ds.haveSkip = snap.Tick, true
		ds.lastCkpt.Store(int64(snap.Tick))
		restoredTo(snap.Tick)
	}
	ds.replaying = true
	last, ok, err := durability.ReplayWAL(ds.dir, ds.e.m.Registry, func(tick event.Time, evs []*event.Event) error {
		if ds.haveSkip && tick <= ds.skipUntil {
			ds.dups.Inc()
			return nil
		}
		if err := replay(tick, evs); err != nil {
			return err
		}
		ds.replayed.Inc()
		return nil
	})
	ds.replaying = false
	if err != nil {
		return err
	}
	if ok && (!ds.haveSkip || last > ds.skipUntil) {
		ds.skipUntil, ds.haveSkip = last, true
	}
	wal, err := durability.OpenWAL(ds.dir, ds.e.walSyncEvery())
	if err != nil {
		return err
	}
	ds.wal = wal
	ds.lastSyncs = wal.Syncs()
	wal.FsyncObserve = func(ns int64) { ds.fsync.Observe(ns) }
	return nil
}

// skipTick reports whether a live tick is at or below the recovery
// point (already processed via snapshot restore or WAL replay). The
// check runs before the ordering guards: recovered runs re-feed the
// stream from the start, and those ticks are below lastTS by design.
func (ds *durableState) skipTick(ts event.Time) bool {
	if ds == nil || !ds.haveSkip || ts > ds.skipUntil {
		return false
	}
	ds.dups.Inc()
	return true
}

// savePartitionState serializes one partition: per group, the context
// vector, the per-context open timestamps, and every plan instance's
// operator state. Events bound inside partial matches intern through
// one table per partition, so aliasing across instances survives.
func savePartitionState(ps *partitionState) ([]byte, error) {
	var body wire.Enc
	tab := wire.NewEventTable()
	body.Uvarint(uint64(len(ps.groups)))
	for _, g := range ps.groups {
		body.U64(g.vec.Bits())
		body.Time(g.vec.Time())
		body.Uvarint(uint64(len(g.openedAt)))
		for _, t := range g.openedAt {
			body.Time(t)
		}
		body.Uvarint(uint64(len(g.insts)))
		for _, is := range g.insts {
			if err := is.inst.Save(&body, tab); err != nil {
				return nil, err
			}
		}
	}
	var out wire.Enc
	tab.Encode(&out)
	out.Raw(body.Bytes())
	return out.Bytes(), nil
}

// loadPartitionState restores a section written by savePartitionState
// into a freshly built partition of the same engine shape, refreshing
// the activity flags and metric baselines the way resets do.
func (e *Engine) loadPartitionState(ps *partitionState, data []byte) error {
	d := wire.NewDec(data)
	evs := wire.DecodeEventTable(d, e.m.Registry)
	if d.Err() != nil {
		return d.Err()
	}
	bd := wire.NewDec(d.Raw())
	if d.Err() != nil {
		return d.Err()
	}
	if n := bd.Uvarint(); n != uint64(len(ps.groups)) {
		return fmt.Errorf("runtime: snapshot has %d groups, engine builds %d", n, len(ps.groups))
	}
	for _, g := range ps.groups {
		bits := bd.U64()
		at := bd.Time()
		if bd.Err() != nil {
			return bd.Err()
		}
		g.vec.Restore(bits, at)
		if n := bd.Uvarint(); n != uint64(len(g.openedAt)) {
			return fmt.Errorf("runtime: snapshot has %d contexts, engine builds %d", n, len(g.openedAt))
		}
		for i := range g.openedAt {
			g.openedAt[i] = bd.Time()
		}
		if n := bd.Uvarint(); n != uint64(len(g.insts)) {
			return fmt.Errorf("runtime: snapshot has %d instances, engine builds %d", n, len(g.insts))
		}
		for _, is := range g.insts {
			if err := is.inst.Load(bd, evs); err != nil {
				return err
			}
			is.wasActive = is.inst.Active()
			is.lastStats = is.inst.PatternStats()
			is.lastFoot = is.inst.Footprint()
			is.lastChunks = is.inst.ArenaChunks()
		}
	}
	if err := bd.Err(); err != nil {
		return err
	}
	if bd.Rem() != 0 {
		return fmt.Errorf("runtime: snapshot partition section has %d trailing bytes", bd.Rem())
	}
	return nil
}

// sectionKey extracts the partition key of a snapshot section.
func sectionKey(sec durability.Section) (string, error) {
	key, ok := strings.CutPrefix(sec.Key, "p:")
	if !ok {
		return "", fmt.Errorf("runtime: unknown snapshot section %q", sec.Key)
	}
	return key, nil
}

// ---- legacy pipeline (run) ----

// openDurable wires recovery and the WAL into a legacy-pipeline run.
// Called from the dispatch goroutine after the workers are spawned and
// before the decode stage starts; restored state reaches the workers
// with the happens-before of their first channel receive.
func (r *run) openDurable() error {
	ds := r.e.newDurableState()
	r.dur = ds
	ds.registerMetrics(r.e.cfg.Telemetry)
	ds.registerHealth(r.e.cfg.Health, r.health)
	return ds.recover(
		r.restoreSnapshot,
		func(t event.Time) { r.lastTS, r.haveLast = t, true },
		func(tick event.Time, evs []*event.Event) error {
			r.rm.events.Add(uint64(len(evs)))
			if err := r.dispatchTick(tick, evs); err != nil {
				return err
			}
			r.lastTS, r.haveLast = tick, true
			return nil
		},
	)
}

// restoreSnapshot routes every section to its partition, building the
// partition (and its state) exactly as first dispatch would.
func (r *run) restoreSnapshot(snap *durability.Snapshot) error {
	for _, sec := range snap.Sections {
		key, err := sectionKey(sec)
		if err != nil {
			return err
		}
		var p *partition
		if key == controlKey {
			p = r.dist.controlPartition()
		} else if q, ok := r.dist.table[key]; ok {
			p = q
		} else {
			p = r.dist.intern(key)
		}
		ps := p.state
		if ps == nil {
			ps = p.worker.newPartition(key)
			p.state = ps
		}
		if err := r.e.loadPartitionState(ps, sec.Data); err != nil {
			return fmt.Errorf("runtime: restore partition %q: %w", key, err)
		}
	}
	return nil
}

// maybeCheckpoint snapshots the run every CheckpointEvery ticks: the
// worker pool is quiesced (completed catches sentTS — outputs are
// emitted synchronously on worker goroutines, so completion implies
// delivery), then every partition serializes on this goroutine.
func (r *run) maybeCheckpoint(ts event.Time) error {
	ds := r.dur
	if !ds.tickDone() {
		return nil
	}
	for _, w := range r.workers {
		if w.sentTS == math.MinInt64 {
			continue
		}
		for w.completed.Load() < w.sentTS {
			gort.Gosched()
		}
	}
	snaps := ds.scratch[:0]
	for key, p := range r.dist.table {
		if p.state != nil {
			snaps = append(snaps, partSnap{key, p.state})
		}
	}
	ds.scratch = snaps[:0]
	return ds.checkpoint(ts, snaps)
}

// ---- sharded runtime (shardedRun) ----

// openDurable wires recovery and the WAL into a sharded run. Called
// from the router goroutine after the shard goroutines are spawned;
// restored state reaches each shard with the happens-before of its
// first ring pop.
func (r *shardedRun) openDurable() error {
	ds := r.e.newDurableState()
	r.dur = ds
	ds.registerMetrics(r.e.cfg.Telemetry)
	ds.registerHealth(r.e.cfg.Health, r.health)
	return ds.recover(
		r.restoreSnapshot,
		func(t event.Time) { r.lastTS, r.haveLast = t, true },
		r.replayTick,
	)
}

// restoreSnapshot routes every section to its owning shard by the same
// hash the router uses, so restored partitions land exactly where live
// events will find them — under any shard count.
func (r *shardedRun) restoreSnapshot(snap *durability.Snapshot) error {
	for _, sec := range snap.Sections {
		key, err := sectionKey(sec)
		if err != nil {
			return err
		}
		s := r.shards[pickIdx(fnv1a(key), len(r.shards), r.smask)]
		p, ok := s.table[key]
		if !ok {
			p = s.intern(key)
		}
		if key == controlKey && s.control == nil {
			s.control = p
		}
		ps := p.state
		if ps == nil {
			ps = s.w.newPartition(key)
			p.state = ps
		}
		if err := r.e.loadPartitionState(ps, sec.Data); err != nil {
			return fmt.Errorf("runtime: restore partition %q: %w", key, err)
		}
	}
	return nil
}

// replayTick routes one recovered tick to the shards: Arrival stamped,
// grants flushed per tick, no pacing, no stage spans, no WAL append
// (the tick is already in the log).
func (r *shardedRun) replayTick(ts event.Time, evs []*event.Event) error {
	r.rm.events.Add(uint64(len(evs)))
	r.rm.ticks.Inc()
	arrival := time.Now().UnixNano()
	for _, ev := range evs {
		ev.Arrival = arrival
		si := r.shardOf(ev)
		msg := r.pending[si]
		if msg == nil {
			msg = r.grant(si)
			r.pending[si] = msg
		}
		msg.evs = append(msg.evs, ev)
	}
	r.flush()
	r.lastTS, r.haveLast = ts, true
	r.health.routed.Store(int64(ts))
	return nil
}

// maybeCheckpoint snapshots a sharded run every CheckpointEvery ticks.
// Quiesce works in three steps: flush the pending grants; push a mark
// grant to every shard the current tick never touched (an idle shard
// never advances completed, which would stall both this barrier and
// the merger's release scan); spin until every shard's completed mark
// and — when outputs merge — the merger's released tick reach ts, so
// every output at or below ts is delivered before state serializes.
func (r *shardedRun) maybeCheckpoint(ts event.Time) error {
	ds := r.dur
	if !ds.tickDone() {
		return nil
	}
	r.flush()
	for _, s := range r.shards {
		if s.sentTS < int64(ts) {
			msg := r.grant(uint32(s.id))
			msg.mark, msg.hasMark = int64(ts), true
			s.sentTS = int64(ts)
			s.in.push(msg)
		}
	}
	for _, s := range r.shards {
		for s.completed.Load() < s.sentTS {
			gort.Gosched()
		}
	}
	if m := r.mrg; m != nil {
		for m.released.Load() < int64(ts) {
			m.wake()
			gort.Gosched()
		}
	}
	snaps := ds.scratch[:0]
	for _, s := range r.shards {
		for key, p := range s.table {
			if p.state != nil {
				snaps = append(snaps, partSnap{key, p.state})
			}
		}
	}
	ds.scratch = snaps[:0]
	return ds.checkpoint(ts, snaps)
}
