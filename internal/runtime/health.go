// Run health probes behind /healthz (DESIGN.md §3.7). Each Run
// registers three probes on Config.Health — replacing the previous
// run's, like registry metrics:
//
//   - engine:    the run is alive, completed cleanly, or failed (the
//     error becomes the probe detail).
//   - watermark: execution progress. Healthy while the furthest
//     completed tick keeps up with the routed tick or has advanced
//     since the previous probe; a backlog that stops moving between
//     two scrapes reports stalled.
//   - workers / shards: queued work is draining. Backlog is reported
//     as detail; undrained work after run completion fails the probe.
//
// Probes run on the scrape goroutine and read only atomics and
// channel/ring occupancy, so they are safe at any moment of the run
// and cost the hot path one atomic store per tick (the routed mark).
package runtime

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/caesar-cep/caesar/internal/telemetry"
)

// runHealth is the probe-visible state of one run. It exists even
// with no Config.Health (the stores are cheap and unconditional,
// keeping the driver's tick branch-free).
type runHealth struct {
	// routed is the last tick handed to the execution units, written
	// by the driver goroutine. MinInt64 = nothing routed.
	routed atomic.Int64
	done   atomic.Bool
	// failMsg holds the run error's text once finished with one.
	failMsg atomic.Value // string
	// lastSeen remembers the completed mark of the previous watermark
	// probe call (scrape-side memory for stall detection).
	lastSeen atomic.Int64
}

// reset rearms a cached run's health state for its next execution.
// Only reached from clean-run reuse (a failed run drops the run
// cache), so failMsg is never populated here.
func (rh *runHealth) reset() {
	rh.routed.Store(math.MinInt64)
	rh.done.Store(false)
	rh.lastSeen.Store(math.MaxInt64)
}

// finish marks the run complete, recording the error if any.
func (rh *runHealth) finish(err error) {
	if rh == nil {
		return
	}
	if err != nil {
		rh.failMsg.Store(err.Error())
	}
	rh.done.Store(true)
}

// registerRunHealth builds a run's health state and registers its
// probes. unit names the execution-unit probe ("workers" or
// "shards"); completed reports the furthest fully executed tick
// (MinInt64 before any), backlog the queued-but-unexecuted work.
func registerRunHealth(h *telemetry.Health, unit string, completed, backlog func() int64) *runHealth {
	rh := &runHealth{}
	rh.routed.Store(math.MinInt64)
	// MaxInt64 = "no previous observation": the first probe is always
	// healthy, and the sentinel can never collide with a real
	// completed mark.
	rh.lastSeen.Store(math.MaxInt64)
	if h == nil {
		return rh
	}
	h.Set("engine", func() telemetry.ProbeResult {
		if msg, ok := rh.failMsg.Load().(string); ok {
			return telemetry.ProbeResult{OK: false, Detail: "failed: " + msg}
		}
		if rh.done.Load() {
			return telemetry.ProbeResult{OK: true, Detail: "completed"}
		}
		return telemetry.ProbeResult{OK: true, Detail: "running"}
	})
	h.Set("watermark", func() telemetry.ProbeResult {
		routed := rh.routed.Load()
		if routed == math.MinInt64 {
			return telemetry.ProbeResult{OK: true, Detail: "no input yet"}
		}
		c := completed()
		prev := rh.lastSeen.Swap(c)
		switch {
		case rh.done.Load() || c >= routed:
			return telemetry.ProbeResult{OK: true,
				Detail: fmt.Sprintf("completed tick %d of %d", c, routed)}
		case c > prev || prev == math.MaxInt64:
			return telemetry.ProbeResult{OK: true,
				Detail: fmt.Sprintf("advancing: completed tick %d of %d", c, routed)}
		default:
			return telemetry.ProbeResult{OK: false,
				Detail: fmt.Sprintf("stalled at tick %d, routed %d", c, routed)}
		}
	})
	h.Set(unit, func() telemetry.ProbeResult {
		n := backlog()
		if rh.done.Load() && n > 0 {
			return telemetry.ProbeResult{OK: false,
				Detail: fmt.Sprintf("undrained: %d queued after completion", n)}
		}
		return telemetry.ProbeResult{OK: true, Detail: fmt.Sprintf("backlog %d", n)}
	})
	return rh
}
