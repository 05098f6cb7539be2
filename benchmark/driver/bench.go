package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// env locates the programs under test and the benchmark's files
// inside one checkout.
type env struct {
	root string // checkout root
	bin  string // built binaries
	tmp  string // scratch space inside the checkout
	logf func(format string, args ...any)
}

func (e *env) caesar() string { return filepath.Join(e.bin, "caesar") }
func (e *env) lrgen() string  { return filepath.Join(e.bin, "lrgen") }
func (e *env) layers() string { return filepath.Join(e.bin, "benchlayers") }
func (e *env) dir(sub ...string) string {
	return filepath.Join(append([]string{e.root, "benchmark"}, sub...)...)
}

// freshDir makes a new empty directory under the scratch space.
func (e *env) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

// job is one workload made concrete for a seed: input bytes, model
// file, and what a correct pass returns.
type job struct {
	e    *env
	w    *workload
	seed int64
	in   *stream
	// inDigest identifies the input bytes.
	inDigest string
	model    string // path of the model file handed to -model
	// ref is what every pass must return; set by establishRef.
	ref reference
}

// reference is the expected outcome of a pass.
type reference struct {
	Input       string `json:"input"`  // digest of the input bytes
	Output      string `json:"output"` // digest of the derived lines
	Events      int    `json:"events"`
	Outputs     int    `json:"outputs"`
	Transitions int    `json:"transitions"`
}

func (j *job) referenceOf(p *pass) reference {
	return reference{
		Input:       j.inDigest,
		Output:      p.out.String(),
		Events:      p.trailerInt("events"),
		Outputs:     p.trailerInt("outputs"),
		Transitions: p.trailerInt("transitions"),
	}
}

func newJob(e *env, w *workload, seed int64) (*job, error) {
	j := &job{e: e, w: w, seed: seed}
	var data []byte
	var err error
	if w.skew {
		data = genSkewChurn(seed)
	} else if data, err = genLinearRoad(e.lrgen(), seed); err != nil {
		return nil, err
	}
	if j.in, err = splitTicks(data); err != nil {
		return nil, fmt.Errorf("%s input: %w", w.name, err)
	}
	j.inDigest = digestOf(data).String()
	if w.model != "toll" {
		j.model = e.dir("models", w.model)
		return j, nil
	}
	src, err := genTollModel(e.lrgen())
	if err != nil {
		return nil, err
	}
	j.model = filepath.Join(e.tmp, "toll.caesar")
	return j, os.WriteFile(j.model, src, 0o644)
}

// serverArgs renders the workload's `caesar` flags; only flags that
// ROADMAP item 1 keeps appear here.
func (j *job) serverArgs(shards int, durableDir string, traced bool) []string {
	args := []string{"-model", j.model, "-partition-by", j.w.partitionBy, "-shards", strconv.Itoa(shards)}
	args = append(args, j.w.flags...)
	if durableDir != "" {
		args = append(args, "-durable-dir", durableDir)
	}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	return args
}

// target runs passes against one server configuration. A durable
// workload gets a fresh process and directory per pass; the others
// keep one process, as a deployment would.
type target struct {
	j      *job
	shards int
	traced bool // -admin and -trace-sample 1
	srv    *server
	// peakRSS is the largest resident-set high-water mark seen.
	peakRSS float64
	// cpuDone is the CPU time of servers already released.
	cpuDone float64
}

// cpuSeconds is the CPU time the target's servers have used so far.
func (t *target) cpuSeconds() float64 {
	if t.srv != nil {
		return t.cpuDone + t.srv.cpuSeconds()
	}
	return t.cpuDone
}

func (j *job) target(shards int, traced bool) *target {
	return &target{j: j, shards: shards, traced: traced}
}

func (t *target) start() (srv *server, durableDir string, err error) {
	if t.j.w.durable {
		if durableDir, err = t.j.e.freshDir("durable"); err != nil {
			return nil, "", err
		}
	}
	srv, err = startServer(t.j.e.caesar(), t.j.serverArgs(t.shards, durableDir, t.traced), t.traced)
	return srv, durableDir, err
}

func (t *target) release(srv *server, durableDir string) {
	if rss := srv.peakRSSMB(); rss > t.peakRSS {
		t.peakRSS = rss
	}
	t.cpuDone += srv.cpuSeconds()
	srv.stop()
	if durableDir != "" {
		_ = os.RemoveAll(durableDir)
	}
}

// pass runs one pass; after, when set, sees the server while it still
// holds the pass's telemetry.
func (t *target) pass(period time.Duration, after func(*server) error) (*pass, error) {
	srv := t.srv
	if srv == nil {
		var dir string
		var err error
		if srv, dir, err = t.start(); err != nil {
			return nil, err
		}
		if t.j.w.durable {
			defer t.release(srv, dir)
		} else {
			t.srv = srv
		}
	}
	p, err := runPass(srv.addr, t.j.in, period)
	if err != nil {
		return nil, fmt.Errorf("%w\nserver stderr:\n%s", err, srv.stderr())
	}
	if after != nil {
		if err := after(srv); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (t *target) close() {
	if t.srv != nil {
		t.release(t.srv, "")
		t.srv = nil
	}
}

// coldStart measures exec to first accepted connection once.
func (t *target) coldStart() (time.Duration, error) {
	srv, dir, err := t.start()
	if err != nil {
		return 0, err
	}
	t.release(srv, dir)
	return srv.setup, nil
}

// goldenPath names the committed reference of a workload and seed.
func (j *job) goldenPath() string {
	return j.e.dir("golden", fmt.Sprintf("%s.seed%d.json", j.w.name, j.seed))
}

func otherShards(n int) int {
	if n == 1 {
		return 2
	}
	return 1
}

// crossCheck runs one pass on each shard count and requires the same
// multiset of derived lines and the same trailer counts from both.
func (j *job) crossCheck() (reference, error) {
	var refs [2]reference
	for i, shards := range []int{j.w.shards, otherShards(j.w.shards)} {
		t := j.target(shards, false)
		p, err := t.pass(0, nil)
		t.close()
		if err != nil {
			return reference{}, fmt.Errorf("-shards %d: %w", shards, err)
		}
		refs[i] = j.referenceOf(p)
	}
	if refs[0] != refs[1] {
		return reference{}, fmt.Errorf("-shards %d and -shards %d disagree:\n  %+v\n  %+v",
			j.w.shards, otherShards(j.w.shards), refs[0], refs[1])
	}
	return refs[0], nil
}

// establishRef loads the committed reference for this seed, or, on a
// seed without one, derives it from the shard cross-check.
func (j *job) establishRef() error {
	b, err := os.ReadFile(j.goldenPath())
	if errors.Is(err, os.ErrNotExist) {
		j.e.logf("%s: no golden file for seed %d, cross-checking -shards 1 against -shards 2", j.w.name, j.seed)
		j.ref, err = j.crossCheck()
		return err
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &j.ref); err != nil {
		return fmt.Errorf("%s: %w", j.goldenPath(), err)
	}
	if j.inDigest != j.ref.Input {
		return fmt.Errorf("%s: the generated input no longer matches the golden file's (%s, golden %s): the generator changed, so results are not comparable with earlier ones",
			j.w.name, j.inDigest, j.ref.Input)
	}
	return nil
}

// verify reports why a pass is not the reference, or nil.
func (j *job) verify(p *pass) error {
	if got := j.referenceOf(p); got != j.ref {
		return fmt.Errorf("pass differs from reference:\n  got  %+v\n  want %+v", got, j.ref)
	}
	if p.out.Lines != j.ref.Outputs {
		return fmt.Errorf("received %d derived lines, trailer says outputs=%d", p.out.Lines, j.ref.Outputs)
	}
	if j.ref.Events != j.in.events {
		return fmt.Errorf("trailer says events=%d, sent %d", j.ref.Events, j.in.events)
	}
	return nil
}

// result is what one run of one workload reports.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Attempted and Failed count input events of measured passes;
	// an event fails when its pass fails verification.
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Notes are diagnostics that are printed and stored, not gated.
	Notes map[string]float64 `json:"notes,omitempty"`
	// Text holds diagnostics that are not numbers.
	Text map[string]string `json:"text,omitempty"`
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

const (
	coldStartsPerGroup = 10
	warmupPasses       = 2
	// The fewest passes a phase measures, whatever its time budget.
	minPasses = 3
	// closedShare of a run's seconds goes to the closed-loop phase and
	// the rest to the open-loop one, whose passes last as long as their
	// schedule says: 2.4 s on Linear Road, so 60 % of 12 s fits three.
	closedShare = 0.4
)

// phase runs passes at one period for at least budget and minPasses,
// verifying each. A failed pass counts its events as failed and ends
// the phase: the run is wrong already, and a wedged server would
// otherwise cost a time-out per pass.
func (j *job) phase(t *target, r *result, period, budget time.Duration, keep func(*pass)) {
	began := time.Now()
	for n := 0; n < minPasses || time.Since(began) < budget; n++ {
		p, err := t.pass(period, nil)
		if err == nil {
			err = j.verify(p)
		}
		r.Attempted += j.in.events
		if err != nil {
			r.Failed += j.in.events
			j.e.logf("%s: FAILED pass: %v", j.w.name, err)
			return
		}
		keep(p)
	}
}

// measure is the gated run: tracing off, set-up time, a closed-loop
// phase for events_per_s, an open-loop phase for latency.
func measure(e *env, w *workload, seed int64, seconds int) (*result, error) {
	j, err := newJob(e, w, seed)
	if err != nil {
		return nil, err
	}
	if err := j.establishRef(); err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: seed, Metrics: map[string]summary{}, Notes: map[string]float64{}}
	t := j.target(w.shards, false)
	defer t.close()

	// Cold starts come in three groups, before, between and after the
	// phases: ten in a row take a tenth of a second, and whatever state
	// the box is in for that instant would set the whole metric.
	var setups []float64
	coldStarts := func() error {
		for i := 0; i < coldStartsPerGroup; i++ {
			d, err := t.coldStart()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := coldStarts(); err != nil {
		return nil, err
	}

	for i := 0; i < warmupPasses; i++ {
		if _, err := t.pass(0, nil); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}

	total := time.Duration(seconds) * time.Second
	closed := time.Duration(closedShare * float64(total))
	var eps []float64
	cpu := t.cpuSeconds()
	j.phase(t, r, 0, closed, func(p *pass) {
		eps = append(eps, float64(j.in.events)/p.wall.Seconds())
	})
	cpu = t.cpuSeconds() - cpu
	if err := coldStarts(); err != nil {
		return nil, err
	}
	var p50, p99 []float64
	var genLate time.Duration
	samples := 0
	j.phase(t, r, w.period, total-closed, func(p *pass) {
		sort.Float64s(p.latMs)
		p50 = append(p50, quantile(p.latMs, 0.50))
		p99 = append(p99, quantile(p.latMs, 0.99))
		samples += len(p.latMs)
		genLate = max(genLate, p.genLate)
	})
	t.close()
	if err := coldStarts(); err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] = summarize(setups, "s", "lower")

	r.Metrics["events_per_s"] = summarize(eps, "1/s", "higher")
	r.Metrics["latency_p99_ms"] = summarize(p99, "ms", "lower")
	r.Metrics["latency_p50_ms"] = summarize(p50, "ms", "lower")
	// One value for the whole phase: /proc counts CPU time in 10 ms
	// ticks, too coarse to split by pass.
	r.Metrics["cpu_ns_per_event"] = single(1e9*cpu/float64(max(1, len(eps))*j.in.events), "ns", "lower")
	r.Notes["latency_samples"] = float64(samples)
	r.Notes["gen_late_ms_max"] = float64(genLate) / 1e6
	r.Notes["tick_period_ms"] = float64(w.period) / 1e6
	r.Notes["offered_events_per_s"] = float64(j.in.events) / (float64(len(j.in.ticks)) * w.period.Seconds())
	r.Notes["peak_rss_mb"] = t.peakRSS
	r.Notes["failed_share"] = r.failedShare()
	return r, nil
}
