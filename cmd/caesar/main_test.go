package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// buildCmd compiles a command of this module into dir and returns the
// binary path.
func buildCmd(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// cmd/caesar -> module root is two levels up.
	return filepath.Dir(filepath.Dir(dir))
}

// TestPipelineEndToEnd drives the full CLI workflow: lrgen generates
// a model and a stream, caesar runs the stream against the model.
func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	lrgen := buildCmd(t, dir, "./cmd/lrgen")
	caesarBin := buildCmd(t, dir, "./cmd/caesar")

	modelOut, err := exec.Command(lrgen, "-model").Output()
	if err != nil {
		t.Fatalf("lrgen -model: %v", err)
	}
	modelPath := filepath.Join(dir, "traffic.caesar")
	if err := os.WriteFile(modelPath, modelOut, 0o644); err != nil {
		t.Fatal(err)
	}

	genCmd := exec.Command(lrgen, "-roads", "1", "-segments", "4", "-duration", "600")
	events, err := genCmd.Output()
	if err != nil {
		t.Fatalf("lrgen: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("lrgen produced no events")
	}

	run := exec.Command(caesarBin, "-model", modelPath, "-partition-by", "xway,dir,seg", "-quiet")
	run.Stdin = bytes.NewReader(events)
	var stderr bytes.Buffer
	run.Stderr = &stderr
	if err := run.Run(); err != nil {
		t.Fatalf("caesar: %v\n%s", err, stderr.String())
	}
	logs := stderr.String()
	for _, want := range []string{"derived", "TollNotification", "suspended-plan skips"} {
		if !strings.Contains(logs, want) {
			t.Errorf("caesar stderr missing %q:\n%s", want, logs)
		}
	}

	// Baseline mode runs too and reports zero suspensions.
	base := exec.Command(caesarBin, "-model", modelPath, "-partition-by", "xway,dir,seg", "-quiet", "-baseline")
	base.Stdin = bytes.NewReader(events)
	stderr.Reset()
	base.Stderr = &stderr
	if err := base.Run(); err != nil {
		t.Fatalf("caesar -baseline: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "suspended-plan skips 0") {
		t.Errorf("baseline should suspend nothing:\n%s", stderr.String())
	}

	// DOT export.
	dot := exec.Command(caesarBin, "-model", modelPath, "-dot")
	dotOut, err := dot.Output()
	if err != nil {
		t.Fatalf("caesar -dot: %v", err)
	}
	if !strings.Contains(string(dotOut), "digraph caesar") {
		t.Errorf("dot output:\n%s", dotOut)
	}
}

// TestAdminEndpointSmoke replays a short paced, durable Linear Road
// stream with -admin enabled and scrapes /metrics and /statusz while
// the run is live, then checks that /buildz reports the resolved
// configuration rather than the flags' zero values.
func TestAdminEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	lrgen := buildCmd(t, dir, "./cmd/lrgen")
	caesarBin := buildCmd(t, dir, "./cmd/caesar")

	modelOut, err := exec.Command(lrgen, "-model").Output()
	if err != nil {
		t.Fatalf("lrgen -model: %v", err)
	}
	modelPath := filepath.Join(dir, "traffic.caesar")
	if err := os.WriteFile(modelPath, modelOut, 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := exec.Command(lrgen, "-roads", "1", "-segments", "4", "-duration", "400").Output()
	if err != nil {
		t.Fatalf("lrgen: %v", err)
	}

	// Pacing stretches the replay to ~2s of wall time so the scrape
	// below observes a live run.
	run := exec.Command(caesarBin, "-model", modelPath, "-partition-by", "xway,dir,seg",
		"-quiet", "-admin", "127.0.0.1:0", "-pacing", "5ms", "-durable-dir", filepath.Join(dir, "state"))
	run.Stdin = bytes.NewReader(events)
	stderrPipe, err := run.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Wait()
	defer run.Process.Kill()

	sc := bufio.NewScanner(stderrPipe)
	var addr string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "caesar: admin on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatal("admin address not announced on stderr")
	}
	go func() { // keep draining so the child never blocks on stderr
		for sc.Scan() {
		}
	}()

	metrics := scrape(t, "http://"+addr+"/metrics", "caesar_events_total")
	for _, want := range []string{
		"caesar_events_total",
		"caesar_worker_txns_total",
		`caesar_txn_latency_ns{worker="0",quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	statusz := scrape(t, "http://"+addr+"/statusz", "caesar_events_total")
	if !strings.Contains(statusz, "caesar_worker_txns_total") {
		t.Errorf("/statusz missing worker counters: %s", statusz)
	}

	// No -checkpoint-interval and the default -wal-sync: /buildz shows
	// the defaults the engine runs with, and no read-ahead knob.
	bz := scrape(t, "http://"+addr+"/buildz", `"go_version"`)
	var build struct {
		Config map[string]string `json:"config"`
	}
	if err := json.Unmarshal([]byte(bz), &build); err != nil {
		t.Fatalf("/buildz is not JSON: %v\n%s", err, bz)
	}
	c := build.Config
	if c["checkpoint_every"] != "512" || c["wal_sync"] != "1" || c["workers"] != "4" || c["shards"] != "1" {
		t.Errorf("/buildz does not show the resolved config: %v", c)
	}
	if _, ok := c["read_ahead"]; ok {
		t.Errorf("/buildz reports a read_ahead knob: %v", c)
	}
}

// TestTraceHealthEndpointSmoke replays a paced stream with stage
// tracing on and scrapes /tracez, /healthz and /buildz while the run
// is live: the flight recorder must hold sane per-stage timelines and
// the health probes must report the run as alive.
func TestTraceHealthEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	lrgen := buildCmd(t, dir, "./cmd/lrgen")
	caesarBin := buildCmd(t, dir, "./cmd/caesar")

	modelOut, err := exec.Command(lrgen, "-model").Output()
	if err != nil {
		t.Fatalf("lrgen -model: %v", err)
	}
	modelPath := filepath.Join(dir, "traffic.caesar")
	if err := os.WriteFile(modelPath, modelOut, 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := exec.Command(lrgen, "-roads", "1", "-segments", "4", "-duration", "400").Output()
	if err != nil {
		t.Fatalf("lrgen: %v", err)
	}

	// Sharded runtime, every tick sampled, paced so scrapes observe a
	// live run with spans in flight. -shards 0 resolves to GOMAXPROCS in
	// the CLI, so the child runs two shards.
	run := exec.Command(caesarBin, "-model", modelPath, "-partition-by", "xway,dir,seg",
		"-quiet", "-admin", "127.0.0.1:0", "-pacing", "5ms", "-shards", "0", "-trace-sample", "1")
	run.Env = append(os.Environ(), "GOMAXPROCS=2")
	run.Stdin = bytes.NewReader(events)
	stderrPipe, err := run.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Wait()
	defer run.Process.Kill()

	sc := bufio.NewScanner(stderrPipe)
	var addr string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "caesar: admin on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatal("admin address not announced on stderr")
	}
	go func() { // keep draining so the child never blocks on stderr
		for sc.Scan() {
		}
	}()

	// /tracez: wait until the recorder holds timelines with an exec
	// stage, then check the JSON shape end to end.
	body := scrape(t, "http://"+addr+"/tracez", `"exec"`)
	var tz struct {
		Enabled    bool `json:"enabled"`
		SampleRate int  `json:"sample_rate"`
		Spans      int  `json:"spans"`
		Stages     map[string]struct {
			Count int   `json:"count"`
			P50   int64 `json:"p50_ns"`
			Max   int64 `json:"max_ns"`
		} `json:"stages"`
		Recent []map[string]any `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez is not JSON: %v\n%s", err, body)
	}
	if !tz.Enabled || tz.SampleRate != 1 {
		t.Errorf("/tracez enabled=%v sample_rate=%d, want true/1", tz.Enabled, tz.SampleRate)
	}
	if tz.Spans == 0 || len(tz.Recent) == 0 {
		t.Errorf("/tracez recorded nothing: spans=%d recent=%d", tz.Spans, len(tz.Recent))
	}
	for _, st := range []string{"route", "ring_wait", "exec"} {
		h, ok := tz.Stages[st]
		if !ok || h.Count == 0 {
			t.Errorf("/tracez stage %q missing or empty: %+v", st, h)
			continue
		}
		if h.P50 < 0 || h.Max <= 0 || h.Max > int64(time.Minute) {
			t.Errorf("/tracez stage %q has insane latencies: %+v", st, h)
		}
	}
	for _, tl := range tz.Recent {
		stages, ok := tl["stages_ns"].(map[string]any)
		if !ok || len(stages) == 0 {
			t.Errorf("/tracez timeline without stages: %v", tl)
		}
	}

	// /healthz: a live run reports OK with engine/watermark/shards
	// probes.
	hz := scrape(t, "http://"+addr+"/healthz", `"engine"`)
	var rep struct {
		OK     bool `json:"ok"`
		Probes map[string]struct {
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"probes"`
	}
	if err := json.Unmarshal([]byte(hz), &rep); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, hz)
	}
	if !rep.OK {
		t.Errorf("/healthz not ok during live run: %s", hz)
	}
	for _, want := range []string{"engine", "watermark", "shards"} {
		if p, ok := rep.Probes[want]; !ok || !p.OK {
			t.Errorf("/healthz probe %q missing or failing: %s", want, hz)
		}
	}

	// /buildz: build metadata plus the engine config summary.
	bz := scrape(t, "http://"+addr+"/buildz", `"go_version"`)
	var build struct {
		Config map[string]string `json:"config"`
	}
	if err := json.Unmarshal([]byte(bz), &build); err != nil {
		t.Fatalf("/buildz is not JSON: %v\n%s", err, bz)
	}
	if build.Config["shards"] != "2" || build.Config["trace_sample_rate"] != "1" {
		t.Errorf("/buildz config wrong: %v", build.Config)
	}
}

// scrape polls the URL until the body contains want (the run may not
// have registered its metrics yet) or a deadline passes.
func scrape(t *testing.T, url, want string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		res, err := http.Get(url)
		if err == nil {
			b, rerr := io.ReadAll(res.Body)
			res.Body.Close()
			if rerr == nil {
				last = string(b)
				if strings.Contains(last, want) {
					return last
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("scrape %s: %q never appeared; last body:\n%s", url, want, last)
	return ""
}

// outLines splits captured stdout into complete lines: a SIGKILL can
// truncate the final buffered write mid-line, so whatever follows the
// last newline is dropped ("" when the output ended cleanly).
func outLines(s string) []string {
	lines := strings.Split(s, "\n")
	return lines[:len(lines)-1]
}

// TestDurableKillResume is the durability smoke test at the CLI
// surface: a paced toll run with -durable-dir is SIGKILLed mid-stream,
// then resumed over the same directory with the stream re-fed. The
// killed run's stdout must be a prefix of an uninterrupted reference
// run's output and the resumed run's a suffix (the overlap between the
// last durable point and the kill re-delivers — the documented
// at-least-once output contract; the stdout sink is buffered, so the
// killed run may also trail the WAL).
func TestDurableKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	lrgen := buildCmd(t, dir, "./cmd/lrgen")
	caesarBin := buildCmd(t, dir, "./cmd/caesar")

	modelOut, err := exec.Command(lrgen, "-model").Output()
	if err != nil {
		t.Fatalf("lrgen -model: %v", err)
	}
	modelPath := filepath.Join(dir, "traffic.caesar")
	if err := os.WriteFile(modelPath, modelOut, 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := exec.Command(lrgen, "-roads", "1", "-segments", "4", "-duration", "600").Output()
	if err != nil {
		t.Fatalf("lrgen: %v", err)
	}

	// -shards 2 keeps stdout deterministic: with an output consumer
	// attached, the sharded runtime delivers through the ordered merge
	// layer.
	base := []string{"-model", modelPath, "-partition-by", "xway,dir,seg", "-shards", "2"}
	durable := append(append([]string{}, base...),
		"-durable-dir", filepath.Join(dir, "durable"), "-checkpoint-interval", "64", "-wal-sync", "tick")

	ref := exec.Command(caesarBin, base...)
	ref.Stdin = bytes.NewReader(events)
	var refOut, refErr bytes.Buffer
	ref.Stdout, ref.Stderr = &refOut, &refErr
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, refErr.String())
	}
	want := outLines(refOut.String())
	if len(want) == 0 {
		t.Fatal("reference run derived nothing")
	}

	// Killed run: pacing stretches the replay to ~3s so the SIGKILL
	// lands mid-stream.
	kill := exec.Command(caesarBin, append(append([]string{}, durable...), "-pacing", "5ms")...)
	kill.Stdin = bytes.NewReader(events)
	var killOut, killErr bytes.Buffer
	kill.Stdout, kill.Stderr = &killOut, &killErr
	if err := kill.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	_ = kill.Process.Kill()
	if err := kill.Wait(); err == nil {
		t.Fatal("run exited cleanly before the kill; raise -pacing")
	}
	r1 := outLines(killOut.String())
	if len(r1) > len(want) || strings.Join(r1, "\n") != strings.Join(want[:len(r1)], "\n") {
		t.Errorf("killed run's %d output lines are not a prefix of the reference's %d", len(r1), len(want))
	}

	// Resumed run: same directory, same stream, no fault.
	res := exec.Command(caesarBin, durable...)
	res.Stdin = bytes.NewReader(events)
	var resOut, resErr bytes.Buffer
	res.Stdout, res.Stderr = &resOut, &resErr
	if err := res.Run(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resErr.String())
	}
	r2 := outLines(resOut.String())
	if len(r2) == 0 {
		t.Fatal("resumed run derived nothing")
	}
	if len(r2) > len(want) || strings.Join(r2, "\n") != strings.Join(want[len(want)-len(r2):], "\n") {
		t.Errorf("resumed run's %d output lines are not a suffix of the reference's %d", len(r2), len(want))
	}
	if !strings.Contains(resErr.String(), "derived") {
		t.Errorf("resumed run printed no stats:\n%s", resErr.String())
	}
}

const lockstepModel = `
EVENT Reading(sensor int, temp int)
EVENT Alarm(sensor int, temp int)

CONTEXT normal DEFAULT
CONTEXT overheated

SWITCH CONTEXT overheated
PATTERN Reading r
WHERE r.temp > 90
CONTEXT normal

SWITCH CONTEXT normal
PATTERN Reading r
WHERE r.temp < 70
CONTEXT overheated

DERIVE Alarm(r.sensor, r.temp)
PATTERN Reading r
CONTEXT overheated
`

// TestLockstepOutputPipes is the output path's latency contract over
// stdin/stdout: once caesar has read tick T and the first event of
// T+1, every derived line of T reaches stdout before anything more is
// written to stdin. Ticks hold 512 events because the reader closes a
// batch only at a tick boundary past 512 events; each derives a few
// short lines, far below any buffer size.
func TestLockstepOutputPipes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	caesarBin := buildCmd(t, dir, "./cmd/caesar")
	modelPath := filepath.Join(dir, "lockstep.caesar")
	if err := os.WriteFile(modelPath, []byte(lockstepModel), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := model.CompileSource(lockstepModel)
	if err != nil {
		t.Fatal(err)
	}

	// Every 64th sensor runs hot for one tick; its next reading derives
	// an Alarm and switches it back.
	const nTicks, tickEvents = 8, 512
	ticks := make([][]string, nTicks)
	var all strings.Builder
	for i := range ticks {
		for s := 0; s < tickEvents; s++ {
			temp := 50
			if (s+i)%64 == 0 {
				temp = 95
			}
			ticks[i] = append(ticks[i], fmt.Sprintf("Reading|%d|%d|%d", i+1, s, temp))
		}
		all.WriteString(strings.Join(ticks[i], "\n") + "\n")
	}
	ref, err := core.NewEngine(m, core.Config{PartitionBy: []string{"sensor"}, Workers: 1, CollectOutputs: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.Run(event.NewReader(strings.NewReader(all.String()), m.Registry))
	if err != nil {
		t.Fatal(err)
	}
	want := map[event.Time]int{}
	for _, e := range st.Outputs {
		want[e.End()]++
	}

	for _, shards := range []string{"1", "2"} {
		t.Run("shards="+shards, func(t *testing.T) {
			run := exec.Command(caesarBin, "-model", modelPath, "-partition-by", "sensor", "-shards", shards)
			stdin, err := run.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			stdout, err := run.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Start(); err != nil {
				t.Fatal(err)
			}
			defer run.Wait()
			defer run.Process.Kill()
			lines := make(chan string, 64)
			go func() {
				defer close(lines)
				sc := bufio.NewScanner(stdout)
				for sc.Scan() {
					lines <- sc.Text()
				}
			}()
			send := func(lns []string) {
				if _, err := io.WriteString(stdin, strings.Join(lns, "\n")+"\n"); err != nil {
					t.Fatal(err)
				}
			}
			send(ticks[0][:1])
			for i := 0; i+1 < nTicks; i++ {
				send(ticks[i][1:])
				send(ticks[i+1][:1])
				ts := event.Time(i + 1)
				timeout := time.After(2 * time.Second)
				for got := 0; got < want[ts]; {
					select {
					case ln, ok := <-lines:
						if !ok {
							t.Fatalf("tick %d: stdout closed", ts)
						}
						if !strings.HasPrefix(ln, fmt.Sprintf("Alarm|%d|", ts)) {
							t.Fatalf("tick %d: unexpected line %q", ts, ln)
						}
						got++
					case <-timeout:
						t.Fatalf("tick %d: %d of %d derived lines reached stdout within 2s", ts, got, want[ts])
					}
				}
			}
			send(ticks[nTicks-1][1:])
			if err := stdin.Close(); err != nil {
				t.Fatal(err)
			}
			rest := 0
			for range lines {
				rest++
			}
			if rest != want[nTicks] {
				t.Errorf("final tick: %d lines after end of input, want %d", rest, want[nTicks])
			}
		})
	}
}

func TestCaesarUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	caesarBin := buildCmd(t, dir, "./cmd/caesar")
	if err := exec.Command(caesarBin).Run(); err == nil {
		t.Error("missing -model accepted")
	}
	if err := exec.Command(caesarBin, "-model", "/nonexistent.caesar").Run(); err == nil {
		t.Error("missing model file accepted")
	}
}

func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	expBin := buildCmd(t, dir, "./cmd/experiments")
	out, err := exec.Command(expBin, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "12a") {
		t.Errorf("-list output: %s", out)
	}
	if err := exec.Command(expBin, "-fig", "nope", "-scale", "quick").Run(); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := exec.Command(expBin, "-fig", "10a", "-scale", "bogus").Run(); err == nil {
		t.Error("unknown scale accepted")
	}
	fig, err := exec.Command(expBin, "-fig", "10a", "-scale", "quick").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fig), "== fig10a:") {
		t.Errorf("figure output: %s", fig)
	}
}
