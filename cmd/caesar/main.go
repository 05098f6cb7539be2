// Command caesar runs a CAESAR model over an event stream and prints
// the derived complex events plus run statistics.
//
// Usage:
//
//	caesar -model traffic.caesar -partition-by xway,dir,seg < traffic.evs
//	lrgen | caesar -model <(lrgen -model) -partition-by xway,dir,seg -quiet
//
// Flags select the execution strategy the paper evaluates:
// -baseline runs the context-independent strategy, -no-pushdown keeps
// context windows above the patterns, -share merges the workloads of
// overlapping contexts.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/server"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

func main() {
	modelPath := flag.String("model", "", "path to the .caesar model file (required)")
	partitionBy := flag.String("partition-by", "", "comma-separated partition key attributes")
	baseline := flag.Bool("baseline", false, "run the context-independent baseline")
	noPushdown := flag.Bool("no-pushdown", false, "disable context window push-down")
	share := flag.Bool("share", false, "enable context workload sharing")
	workers := flag.Int("workers", 4, "worker pool size (legacy pipeline; ignored when -shards > 1)")
	shards := flag.Int("shards", 1, "engine shards, each owning its partitions end to end (1 = classic pipeline, 0 = GOMAXPROCS)")
	pacing := flag.Duration("pacing", 0, "wall time per application time unit (0 = as fast as possible)")
	durableDir := flag.String("durable-dir", "", "directory for the input WAL and state checkpoints; a re-run over the same directory recovers and resumes")
	ckptEvery := flag.Int("checkpoint-interval", 0, "ticks between state checkpoints (0 = default; used with -durable-dir)")
	walSync := flag.String("wal-sync", "tick", "WAL fsync cadence: 'tick', 'async', or a tick count N (used with -durable-dir)")
	quiet := flag.Bool("quiet", false, "suppress derived events, print stats only")
	dot := flag.Bool("dot", false, "print the model's context transition network as Graphviz DOT and exit")
	listen := flag.String("listen", "", "serve stream sessions on this TCP address instead of stdin/stdout")
	admin := flag.String("admin", "", "serve /metrics, /statusz, /tracez, /healthz, /buildz and /debug/pprof on this HTTP address")
	traceSample := flag.Int("trace-sample", 0, "stage-trace one in N ticks for /tracez (0 = off; 1 = every tick; used with -admin)")
	flag.Parse()

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "caesar: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*modelPath)
	if err != nil {
		fail(err)
	}
	m, err := model.CompileSource(string(src))
	if err != nil {
		fail(err)
	}
	if *dot {
		fmt.Print(m.DOT())
		return
	}
	var keys []string
	if *partitionBy != "" {
		keys = strings.Split(*partitionBy, ",")
	}
	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	engCfg := core.Config{
		ContextIndependent: *baseline,
		Sharing:            *share,
		DisablePushDown:    *noPushdown,
		PartitionBy:        keys,
		Workers:            *workers,
		Shards:             *shards,
		Pacing:             *pacing,
		DurableDir:         *durableDir,
		CheckpointEvery:    *ckptEvery,
		WALSync:            parseWALSync(*walSync),
	}
	if *traceSample > 0 {
		engCfg.Stages = telemetry.NewStageTracer(*traceSample, 0)
	}
	// Resolve once: the engine and /buildz see the same effective
	// values.
	engCfg, err = engCfg.Resolve()
	if err != nil {
		fail(err)
	}
	if *listen != "" {
		serve(m, *listen, *admin, engCfg)
		return
	}
	cfg := engCfg
	if *admin != "" {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		cfg.Health = telemetry.NewHealth()
		startAdmin(*admin, telemetry.NewHandler(telemetry.Admin{
			Registry: reg,
			Stages:   cfg.Stages,
			Health:   cfg.Health,
			Build:    telemetry.BuildInfo{Config: cfg.Summary()},
		}))
	}
	var sink *event.LineSink
	if !*quiet {
		sink = event.NewLineSink(os.Stdout)
		cfg.OnOutput = sink.Emit
		cfg.OnIdle = sink.Idle
	}
	eng, err := core.NewEngine(m, cfg)
	if err != nil {
		fail(err)
	}
	r := event.NewReader(os.Stdin, m.Registry)
	start := time.Now()
	st, err := eng.Run(r)
	if err != nil {
		fail(err)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"caesar: %d events in, %d derived, %d partitions, %d transitions\n",
		st.Events, st.OutputCount, st.Partitions, st.Transitions)
	fmt.Fprintf(os.Stderr,
		"caesar: max latency %v, mean %v, suspended-plan skips %d, wall %v\n",
		st.MaxLatency.Round(time.Microsecond), st.MeanLatency.Round(time.Microsecond),
		st.SuspendedSkips, time.Since(start).Round(time.Millisecond))
	for _, ty := range sortedKeys(st.PerType) {
		fmt.Fprintf(os.Stderr, "caesar:   %s: %d\n", ty, st.PerType[ty])
	}
}

// serve runs the TCP session server (see internal/server): each
// connection streams events in and derived events out.
func serve(m *model.Model, addr, admin string, engCfg core.Config) {
	if admin != "" {
		engCfg.Health = telemetry.NewHealth()
	}
	srv, err := server.New(server.Config{
		Model:  m,
		Engine: engCfg,
	})
	if err != nil {
		fail(err)
	}
	if admin != "" {
		startAdmin(admin, srv.AdminHandler())
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "caesar: serving stream sessions on %s\n", l.Addr())
	if err := srv.Serve(l); err != nil {
		fail(err)
	}
}

// startAdmin serves the telemetry admin surface on its own goroutine
// and announces the bound address (":0" picks a free port).
func startAdmin(addr string, h http.Handler) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "caesar: admin on %s\n", l.Addr())
	go func() {
		if err := http.Serve(l, h); err != nil {
			fmt.Fprintln(os.Stderr, "caesar: admin:", err)
		}
	}()
}

// parseWALSync maps the -wal-sync flag onto core.Config.WALSync:
// "tick" fsyncs every tick, "async" leaves flushing to the OS, and a
// number N fsyncs every N ticks.
func parseWALSync(s string) int {
	switch s {
	case "tick", "":
		return 0
	case "async":
		return -1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		fail(fmt.Errorf("-wal-sync must be 'tick', 'async' or a positive tick count, got %q", s))
	}
	return n
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "caesar:", err)
	os.Exit(1)
}
