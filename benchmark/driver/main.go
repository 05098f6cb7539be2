// Command driver is the end-to-end benchmark of the CAESAR engine: a
// single load-generator process that drives `caesar -listen` over its
// TCP line protocol and verifies what comes back. It imports nothing
// from the engine's module; it depends on CLI flags, the line format,
// the `#stats` trailer and the admin HTTP surface only, so it keeps
// compiling while the engine is refactored. See ../README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		root      = flag.String("root", ".", "checkout root (holds BENCHMARK.json, cmd/, benchmark/)")
		bin       = flag.String("bin", "", "directory of the built caesar, lrgen and benchlayers binaries")
		tmp       = flag.String("tmp", "", "scratch directory inside the checkout")
		name      = flag.String("workload", "", "run one workload and end with the one-line JSON result; default runs all six")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 0, "seconds measured per workload (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, never mixed into the gated numbers")
		traced    = flag.Bool("traced", false, "same as --trace 1")
		regen     = flag.Bool("regen-golden", false, "rewrite benchmark/golden for --seed, after the shard cross-check")
		compare   = flag.Bool("compare", false, "compare two result files: --compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice on this build and require agreement within the bounds")
	)
	flag.Parse()
	// One writer and one reader goroutine at a time: the generator may
	// not use more threads than the box has cores.
	runtime.GOMAXPROCS(2)

	e := &env{root: *root, bin: *bin, tmp: *tmp, logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}
	if e.bin == "" {
		e.bin = filepath.Join(e.root, ".bench_build", "bin")
	}
	if e.tmp == "" {
		e.tmp = filepath.Join(e.root, ".bench_build", "tmp")
	}
	stopOnSignal()

	err := func() error {
		def, err := loadDefinition(e)
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return fmt.Errorf("--compare takes two result files")
			}
			return compareFiles(def, flag.Arg(0), flag.Arg(1))
		}
		if err := os.MkdirAll(e.tmp, 0o755); err != nil {
			return err
		}
		if *seconds == 0 {
			*seconds = def.RunSeconds
		}
		o := options{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1}
		switch {
		case *regen:
			return regenGolden(e, o.seed)
		case *selfcheck:
			return selfCheck(e, def, o)
		case *name != "":
			return runOne(e, def, *name, o)
		default:
			_, err := runSuite(e, def, o)
			return err
		}
	}()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// stopOnSignal kills every server still running when the driver is
// interrupted, so no process outlives it.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAll()
		os.Exit(130)
	}()
}
