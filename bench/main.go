// Command bench is the repository's performance ledger: one fixed suite of
// four workloads, rerun on every commit, so that a performance claim is a
// difference between two runs of it.  See README.md in this directory for
// the workloads, the metrics and how to read a traced run.
//
//	bench -workload batch|serve-read|serve-churn|sharded|all -seed N
//	      [-seconds S] [-trace 0|1] [-out DIR] [-bin DIR] [-tmp DIR]
//
// The last line of standard output is one JSON object per workload:
//
//	{"correct":true,"attempted":412,"failed":0,"metrics":{"setup_s":{"value":0.81,"unit":"s"},...}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set (BENCHMARK.json at the repository root lists both).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	window   time.Duration // length of the timed window
	trace    bool
	outDir   string // where a traced run writes <workload>.trace.jsonl
	binDir   string // prebuilt daemons; empty builds them into tmpDir
	tmpDir   string // parent of the run's scratch directory
	// scale multiplies every relation size and setups is how many times the
	// system is set up (the median is reported); the smoke test shrinks
	// both, the command line always runs the published values.
	scale  float64
	setups int
}

var workloads = []struct {
	name string
	run  func(config, *ledger) error
}{
	{"batch", runBatch},
	{"serve-read", runServeRead},
	{"serve-churn", runServeChurn},
	{"sharded", runSharded},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1, setups: 3}
	var seconds float64
	var trace string
	fs.StringVar(&cfg.workload, "workload", "all", "batch, serve-read, serve-churn, sharded or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 24, "length of the timed window")
	fs.StringVar(&trace, "trace", "0", "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", "", "directory for the span file of a traced run (default: the scratch directory's parent)")
	fs.StringVar(&cfg.binDir, "bin", "", "directory holding prebuilt spatialjoind and spatialjoinrouter (default: build them)")
	fs.StringVar(&cfg.tmpDir, "tmp", "", "parent directory for scratch files (default: the system's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	on, err := strconv.ParseBool(trace)
	if err != nil || seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: bad -trace, -seconds or stray arguments")
		return 2
	}
	cfg.trace = on
	cfg.window = time.Duration(seconds * float64(time.Second))

	// Children and scratch files are cleaned up by deferred calls, which a
	// signal's default action would skip; turn the signal into a panic-free
	// early exit through the same path instead.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	code := 0
	ran := false
	for _, w := range workloads {
		if cfg.workload != "all" && cfg.workload != w.name {
			continue
		}
		ran = true
		c := cfg
		c.workload = w.name
		if !runOne(c, w.run, stdout, stderr) {
			code = 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	return code
}

// runOne runs one workload and prints its ledger and result line.  It
// reports false when the run could not be completed at all; failed ops are
// reported in the result line, not through the exit code.
func runOne(cfg config, run func(config, *ledger) error, stdout, stderr io.Writer) bool {
	l := newLedger()
	l.note("workload=%s seed=%d window=%v trace=%v", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	l.note("GOMAXPROCS=%d nproc=%d %s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	// A panic must not leave daemons or scratch files behind either.
	defer func() {
		if r := recover(); r != nil {
			cleanupAll()
			panic(r)
		}
	}()
	err := run(cfg, l)
	cleanupAll()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return false
	}
	names := perLayer
	if !cfg.trace {
		names = endToEnd
		l.setEndToEnd()
	}
	l.noteSamples()
	l.print(stdout)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: l.failed == 0 && l.attempted > 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metricValue{}}
	for _, m := range names {
		v, ok := l.values[m.name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", cfg.workload, m.name)
			return false
		}
		out.Metrics[m.name] = v
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return true
}
