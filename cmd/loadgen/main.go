// Command loadgen is the repository's benchmark: it builds cmd/systolicdbd,
// starts real daemon subprocesses (a single node, or a 3-shard replicated
// cluster behind a coordinator), drives them over HTTP from one process
// with two closed-loop clients, verifies every answer, and prints every
// metric BENCHMARK.json declares, by name, with its unit.
//
//	go run -C cmd/loadgen . -workload kernel_heavy -seed 11 -seconds 10 -trace 0
//	go run -C cmd/loadgen . -seed 11            # all five workloads, traced
//	go run -C cmd/loadgen . -seed 11 -check     # the full set twice, compared
//
// See README.md in this directory for the metric glossary, the workloads'
// rationale and how to read the trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed     = flag.Int64("seed", 11, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = also the traced pass and per-layer metrics (default: 1 for all, 0 for one workload)")
		traceOut = flag.String("trace-out", "", "file the traced pass's spans are written to at exit (default "+buildDir+"/trace.json)")
		check    = flag.Bool("check", false, "run the full set twice and fail if the two sets disagree by more than the metrics' own bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *trace, *traceOut, *check))
}

// run is main without os.Exit, so deferred clean-up always happens.
func run(name string, seed int64, seconds, trace int, traceOut string, check bool) int {
	e, built, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	defer e.cleanup()
	// SIGINT/SIGTERM must not leave daemons behind either. Killing them
	// makes whatever the main goroutine is doing fail; that failure must not
	// race the handler to os.Exit, so once interrupted the handler alone
	// ends the process.
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		interrupted.Store(true)
		e.cleanup()
		os.Exit(130)
	}()
	defer func() {
		if interrupted.Load() {
			select {}
		}
	}()
	fmt.Printf("build_s %.3f s (cmd/systolicdbd; not part of setup_s)\n", built.Seconds())
	if traceOut == "" {
		traceOut = filepath.Join(e.root, buildDir, "trace.json")
	}

	if check {
		return runCheck(e, seed, seconds)
	}
	if name == "all" {
		return runAll(e, runConfig{seed: seed, seconds: seconds, trace: trace != 0}, traceOut)
	}
	wl, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "loadgen: unknown workload %q (have %s)\n", name, workloadNames())
		return 2
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: trace == 1}
	res, err := runWorkload(e, wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if cfg.trace {
		if err = kernelTables(seed, res.layer); err == nil {
			err = writeSpans(traceOut, res.spans)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	ok = report(res, cfg.trace)
	for _, m := range endToEnd {
		if _, have := res.e2e[m.name]; !have {
			// A run that cannot publish a declared metric is not a result:
			// no contract line, non-zero exit.
			fmt.Fprintf(os.Stderr, "loadgen: %s: %s has too few samples (see the samples.* lines); no result\n", res.workload, m.name)
			return 1
		}
	}
	// The contract line: the last line of standard output, one JSON object.
	line := contractLine(res, cfg.trace, ok)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
