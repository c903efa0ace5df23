// Command bench compares the two execution backends — the cycle-faithful
// pulse simulator and the word-parallel bitset engine — on identical
// deterministic workloads, and emits a machine-readable comparison.
//
//	bench -n 1024 -m 2 -seed 1 -iters 3 -out BENCH_6.json
//
// Every operation runs on both backends over the same generated relations
// (same seed ⇒ same tuples), wall time is measured per run, and the best
// of -iters runs is kept (the usual benchmarking guard against scheduler
// noise). The JSON document records ops/sec and ns/tuple per operation
// per backend plus the pulse/bitset speedup, so a regression in either
// backend is visible as a diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"systolicdb/internal/join"
	"systolicdb/internal/kernel"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// result is one (operation, backend) measurement.
type result struct {
	Op      string `json:"op"`
	Backend string `json:"backend"`
	// Tuples is the number of input tuples the ns/tuple figure is
	// normalised by (|A| + |B| where two relations are consumed).
	Tuples    int     `json:"tuples"`
	OutRows   int     `json:"out_rows"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	NsPerTup  float64 `json:"ns_per_tuple"`
}

type report struct {
	N       int                `json:"n"`
	DivideN int                `json:"divide_n"`
	M       int                `json:"m"`
	Seed    int64              `json:"seed"`
	Iters   int                `json:"iters"`
	Results []result           `json:"results"`
	Speedup map[string]float64 `json:"speedup_bitset_over_pulse"`
}

// opFn runs one benchmarked operator on the given backend's kernel.
type opFn = func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error)

// measure runs f -iters times and returns the fastest wall time, checking
// every run returns the same cardinality.
func measure(iters int, f func() (int, error)) (time.Duration, int, error) {
	best := time.Duration(-1)
	rows := 0
	for i := 0; i < iters; i++ {
		start := time.Now()
		r, err := f()
		d := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			rows = r
		} else if r != rows {
			return 0, 0, fmt.Errorf("non-deterministic result: %d rows then %d", rows, r)
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, rows, nil
}

func main() {
	var (
		n       = flag.Int("n", 1024, "tuples per input relation")
		m       = flag.Int("m", 2, "elements per tuple")
		seed    = flag.Int64("seed", 1, "workload seed")
		iters   = flag.Int("iters", 3, "runs per measurement (best is kept)")
		divideN = flag.Int("divide-n", 256, "dividend size for the divide benchmark (the pulse division array is O(n^3)-ish in simulation; 0 = use -n)")
		out     = flag.String("out", "BENCH_6.json", "output JSON path (empty = stdout only)")
		out9    = flag.String("out9", "BENCH_9.json", "executor/plan-cache benchmark output path (empty = skip)")
	)
	flag.Parse()
	if *divideN <= 0 {
		*divideN = *n
	}
	if err := run(*n, *m, *seed, *iters, *divideN, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out9 != "" {
		if err := runExecutor(*n, *seed, *iters, *out9); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

func run(n, m int, seed int64, iters, divideN int, out string) error {
	rep := report{N: n, DivideN: divideN, M: m, Seed: seed, Iters: iters, Speedup: map[string]float64{}}

	add := func(op, backend string, tuples int, d time.Duration, rows int) {
		secs := d.Seconds()
		rep.Results = append(rep.Results, result{
			Op: op, Backend: backend, Tuples: tuples, OutRows: rows,
			Seconds:   secs,
			OpsPerSec: 1 / secs,
			NsPerTup:  float64(d.Nanoseconds()) / float64(tuples),
		})
		fmt.Printf("%-10s %-7s %9.3fms  %12.1f ns/tuple  %d rows\n",
			op, backend, secs*1000, float64(d.Nanoseconds())/float64(tuples), rows)
	}
	// both measures one operator on each backend's kernel over the same
	// inputs.
	both := func(op string, tuples int, f opFn) error {
		on := func(k kernel.Kernel) func() (int, error) {
			return func() (int, error) {
				rel, _, err := f(k)
				if err != nil {
					return 0, err
				}
				return rel.Cardinality(), nil
			}
		}
		dp, rp, err := measure(iters, on(kernel.Pulse{}))
		if err != nil {
			return fmt.Errorf("%s pulse: %w", op, err)
		}
		db, rb, err := measure(iters, on(kernel.Bitset{}))
		if err != nil {
			return fmt.Errorf("%s bitset: %w", op, err)
		}
		if rp != rb {
			return fmt.Errorf("%s: backends disagree (%d pulse rows, %d bitset rows)", op, rp, rb)
		}
		add(op, "pulse", tuples, dp, rp)
		add(op, "bitset", tuples, db, rb)
		rep.Speedup[op] = dp.Seconds() / db.Seconds()
		fmt.Printf("%-10s speedup %.1fx\n", op, rep.Speedup[op])
		return nil
	}
	ia, ib, err := workload.OverlapPair(seed, n, m, 0.5)
	if err != nil {
		return err
	}
	ja, jb, err := workload.JoinPair(seed, n, n, m, 1)
	if err != nil {
		return err
	}
	da, err := workload.WithDuplicates(seed, n, m, 0.5)
	if err != nil {
		return err
	}
	va, vb, err := workload.DivisionCase(seed, divideN, 16, 0.5)
	if err != nil {
		return err
	}
	for _, o := range []struct {
		op     string
		tuples int
		f      opFn
	}{
		{"intersect", 2 * n, func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Intersect(ia, ib) }},
		{"difference", 2 * n, func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Difference(ia, ib) }},
		{"join", 2 * n, func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) {
			return k.Join(ja, jb, join.Spec{ACols: []int{0}, BCols: []int{0}})
		}},
		{"dedup", n, func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Dedup(da) }},
		{"divide", divideN + vb.Cardinality(), func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) {
			return k.Divide(va, vb, []int{0}, []int{1}, []int{0})
		}},
	} {
		if err := both(o.op, o.tuples, o.f); err != nil {
			return err
		}
	}

	if out != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}
