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
//
// The simulator is a straw man for speed, so the bitset engine is also
// measured against internal/baseline's host hash operators, at the fixed
// size hostN whatever -n the simulator can afford: host_results and
// speedup_bitset_over_baseline, a ratio of two host timings that does not
// depend on the machine the way an absolute floor does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"systolicdb/internal/baseline"
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
	// The bitset engine against the host hash operators, at HostN tuples
	// per relation (HostN/4 quotient values for divide).
	HostN           int                `json:"host_n"`
	HostResults     []result           `json:"host_results"`
	SpeedupBaseline map[string]float64 `json:"speedup_bitset_over_baseline"`
}

// hostN is the size of the bitset-vs-baseline comparison: cmd/loadgen's
// kernel_heavy cardinality.
const hostN = 4096

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
	rep := report{N: n, DivideN: divideN, M: m, Seed: seed, Iters: iters, Speedup: map[string]float64{},
		HostN: hostN, SpeedupBaseline: map[string]float64{}}

	results := &rep.Results
	add := func(op, backend string, tuples int, d time.Duration, rows int) {
		secs := d.Seconds()
		*results = append(*results, result{
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
				return cardinality(rel, err)
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
	in, err := operands(seed, n, m, divideN)
	if err != nil {
		return err
	}
	for _, o := range in.operators(divideN + in.vb.Cardinality()) {
		if err := both(o.op, o.tuples, o.kernel); err != nil {
			return err
		}
	}

	// The same operators on the bitset engine and on the host hash
	// algorithms, from one set of hostN-sized inputs.
	if in, err = operands(seed, hostN, m, hostN/4); err != nil {
		return err
	}
	results = &rep.HostResults
	for _, o := range in.operators(in.va.Cardinality() + in.vb.Cardinality()) {
		db, rb, err := measure(iters, func() (int, error) {
			rel, _, err := o.kernel(kernel.Bitset{})
			return cardinality(rel, err)
		})
		if err != nil {
			return fmt.Errorf("%s bitset n=%d: %w", o.op, hostN, err)
		}
		dh, rh, err := measure(iters, func() (int, error) { return cardinality(o.host()) })
		if err != nil {
			return fmt.Errorf("%s baseline n=%d: %w", o.op, hostN, err)
		}
		if rb != rh {
			return fmt.Errorf("%s n=%d: bitset and baseline disagree (%d vs %d rows)", o.op, hostN, rb, rh)
		}
		add(o.op, "bitset", o.tuples, db, rb)
		add(o.op, "baseline", o.tuples, dh, rh)
		rep.SpeedupBaseline[o.op] = dh.Seconds() / db.Seconds()
		fmt.Printf("%-10s bitset over baseline %.2fx (n=%d)\n", o.op, rep.SpeedupBaseline[o.op], hostN)
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

// inputs is one operand set: the knob-controlled generators at one size.
type inputs struct {
	ia, ib, ja, jb, da, va, vb *relation.Relation
}

func operands(seed int64, n, m, nX int) (in inputs, err error) {
	if in.ia, in.ib, err = workload.OverlapPair(seed, n, m, 0.5); err != nil {
		return in, err
	}
	if in.ja, in.jb, err = workload.JoinPair(seed, n, n, m, 1); err != nil {
		return in, err
	}
	if in.da, err = workload.WithDuplicates(seed, n, m, 0.5); err != nil {
		return in, err
	}
	in.va, in.vb, err = workload.DivisionCase(seed, nX, 16, 0.5)
	return in, err
}

// operator is one benchmarked operator over an operand set: on a backend's
// kernel, and on internal/baseline's host hash algorithm.
type operator struct {
	op     string
	tuples int // what ns/tuple is normalised by
	kernel opFn
	host   func() (*relation.Relation, error)
}

func (in inputs) operators(divideTuples int) []operator {
	n := in.ia.Cardinality()
	onKey := join.Spec{ACols: []int{0}, BCols: []int{0}}
	quot, div := []int{0}, []int{1}
	return []operator{
		{"intersect", 2 * n,
			func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Intersect(in.ia, in.ib) },
			func() (*relation.Relation, error) { return baseline.IntersectionHash(in.ia, in.ib) }},
		{"difference", 2 * n,
			func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Difference(in.ia, in.ib) },
			func() (*relation.Relation, error) { return baseline.DifferenceHash(in.ia, in.ib) }},
		{"join", 2 * n,
			func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Join(in.ja, in.jb, onKey) },
			func() (*relation.Relation, error) { return hashJoin(in.ja, in.jb, onKey) }},
		{"dedup", n,
			func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) { return k.Dedup(in.da) },
			func() (*relation.Relation, error) { return baseline.RemoveDuplicatesHash(in.da) }},
		{"divide", divideTuples,
			func(k kernel.Kernel) (*relation.Relation, kernel.Cost, error) {
				return k.Divide(in.va, in.vb, quot, div, quot)
			},
			func() (*relation.Relation, error) { return baseline.Divide(in.va, in.vb, quot, div, quot) }},
	}
}

func cardinality(rel *relation.Relation, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return rel.Cardinality(), nil
}

// hashJoin is the host hash join: baseline's pairs through the same
// materialisation step the array backends share.
func hashJoin(a, b *relation.Relation, spec join.Spec) (*relation.Relation, error) {
	pairs, err := baseline.JoinPairsHash(a, b, baseline.JoinSpec{ACols: spec.ACols, BCols: spec.BCols})
	if err != nil {
		return nil, err
	}
	m, err := join.NewMaterializer(a, b, spec)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		if err := m.Add(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return m.Relation(), nil
}
