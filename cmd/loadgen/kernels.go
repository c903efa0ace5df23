package main

import (
	"fmt"
	"runtime"
	"time"

	"systolicdb/internal/baseline"
	"systolicdb/internal/bitset"
	"systolicdb/internal/comparison"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/perf"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// kernelInputSet is the operand set of the kernel tables at one size.
type kernelInputSet struct {
	a, b, ja, jb, d, da, db *relation.Relation
}

// kernelOperands generates the operands of the kernel tables: what
// inputs.operands gives kernel_heavy (exact false) or pulse_sim (exact true),
// at cardinality n.
func kernelOperands(seed int64, n, nX, nY int, exact bool) (kernelInputSet, error) {
	in := newInputs()
	if err := in.operands(&in.static, seed, "", n, nX, nY, exact); err != nil {
		return kernelInputSet{}, err
	}
	rel := func(name string) *relation.Relation {
		r, _ := in.lookup(name)
		return r
	}
	return kernelInputSet{a: rel("A"), b: rel("B"), ja: rel("JA"), jb: rel("JB"),
		d: rel("D"), da: rel("DA"), db: rel("DB")}, nil
}

// tuples is the input size one operator's ns_per_tuple is divided by.
func (s kernelInputSet) tuples(op string) int {
	switch op {
	case "intersect":
		return s.a.Cardinality() + s.b.Cardinality()
	case "join":
		return s.ja.Cardinality() + s.jb.Cardinality()
	case "dedup":
		return s.d.Cardinality()
	}
	return s.da.Cardinality() + s.db.Cardinality()
}

var joinOnKey = join.Spec{ACols: []int{0}, BCols: []int{0}}

// bitsetKernel runs one operator on the bitset backend and returns its
// word-op count.
func (s kernelInputSet) bitsetKernel(op string) (int, error) {
	switch op {
	case "intersect":
		r, err := bitset.Intersection(s.a, s.b)
		if err != nil {
			return 0, err
		}
		return r.Stats.WordOps, nil
	case "join":
		r, err := bitset.Join(s.ja, s.jb, joinOnKey)
		if err != nil {
			return 0, err
		}
		return r.Stats.WordOps, nil
	case "dedup":
		r, err := bitset.RemoveDuplicates(s.d)
		if err != nil {
			return 0, err
		}
		return r.Stats.WordOps, nil
	}
	r, err := bitset.Divide(s.da, s.db, []int{0}, []int{1}, []int{0})
	if err != nil {
		return 0, err
	}
	return r.Stats.WordOps, nil
}

// baselineKernel runs the same operator with internal/baseline's host
// algorithms — the honest denominator for every bitset figure.
func (s kernelInputSet) baselineKernel(op string) error {
	var err error
	switch op {
	case "intersect":
		_, err = baseline.IntersectionHash(s.a, s.b)
	case "join":
		_, err = hashJoin(s.ja, s.jb, joinOnKey.ACols, joinOnKey.BCols)
	case "dedup":
		_, err = baseline.RemoveDuplicatesHash(s.d)
	default:
		_, err = baseline.Divide(s.da, s.db, []int{0}, []int{1}, []int{0})
	}
	return err
}

// pulseKernel runs the operator on the pulse-simulated systolic array.
func (s kernelInputSet) pulseKernel(op string) (systolic.Stats, error) {
	switch op {
	case "intersect":
		r, err := intersect.Intersection(s.a, s.b)
		if err != nil {
			return systolic.Stats{}, err
		}
		return r.Stats, nil
	case "join":
		r, err := join.Join(s.ja, s.jb, joinOnKey)
		if err != nil {
			return systolic.Stats{}, err
		}
		return r.Stats, nil
	case "dedup":
		r, err := dedup.RemoveDuplicates(s.d)
		if err != nil {
			return systolic.Stats{}, err
		}
		return r.Stats, nil
	}
	r, err := division.Divide(s.da, s.db, []int{0}, []int{1}, []int{0})
	if err != nil {
		return systolic.Stats{}, err
	}
	return r.Stats, nil
}

// bestOf returns the fastest of n runs of f: the run least disturbed by
// the scheduler and the collector. It collects first, so the runs start
// from the same heap whatever the workload before them left behind.
func bestOf(n int, f func() error) (time.Duration, error) {
	runtime.GC()
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// allocsOf reports the heap allocations and bytes of one run of f.
func allocsOf(f func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), err
}

// kernelTables fills layer with the kernel and §8 tables: bitset beside
// baseline at three sizes from the same inputs, and per operator the
// predicted pulses (comparison.Schedule), the simulated pulses and the
// host time per pulse. The curve stops at 16384 because bitset.indexColumn
// costs O(n²/64) words per unique-key column today.
func kernelTables(seed int64, layer map[string]float64) error {
	for _, n := range kernelSizes {
		s, err := kernelOperands(seed, n, n/16, 16, false)
		if err != nil {
			return err
		}
		for _, op := range kernelOps {
			per := float64(s.tuples(op))
			wordOps := 0
			d, err := bestOf(3, func() error {
				var err error
				wordOps, err = s.bitsetKernel(op)
				return err
			})
			if err != nil {
				return fmt.Errorf("bitset %s n=%d: %w", op, n, err)
			}
			layer[fmt.Sprintf("bitset.%s.ns_per_tuple.n%d", op, n)] = float64(d.Nanoseconds()) / per
			if d, err = bestOf(3, func() error { return s.baselineKernel(op) }); err != nil {
				return fmt.Errorf("baseline %s n=%d: %w", op, n, err)
			}
			layer[fmt.Sprintf("baseline.%s.ns_per_tuple.n%d", op, n)] = float64(d.Nanoseconds()) / per
			if n != kernelDetailN {
				continue
			}
			allocs, bytes, err := allocsOf(func() error { _, err := s.bitsetKernel(op); return err })
			if err != nil {
				return err
			}
			layer[fmt.Sprintf("bitset.%s.allocs_per_op.n%d", op, n)] = allocs
			layer[fmt.Sprintf("bitset.%s.bytes_per_op.n%d", op, n)] = bytes
			layer[fmt.Sprintf("bitset.%s.word_ops.n%d", op, n)] = float64(wordOps)
			if allocs, _, err = allocsOf(func() error { return s.baselineKernel(op) }); err != nil {
				return err
			}
			layer[fmt.Sprintf("baseline.%s.allocs_per_op.n%d", op, n)] = allocs
		}
	}

	// §8: predicted vs simulated vs host time, at the sizes the simulator
	// finishes in well under a second.
	s, err := kernelOperands(seed, 256, 16, 4, true)
	if err != nil {
		return err
	}
	for _, op := range kernelOps {
		n := pulseTableN(op)
		var st systolic.Stats
		d, err := bestOf(3, func() error {
			var err error
			st, err = s.pulseKernel(op)
			return err
		})
		if err != nil {
			return fmt.Errorf("pulse %s: %w", op, err)
		}
		layer[fmt.Sprintf("pulse.%s.pulses.n%d", op, n)] = float64(st.Pulses)
		layer[fmt.Sprintf("pulse.%s.ns_per_pulse.n%d", op, n)] = ratio(float64(d.Nanoseconds()), float64(st.Pulses))
		layer[fmt.Sprintf("pulse.%s.utilization.n%d", op, n)] = st.Utilization()
	}
	// The comparison array's schedule: intersection compares whole 2-column
	// tuples, the join only its 1-column key, remove-duplicates the
	// relation against itself.
	for op, shape := range map[string][3]int{
		"intersect": {s.a.Cardinality(), s.b.Cardinality(), 2},
		"join":      {s.ja.Cardinality(), s.jb.Cardinality(), 1},
		"dedup":     {s.d.Cardinality(), s.d.Cardinality(), 2},
	} {
		sched, err := comparison.NewSchedule(shape[0], shape[1], shape[2])
		if err != nil {
			return err
		}
		layer["perf.predicted_pulses."+op] = float64(sched.TotalPulses())
	}
	layer["perf.modeled_ms.intersect"] = float64(perf.Conservative1980.
		PulseTime(int(layer["perf.predicted_pulses.intersect"])).Nanoseconds()) / 1e6
	return nil
}

// printKernelTables prints the two side-by-side tables the per-layer
// numbers are read from most often.
func printKernelTables(layer map[string]float64) {
	fmt.Println("kernel ns/tuple, bitset vs baseline (same inputs, best of 3):")
	fmt.Printf("  %-10s", "operator")
	for _, n := range kernelSizes {
		fmt.Printf(" %14s %14s", fmt.Sprintf("bitset n=%d", n), fmt.Sprintf("baseline n=%d", n))
	}
	fmt.Println()
	for _, op := range kernelOps {
		fmt.Printf("  %-10s", op)
		for _, n := range kernelSizes {
			fmt.Printf(" %14.1f %14.1f",
				layer[fmt.Sprintf("bitset.%s.ns_per_tuple.n%d", op, n)],
				layer[fmt.Sprintf("baseline.%s.ns_per_tuple.n%d", op, n)])
		}
		fmt.Println()
	}
	fmt.Println("§8 pulses: predicted (comparison.Schedule) vs simulated, and host ns per simulated pulse:")
	fmt.Printf("  %-10s %6s %12s %12s %14s %12s\n", "operator", "n", "predicted", "simulated", "host ns/pulse", "utilization")
	for _, op := range kernelOps {
		n := pulseTableN(op)
		predicted := "-"
		if v, ok := layer["perf.predicted_pulses."+op]; ok {
			predicted = fmt.Sprintf("%.0f", v)
		}
		fmt.Printf("  %-10s %6d %12s %12.0f %14.1f %12.3f\n", op, n, predicted,
			layer[fmt.Sprintf("pulse.%s.pulses.n%d", op, n)],
			layer[fmt.Sprintf("pulse.%s.ns_per_pulse.n%d", op, n)],
			layer[fmt.Sprintf("pulse.%s.utilization.n%d", op, n)])
	}
	fmt.Printf("  modeled 1980-technology time for the predicted intersect pulses: %s ms\n",
		formatValue(layer["perf.modeled_ms.intersect"]))
}
