// Benchmarks regenerating the paper's evaluation, one benchmark family per
// experiment of DESIGN.md §4. Absolute wall-clock numbers measure the
// *simulator*; the paper-relevant outputs are the custom metrics:
// pulses/op (the hardware latency in comparison intervals), util (processor
// utilization), and modeled-ms (the §8 technology model's wall-clock
// estimate for the simulated pulse count).
//
// Run with: go test -bench=. -benchmem
package systolicdb

import (
	"fmt"
	"testing"

	"systolicdb/internal/baseline"
	"systolicdb/internal/bitlevel"
	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/decompose"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/hex"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/lptdisk"
	"systolicdb/internal/machine"
	"systolicdb/internal/patternmatch"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/treemachine"
	"systolicdb/internal/workload"
)

func reportSim(b *testing.B, pulses, cellSteps, activeSteps int) {
	b.Helper()
	if b.N > 0 {
		b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		if cellSteps > 0 {
			b.ReportMetric(float64(activeSteps)/float64(cellSteps), "util")
		}
		b.ReportMetric(perf.Conservative1980.PulseTime(pulses/b.N).Seconds()*1e3, "modeled-ms")
	}
}

// E1: the linear comparison array compares two m-element tuples in m pulses.
func BenchmarkLinearCompare(b *testing.B) {
	for _, m := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			tu := make(relation.Tuple, m)
			for k := range tu {
				tu[k] = relation.Element(k)
			}
			other := tu.Clone()
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := comparison.CompareTuples(tu, other)
				if err != nil {
					b.Fatal(err)
				}
				pulses += st.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E2: the 2-D comparison array pipelines all |A||B| comparisons in time
// linear in |A|+|B|+m.
func BenchmarkComparison2D(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, _ := workload.Uniform(1, n, 4, 8)
			c, _ := workload.Uniform(2, n, 4, 8)
			at, ct := a.Tuples(), c.Tuples()
			var pulses, cellSteps, active int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := comparison.Run2D(at, ct, nil, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Stats.Pulses
				cellSteps += res.Stats.CellSteps
				active += res.Stats.ActiveSteps
			}
			reportSim(b, pulses, cellSteps, active)
		})
	}
}

// E3: the intersection array across selectivities.
func BenchmarkIntersectArray(b *testing.B) {
	for _, overlap := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("overlap=%.1f", overlap), func(b *testing.B) {
			a, c, err := workload.OverlapPair(3, 32, 3, overlap)
			if err != nil {
				b.Fatal(err)
			}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := intersect.Intersection(a, c)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Stats.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E4: the difference array (same hardware, inverted output).
func BenchmarkDifferenceArray(b *testing.B) {
	a, c, err := workload.OverlapPair(4, 32, 3, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var pulses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := intersect.Difference(a, c)
		if err != nil {
			b.Fatal(err)
		}
		pulses += res.Stats.Pulses
	}
	reportSim(b, pulses, 0, 0)
}

// E5: the remove-duplicates array across duplication rates.
func BenchmarkRemoveDuplicatesArray(b *testing.B) {
	for _, rate := range []float64{0.0, 0.5, 0.9} {
		b.Run(fmt.Sprintf("dup=%.1f", rate), func(b *testing.B) {
			a, err := workload.WithDuplicates(5, 32, 3, rate)
			if err != nil {
				b.Fatal(err)
			}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dedup.RemoveDuplicates(a)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Stats.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E6: union and projection on the remove-duplicates array.
func BenchmarkUnionArray(b *testing.B) {
	a, c, err := workload.OverlapPair(6, 24, 3, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	var pulses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dedup.Union(a, c)
		if err != nil {
			b.Fatal(err)
		}
		pulses += res.Stats.Pulses
	}
	reportSim(b, pulses, 0, 0)
}

func BenchmarkProjectionArray(b *testing.B) {
	a, err := workload.Uniform(7, 32, 4, 4) // small domain: many collisions
	if err != nil {
		b.Fatal(err)
	}
	var pulses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dedup.Project(a, []int{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		pulses += res.Stats.Pulses
	}
	reportSim(b, pulses, 0, 0)
}

// E7: the join array across match factors, including the degenerate
// all-match case where |C| = |A||B|.
func BenchmarkJoinArray(b *testing.B) {
	for _, mf := range []float64{0.5, 2, 32} {
		b.Run(fmt.Sprintf("match=%g", mf), func(b *testing.B) {
			a, c, err := workload.JoinPair(8, 32, 32, 3, mf)
			if err != nil {
				b.Fatal(err)
			}
			spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := join.Join(a, c, spec)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Stats.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E8: multi-column and θ joins.
func BenchmarkMultiColumnJoin(b *testing.B) {
	a, c, err := workload.JoinPair(9, 24, 24, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	spec := join.Spec{ACols: []int{0, 1}, BCols: []int{0, 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.Join(a, c, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThetaJoin(b *testing.B) {
	a, c, err := workload.JoinPair(10, 24, 24, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.Theta(a, c, 0, 0, GT); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: the division array.
func BenchmarkDivisionArray(b *testing.B) {
	for _, shape := range [][2]int{{8, 4}, {16, 8}} {
		b.Run(fmt.Sprintf("x=%d,y=%d", shape[0], shape[1]), func(b *testing.B) {
			a, c, err := workload.DivisionCase(11, shape[0], shape[1], 0.5)
			if err != nil {
				b.Fatal(err)
			}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := division.DivideBinary(a, c)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Stats.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E10: bit-level versus word-level comparison arrays.
func BenchmarkWordVsBitLevel(b *testing.B) {
	a, _ := workload.Uniform(12, 12, 2, 16)
	c, _ := workload.Uniform(13, 12, 2, 16)
	at, ct := a.Tuples(), c.Tuples()
	b.Run("word", func(b *testing.B) {
		var pulses int
		for i := 0; i < b.N; i++ {
			res, err := comparison.Run2D(at, ct, nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			pulses += res.Stats.Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
	b.Run("bit", func(b *testing.B) {
		var pulses int
		for i := 0; i < b.N; i++ {
			res, err := bitlevel.Run2D(at, ct, 4, nil)
			if err != nil {
				b.Fatal(err)
			}
			pulses += res.Stats.Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
}

// E11: §8 decomposition overhead as the physical array shrinks.
func BenchmarkDecomposition(b *testing.B) {
	a, _ := workload.Uniform(14, 48, 2, 4)
	c, _ := workload.Uniform(15, 48, 2, 4)
	at, ct := a.Tuples(), c.Tuples()
	for _, cap := range []int{48, 16, 8} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			size := decompose.ArraySize{MaxA: cap, MaxB: cap}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := decompose.Tiler{Size: size}.Accumulate(at, ct, nil)
				if err != nil {
					b.Fatal(err)
				}
				pulses += st.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E11 ablation: tile shape at constant per-pass capacity. Decomposition
// overhead depends on how the fixed array's capacity is split between the
// A side and the B side; the pulses/op metric exposes the asymmetry.
func BenchmarkTileShapeAblation(b *testing.B) {
	a, _ := workload.Uniform(22, 64, 2, 4)
	c, _ := workload.Uniform(23, 64, 2, 4)
	at, ct := a.Tuples(), c.Tuples()
	for _, shape := range []decompose.ArraySize{
		{MaxA: 64, MaxB: 4}, {MaxA: 32, MaxB: 8}, {MaxA: 16, MaxB: 16}, {MaxA: 8, MaxB: 32}, {MaxA: 4, MaxB: 64},
	} {
		b.Run(fmt.Sprintf("%dx%d", shape.MaxA, shape.MaxB), func(b *testing.B) {
			var pulses int
			for i := 0; i < b.N; i++ {
				_, st, err := decompose.Tiler{Size: shape}.Accumulate(at, ct, nil)
				if err != nil {
					b.Fatal(err)
				}
				pulses += st.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E14: utilization of the two-moving-streams array versus the §8
// fixed-relation variant.
func BenchmarkMovingVsFixed(b *testing.B) {
	a, _ := workload.Uniform(16, 24, 3, 4)
	c, _ := workload.Uniform(17, 24, 3, 4)
	at, ct := a.Tuples(), c.Tuples()
	b.Run("moving", func(b *testing.B) {
		var pulses, cellSteps, active int
		for i := 0; i < b.N; i++ {
			res, err := comparison.Run2D(at, ct, nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			pulses += res.Stats.Pulses
			cellSteps += res.Stats.CellSteps
			active += res.Stats.ActiveSteps
		}
		reportSim(b, pulses, cellSteps, active)
	})
	b.Run("fixed", func(b *testing.B) {
		var pulses, cellSteps, active int
		for i := 0; i < b.N; i++ {
			res, err := comparison.RunFixed(at, ct, nil)
			if err != nil {
				b.Fatal(err)
			}
			pulses += res.Stats.Pulses
			cellSteps += res.Stats.CellSteps
			active += res.Stats.ActiveSteps
		}
		reportSim(b, pulses, cellSteps, active)
	})
}

// E15: a multi-operation transaction on the §9 crossbar machine.
func BenchmarkMachineTransaction(b *testing.B) {
	a, c, err := workload.JoinPair(18, 32, 32, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	cat := query.Catalog{"A": a, "B": c}
	plan := query.Project{
		Child: query.Join{L: query.Scan{Name: "A"}, R: query.Scan{Name: "B"},
			Spec: join.Spec{ACols: []int{0}, BCols: []int{0}}},
		Cols: []int{0, 1},
	}
	tasks, _, err := query.Compile(plan, cat)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.Default1980(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// E16: the systolic intersection array versus Song's tree machine on the
// same workload.
func BenchmarkTreeMachineVsSystolic(b *testing.B) {
	a, c, err := workload.OverlapPair(19, 32, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	at, ct := a.Tuples(), c.Tuples()
	b.Run("systolic", func(b *testing.B) {
		var pulses int
		for i := 0; i < b.N; i++ {
			_, st, err := intersect.RunAccumulated(at, ct, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			pulses += st.Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
	b.Run("tree", func(b *testing.B) {
		var pulses int
		for i := 0; i < b.N; i++ {
			tr, err := treemachine.New(len(at))
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.Load(at); err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Intersect(ct, len(at)); err != nil {
				b.Fatal(err)
			}
			pulses += tr.Stats().Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
}

// E17: systolic simulation versus conventional-host baselines. The
// simulator pays a large constant per simulated processor, so the host
// wins on wall-clock here; the §8 model (experiment E12) is what converts
// pulse counts into the hardware's wall-clock advantage.
func BenchmarkBaselineIntersection(b *testing.B) {
	a, c, err := workload.OverlapPair(20, 64, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("systolic-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := intersect.Intersection(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.IntersectionHash(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.IntersectionNested(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBaselineJoin(b *testing.B) {
	a, c, err := workload.JoinPair(21, 64, 64, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := baseline.JoinSpec{ACols: []int{0}, BCols: []int{0}}
	b.Run("host-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.JoinPairsHash(a, c, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-sortmerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.JoinPairsSortMerge(a, c, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.JoinPairsNested(a, c, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("systolic-sim", func(b *testing.B) {
		jspec := join.Spec{ACols: []int{0}, BCols: []int{0}}
		for i := 0; i < b.N; i++ {
			if _, err := join.Join(a, c, jspec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E18: logic-per-track selection throughput.
func BenchmarkLPTDiskSelect(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := workload.Uniform(24, n, 2, 100)
			if err != nil {
				b.Fatal(err)
			}
			d, err := lptdisk.New(32, perf.Disk1980)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Store(r); err != nil {
				b.Fatal(err)
			}
			q := relation.Query{{Col: 0, Op: cells.LT, Value: 50}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E19: the pattern-match chip at one alignment per pulse.
func BenchmarkPatternMatch(b *testing.B) {
	text := make([]relation.Element, 512)
	for i := range text {
		text[i] = relation.Element(i % 5)
	}
	for _, L := range []int{4, 16} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			pat := make([]relation.Element, L)
			for i := range pat {
				pat[i] = relation.Element(i % 5)
			}
			var pulses int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := patternmatch.Match(pat, text)
				if err != nil {
					b.Fatal(err)
				}
				pulses += st.Pulses
			}
			reportSim(b, pulses, 0, 0)
		})
	}
}

// E20: the hexagonal array on dense and band matrices.
func BenchmarkHexMultiply(b *testing.B) {
	mk := func(n int, band bool) [][]relation.Element {
		m := make([][]relation.Element, n)
		for i := range m {
			m[i] = make([]relation.Element, n)
			for j := range m[i] {
				d := i - j
				if d < 0 {
					d = -d
				}
				if band && d > 1 {
					continue
				}
				m[i][j] = relation.Element(i + j + 1)
			}
		}
		return m
	}
	b.Run("dense8", func(b *testing.B) {
		m := mk(8, false)
		var pulses int
		for i := 0; i < b.N; i++ {
			_, st, err := hex.Multiply(m, m)
			if err != nil {
				b.Fatal(err)
			}
			pulses += st.Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
	b.Run("band16", func(b *testing.B) {
		m := mk(16, true)
		var pulses int
		for i := 0; i < b.N; i++ {
			_, st, err := hex.Multiply(m, m)
			if err != nil {
				b.Fatal(err)
			}
			pulses += st.Pulses
		}
		reportSim(b, pulses, 0, 0)
	})
}
