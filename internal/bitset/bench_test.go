package bitset_test

// Kernel benchmarks on the generators cmd/loadgen's kernel_heavy workload
// draws its operands from (same shapes: overlap 0.5, match factor 1,
// duplication 0.5, n/4 quotient values over a 16-element divisor), and the
// small_plans cold plan. Rerun with
//
//	go test -run '^$' -bench . -benchmem ./internal/bitset/

import (
	"fmt"
	"testing"

	"systolicdb/internal/bitset"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

var onKey = join.Spec{ACols: []int{0}, BCols: []int{0}}

func must2(b *testing.B) func(x, y *relation.Relation, err error) (*relation.Relation, *relation.Relation) {
	return func(x, y *relation.Relation, err error) (*relation.Relation, *relation.Relation) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return x, y
	}
}

func BenchmarkKernel(b *testing.B) {
	for _, n := range []int{1024, 4096, 65536} {
		ia, ib := must2(b)(workload.OverlapPair(1, n, 2, 0.5))
		ja, jb := must2(b)(workload.JoinPair(2, n, n, 2, 1))
		d, err := workload.WithDuplicates(3, n, 2, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		da, db := must2(b)(workload.DivisionCase(4, n/4, 16, 0.5))
		for _, k := range []struct {
			op  string
			run func() error
		}{
			{"intersect", func() error { _, err := bitset.Intersection(ia, ib); return err }},
			{"union", func() error { _, err := bitset.Union(ia, ib); return err }},
			{"dedup", func() error { _, err := bitset.RemoveDuplicates(d); return err }},
			{"join", func() error { _, err := bitset.Join(ja, jb, onKey); return err }},
			{"divide", func() error { _, err := bitset.Divide(da, db, []int{0}, []int{1}, []int{0}); return err }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.op, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := k.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSmallPlan is the small_plans cold plan: an 11-column projection
// (every column one of 16 values) of the ≤ 256-row equi-join of two 64-row
// relations — the shape on which a per-column fixed cost shows.
func BenchmarkSmallPlan(b *testing.B) {
	ra, err := workload.Uniform(1, 64, 3, 16)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := workload.Uniform(2, 64, 3, 16)
	if err != nil {
		b.Fatal(err)
	}
	cols := []int{0, 1, 2, 0, 2, 1, 1, 0, 2, 2, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := bitset.Join(ra, rb, onKey)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bitset.Project(j.Rel, cols); err != nil {
			b.Fatal(err)
		}
	}
}
