//go:build !race

package kernel

// Timing floors on the bitset engine, each a ratio of two timings taken in
// the same process so the limit holds on whatever machine runs it. The race
// detector slows the engines unevenly, so these run only without it.

import (
	"testing"
	"time"

	"systolicdb/internal/baseline"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// floorOp is one timed operator: on a kernel, and on internal/baseline's
// host hash algorithm over the same inputs.
type floorOp struct {
	name   string
	kernel func(Kernel) (*relation.Relation, Cost, error)
	host   func() (*relation.Relation, error)
}

// floorOps builds the intersect and join cases over n-tuple inputs drawn
// from kernel_heavy's generators (two elements per tuple, seed 1).
func floorOps(t *testing.T, n int) []floorOp {
	t.Helper()
	ia, ib, err := workload.OverlapPair(1, n, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb, err := workload.JoinPair(1, n, n, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	onKey := join.Spec{ACols: []int{0}, BCols: []int{0}}
	return []floorOp{
		{"intersect",
			func(k Kernel) (*relation.Relation, Cost, error) { return k.Intersect(ia, ib) },
			func() (*relation.Relation, error) { return baseline.IntersectionHash(ia, ib) }},
		{"join",
			func(k Kernel) (*relation.Relation, Cost, error) { return k.Join(ja, jb, onKey) },
			func() (*relation.Relation, error) { return hashJoin(ja, jb, onKey) }},
	}
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

// bestOf runs f iters times and returns the fastest wall time (the usual
// guard against scheduler noise) and the result's cardinality.
func bestOf(t *testing.T, iters int, f func() (*relation.Relation, error)) (time.Duration, int) {
	t.Helper()
	best, rows := time.Duration(-1), 0
	for i := 0; i < iters; i++ {
		start := time.Now()
		rel, err := f()
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		rows = rel.Cardinality()
		if best < 0 || d < best {
			best = d
		}
	}
	return best, rows
}

func onKernel(k Kernel, f func(Kernel) (*relation.Relation, Cost, error)) func() (*relation.Relation, error) {
	return func() (*relation.Relation, error) {
		rel, _, err := f(k)
		return rel, err
	}
}

// TestFloorBitsetOverPulse: at n = 128 the word-parallel engine stays at
// least an order of magnitude ahead of the cycle-faithful pulse simulator
// on intersect and join.
func TestFloorBitsetOverPulse(t *testing.T) {
	for _, op := range floorOps(t, 128) {
		dp, rp := bestOf(t, 3, onKernel(Pulse{}, op.kernel))
		db, rb := bestOf(t, 3, onKernel(Bitset{}, op.kernel))
		if rp != rb {
			t.Fatalf("%s: pulse %d rows, bitset %d", op.name, rp, rb)
		}
		speedup := dp.Seconds() / db.Seconds()
		t.Logf("%s: pulse %v, bitset %v (%.0fx)", op.name, dp, db, speedup)
		if speedup < 10 {
			t.Errorf("%s: bitset is %.1fx the pulse simulator, want >= 10x", op.name, speedup)
		}
	}
}

// TestFloorBitsetVsBaseline: at n = 4096 (kernel_heavy's cardinality) the
// bitset intersect and join stay within 2x of the host hash operators'
// time per tuple.
func TestFloorBitsetVsBaseline(t *testing.T) {
	for _, op := range floorOps(t, 4096) {
		db, rb := bestOf(t, 5, onKernel(Bitset{}, op.kernel))
		dh, rh := bestOf(t, 5, op.host)
		if rb != rh {
			t.Fatalf("%s: bitset %d rows, baseline %d", op.name, rb, rh)
		}
		ratio := db.Seconds() / dh.Seconds()
		t.Logf("%s: bitset %v, baseline %v (bitset/baseline %.2f)", op.name, db, dh, ratio)
		if ratio > 2 {
			t.Errorf("%s: bitset takes %.1fx the baseline's time at n=4096, limit 2x", op.name, ratio)
		}
	}
}
