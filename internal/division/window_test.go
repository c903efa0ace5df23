package division

import (
	"math/rand"
	"testing"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// checkWindows calls every feeder at every pulse of a run and fails if one
// yields a token outside the window it registered.
func checkWindows(t *testing.T, pulses int, ports []systolic.Port) {
	t.Helper()
	for _, p := range ports {
		for pulse := 0; pulse < pulses; pulse++ {
			q := pulse - p.First
			in := q >= 0 && q%p.Stride == 0 && q/p.Stride < p.Count
			if p.Feed(pulse).Present() && !in {
				t.Fatalf("%v[%d] feeds pulse %d, outside its window %+v", p.Side, p.Index, pulse, p.Window)
			}
		}
	}
}

// TestFeedersStayInWindows checks the feeds of the simple and the general
// division arrays for random shapes, over the pulses each driver runs.
func TestFeedersStayInWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tuple := func(k int) relation.Tuple {
		t := make(relation.Tuple, k)
		for i := range t {
			t[i] = relation.Element(rng.Intn(3))
		}
		return t
	}
	for range 100 {
		n, nRows, nB := rng.Intn(10), 1+rng.Intn(4), rng.Intn(4)
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{Z: relation.Element(rng.Intn(3)), Y: relation.Element(rng.Intn(3))}
		}
		checkWindows(t, n+1+nRows+nB+1, pairPorts(pairs))

		kz, ky, nDiv := 1+rng.Intn(3), 1+rng.Intn(3), rng.Intn(3)
		var p GeneralProblem
		for range n {
			p.ZS, p.YS = append(p.ZS, tuple(kz)), append(p.YS, tuple(ky))
		}
		checkWindows(t, probeEntry(n, kz, ky)+nRows+nDiv*ky+ky+6, p.ports(kz, ky))
	}
}
