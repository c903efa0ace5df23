package comparison

import (
	"math/rand"
	"testing"

	"systolicdb/internal/systolic"
)

// inWindow reports whether pulse is one of w's.
func inWindow(w systolic.Window, pulse int) bool {
	q := pulse - w.First
	return q >= 0 && q%w.Stride == 0 && q/w.Stride < w.Count
}

// checkWindows calls every feeder at every pulse of a run and fails if one
// yields a token outside the window it registered: the grid calls it only
// inside, so such a token would be lost.
func checkWindows(t *testing.T, pulses int, ports []systolic.Port) {
	t.Helper()
	for _, p := range ports {
		for pulse := 0; pulse < pulses; pulse++ {
			if p.Feed(pulse).Present() && !inWindow(p.Window, pulse) {
				t.Fatalf("%v[%d] feeds pulse %d, outside its window %+v", p.Side, p.Index, pulse, p.Window)
			}
		}
	}
}

// TestStartWindowMatchesPairAt: each row's west window is exactly the set
// of pulses at which PairAt finds a pair starting in that row.
func TestStartWindowMatchesPairAt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for range 300 {
		s, err := NewSchedule(1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < s.Rows; r++ {
			w := s.StartWindow(r)
			for p := 0; p < s.TotalPulses()+4; p++ {
				if _, _, ok := s.PairAt(r, p); ok != inWindow(w, p) {
					t.Fatalf("%+v row %d pulse %d: PairAt ok=%v, window %+v", s, r, p, ok, w)
				}
			}
		}
	}
}

// TestFeedersStayInWindows runs checkWindows over the feeds of the 2-D,
// fixed-relation and linear comparison arrays for random shapes.
func TestFeedersStayInWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	init := func(i, j int) bool { return (i+j)%2 == 0 }
	for range 100 {
		nA, nB, m := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(4)
		a, b := randTuples(rng, nA, m, 3), randTuples(rng, nB, m, 3)
		s, err := NewSchedule(nA, nB, m)
		if err != nil {
			t.Fatal(err)
		}
		checkWindows(t, s.TotalPulses(), s.Ports(a, b, init))
		fixed := FixedSchedule{NA: nA, NB: nB, M: m}
		checkWindows(t, fixed.TotalPulses(), fixed.ports(a, init))
		checkWindows(t, m, tuplePorts(a[0], b[0]))
	}
}
