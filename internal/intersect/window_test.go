package intersect

import (
	"testing"

	"systolicdb/internal/comparison"
)

// TestAccumPortStaysInWindow calls the accumulation column's feeder at
// every pulse of a run and fails if it yields a token outside the window
// it registered (the comparison feeds are checked in their own package).
func TestAccumPortStaysInWindow(t *testing.T) {
	for nA := 1; nA <= 9; nA++ {
		for nB := 1; nB <= 9; nB++ {
			for m := 1; m <= 3; m++ {
				s, err := comparison.NewSchedule(nA, nB, m)
				if err != nil {
					t.Fatal(err)
				}
				p := accumPort(s)
				for pulse := 0; pulse <= accumExitPulse(s, nA-1); pulse++ {
					q := pulse - p.First
					in := q >= 0 && q%p.Stride == 0 && q/p.Stride < p.Count
					if p.Feed(pulse).Present() && !in {
						t.Fatalf("%+v: accumulator fed at pulse %d, outside %+v", s, pulse, p.Window)
					}
				}
			}
		}
	}
}
