package patternmatch

import (
	"testing"

	"systolicdb/internal/relation"
)

// TestFeedersStayInWindows calls every feeder of the chip at every pulse
// Match runs and fails if one yields a token outside the window it
// registered.
func TestFeedersStayInWindows(t *testing.T) {
	for L := 1; L <= 5; L++ {
		for n := L; n <= 12; n++ {
			text := make([]relation.Element, n)
			for _, p := range ports(L, text) {
				for pulse := 0; pulse < n-L+1+2*L; pulse++ {
					q := pulse - p.First
					in := q >= 0 && q%p.Stride == 0 && q/p.Stride < p.Count
					if p.Feed(pulse).Present() && !in {
						t.Fatalf("L=%d n=%d: %v[%d] feeds pulse %d, outside its window %+v", L, n, p.Side, p.Index, pulse, p.Window)
					}
				}
			}
		}
	}
}
