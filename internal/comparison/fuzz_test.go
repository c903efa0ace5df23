package comparison

import (
	"math/rand"
	"testing"

	"systolicdb/internal/cells"
)

// FuzzComparisonArray runs the two-dimensional array on random shapes up
// to 6x6 and widths 1–3, with equality everywhere or a random operator per
// column (the join array) and an all-TRUE or triangle init, and checks it
// against ReferenceT and its closed-form pulse count.
func FuzzComparisonArray(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(2), uint16(0), false)
	f.Add(int64(2), uint8(6), uint8(1), uint8(3), uint16(0x1d3), true)
	f.Add(int64(3), uint8(1), uint8(6), uint8(1), uint16(0x0a), false)
	f.Fuzz(func(t *testing.T, seed int64, nA, nB, width uint8, opCode uint16, triangle bool) {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(width%3)
		a, b := randTuples(rng, 1+int(nA%6), m, 3), randTuples(rng, 1+int(nB%6), m, 3)
		// Bit 0 of opCode selects the θ array; three bits per column
		// after it pick that column's operator.
		var ops []cells.Op
		if opCode&1 == 1 {
			all := []cells.Op{cells.EQ, cells.NE, cells.LT, cells.LE, cells.GT, cells.GE}
			for k := range m {
				ops = append(ops, all[int(opCode>>(1+3*k)&7)%len(all)])
			}
		}
		var init InitFunc
		if triangle {
			init = func(i, j int) bool { return i > j }
		}
		res, err := Run2D(a, b, ops, init, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := ReferenceT(a, b, ops, init); !res.T.Equal(want) {
			t.Errorf("ops %v triangle %v: T = %v, want %v", ops, triangle, res.T.Bits, want.Bits)
		}
		if res.Stats.Pulses != res.Sched.TotalPulses() {
			t.Errorf("ran %d pulses, schedule says %d", res.Stats.Pulses, res.Sched.TotalPulses())
		}
	})
}
