package comparison

import (
	"math/rand"
	"testing"

	"systolicdb/internal/relation"
)

func randTuples(rng *rand.Rand, n, m int, domain int64) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		t := make(relation.Tuple, m)
		for k := range t {
			t[k] = relation.Element(rng.Int63n(domain))
		}
		out[i] = t
	}
	return out
}

func TestCompareTuplesEqual(t *testing.T) {
	for m := 1; m <= 64; m *= 2 {
		a := make(relation.Tuple, m)
		for k := range a {
			a[k] = relation.Element(k * 7)
		}
		eq, stats, err := CompareTuples(a, a.Clone())
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !eq {
			t.Errorf("m=%d: equal tuples compared unequal", m)
		}
		if stats.Pulses != m {
			t.Errorf("m=%d: took %d pulses, want %d", m, stats.Pulses, m)
		}
	}
}

func TestCompareTuplesUnequalAtEveryPosition(t *testing.T) {
	const m = 9
	a := make(relation.Tuple, m)
	for k := range a {
		a[k] = relation.Element(k)
	}
	for pos := 0; pos < m; pos++ {
		b := a.Clone()
		b[pos] = 1000
		eq, _, err := CompareTuples(a, b)
		if err != nil {
			t.Fatalf("pos=%d: %v", pos, err)
		}
		if eq {
			t.Errorf("pos=%d: unequal tuples compared equal", pos)
		}
	}
}

func TestCompareTuplesErrors(t *testing.T) {
	if _, _, err := CompareTuples(relation.Tuple{1}, relation.Tuple{1, 2}); err == nil {
		t.Error("width mismatch not rejected")
	}
	if _, _, err := CompareTuples(relation.Tuple{}, relation.Tuple{}); err == nil {
		t.Error("empty tuples not rejected")
	}
}

func TestScheduleInverse(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 3, 3}, {5, 2, 4}, {2, 7, 1}, {10, 10, 6}} {
		s, err := NewSchedule(shape[0], shape[1], shape[2])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NA; i++ {
			for j := 0; j < s.NB; j++ {
				r, p := s.Row(i, j), s.StartPulse(i, j)
				if r < 0 || r >= s.Rows {
					t.Fatalf("shape %v: row %d for (%d,%d) out of range", shape, r, i, j)
				}
				gi, gj, ok := s.PairAt(r, p)
				if !ok || gi != i || gj != j {
					t.Fatalf("shape %v: PairAt(%d,%d) = (%d,%d,%v), want (%d,%d)", shape, r, p, gi, gj, ok, i, j)
				}
			}
		}
	}
}

func TestRun2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 3, 3}, {4, 4, 2}, {7, 3, 5}, {2, 9, 4}, {12, 12, 3}} {
		// A tiny domain forces plenty of matches.
		a := randTuples(rng, shape[0], shape[2], 3)
		b := randTuples(rng, shape[1], shape[2], 3)
		res, err := Run2D(a, b, nil, nil, nil)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		want := ReferenceT(a, b, nil, nil)
		if !res.T.Equal(want) {
			t.Errorf("shape %v: T mismatch\ngot  %v\nwant %v", shape, res.T.Bits, want.Bits)
		}
		if res.Stats.Pulses != res.Sched.TotalPulses() {
			t.Errorf("shape %v: ran %d pulses, schedule says %d", shape, res.Stats.Pulses, res.Sched.TotalPulses())
		}
	}
}

func TestRun2DWithInitMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTuples(rng, 6, 3, 2)
	init := func(i, j int) bool { return i > j } // remove-duplicates mask
	res, err := Run2D(a, a, nil, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceT(a, a, nil, init)
	if !res.T.Equal(want) {
		t.Errorf("masked T mismatch\ngot  %v\nwant %v", res.T.Bits, want.Bits)
	}
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			if res.T.Get(i, j) {
				t.Errorf("t[%d][%d] true despite FALSE initial input", i, j)
			}
		}
	}
}

func TestRunFixedMatchesRun2D(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, shape := range [][3]int{{1, 1, 1}, {5, 4, 3}, {8, 2, 2}, {3, 9, 5}} {
		a := randTuples(rng, shape[0], shape[2], 3)
		b := randTuples(rng, shape[1], shape[2], 3)
		moving, err := Run2D(a, b, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := RunFixed(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !moving.T.Equal(fixed.T) {
			t.Errorf("shape %v: fixed-relation variant disagrees with moving variant", shape)
		}
	}
}

func TestFixedVariantImprovesUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTuples(rng, 20, 4, 3)
	b := randTuples(rng, 20, 4, 3)
	moving, err := Run2D(a, b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RunFixed(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu, fu := moving.Stats.Utilization(), fixed.Stats.Utilization()
	if fu <= mu {
		t.Errorf("fixed-relation utilization %.3f not better than moving %.3f", fu, mu)
	}
}

func TestRun2DEmptyRelations(t *testing.T) {
	res, err := Run2D(nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.T.NA != 0 || res.T.NB != 0 {
		t.Errorf("empty input produced %dx%d matrix", res.T.NA, res.T.NB)
	}
}

func TestRun2DRejectsRaggedTuples(t *testing.T) {
	a := []relation.Tuple{{1, 2}, {3}}
	b := []relation.Tuple{{1, 2}}
	if _, err := Run2D(a, b, nil, nil, nil); err == nil {
		t.Error("ragged tuples not rejected")
	}
	if _, err := Run2D([]relation.Tuple{{1}}, []relation.Tuple{{1, 2}}, nil, nil, nil); err == nil {
		t.Error("width mismatch between relations not rejected")
	}
}

func TestOrRowsMatchesAccumulationSemantics(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Bits[0][1] = true
	m.Bits[2][0] = true
	or := m.OrRows()
	want := []bool{true, false, true}
	for i := range want {
		if or[i] != want[i] {
			t.Errorf("OrRows[%d] = %v, want %v", i, or[i], want[i])
		}
	}
}

func TestMatrixEqualShapes(t *testing.T) {
	a, b := NewMatrix(2, 2), NewMatrix(2, 3)
	if a.Equal(b) {
		t.Error("different shapes reported equal")
	}
	c := NewMatrix(2, 2)
	c.Bits[1][1] = true
	if a.Equal(c) {
		t.Error("different bits reported equal")
	}
	if !a.Equal(NewMatrix(2, 2)) {
		t.Error("identical matrices reported unequal")
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(0, 3, 2); err == nil {
		t.Error("zero nA not rejected")
	}
	if _, err := NewSchedule(3, -1, 2); err == nil {
		t.Error("negative nB not rejected")
	}
	if _, err := NewSchedule(3, 3, 0); err == nil {
		t.Error("zero width not rejected")
	}
}

func TestFeedPulseFormulas(t *testing.T) {
	// The feed-pulse formulas must align with StartPulse: a tuple's
	// element 0 reaches the meeting row exactly when its pair starts.
	s, err := NewSchedule(4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NA; i++ {
		for j := 0; j < s.NB; j++ {
			// a_{i,0} enters at APulse(i,0) and needs Row(i,j) hops
			// to reach the meeting row (entering row 0 at its feed
			// pulse).
			if s.APulse(i, 0)+s.Row(i, j) != s.StartPulse(i, j) {
				t.Errorf("A feed misaligned for pair (%d,%d)", i, j)
			}
			// b_{j,0} enters at the bottom row (Rows-1) and climbs.
			if s.BPulse(j, 0)+(s.Rows-1-s.Row(i, j)) != s.StartPulse(i, j) {
				t.Errorf("B feed misaligned for pair (%d,%d)", i, j)
			}
		}
	}
	// Element staggering: one pulse per element.
	if s.APulse(2, 1)-s.APulse(2, 0) != 1 || s.BPulse(1, 2)-s.BPulse(1, 1) != 1 {
		t.Error("element staggering is not one pulse")
	}
	// Tuple spacing: two pulses per tuple.
	if s.APulse(3, 0)-s.APulse(2, 0) != 2 {
		t.Error("tuple spacing is not two pulses")
	}
}

func TestFixedScheduleFormulas(t *testing.T) {
	s := FixedSchedule{NA: 5, NB: 4, M: 3}
	if s.StartPulse(2, 3) != 5 || s.ExitPulse(2, 3) != 7 {
		t.Errorf("fixed schedule pulses wrong: %d, %d", s.StartPulse(2, 3), s.ExitPulse(2, 3))
	}
	if s.TotalPulses() != s.ExitPulse(4, 3)+1 {
		t.Error("fixed total pulses wrong")
	}
}

func TestTotalPulsesLinear(t *testing.T) {
	// The pipelining claim of §3.2: pulses grow linearly in nA+nB+m,
	// not as the product nA*nB*m.
	s1, _ := NewSchedule(10, 10, 5)
	s2, _ := NewSchedule(20, 20, 5)
	if s2.TotalPulses() >= 3*s1.TotalPulses() {
		t.Errorf("doubling n tripled pulses: %d -> %d", s1.TotalPulses(), s2.TotalPulses())
	}
	if s2.TotalPulses() <= s1.TotalPulses() {
		t.Errorf("pulse count not monotone: %d -> %d", s1.TotalPulses(), s2.TotalPulses())
	}
}

// APulse returns the pulse at which element k of A's tuple i enters the top
// of column k.
func (s Schedule) APulse(i, k int) int { return s.Alpha + 2*i + k }

// BPulse returns the pulse at which element k of B's tuple j enters the
// bottom of column k.
func (s Schedule) BPulse(j, k int) int { return s.Beta + 2*j + k }

// StartPulse returns the pulse at which pair (i, j) is compared in column 0.
func (s FixedSchedule) StartPulse(i, j int) int { return i + j }
