package bitset_test

// The differential harness: every operation of the bitset backend is run
// against the pulse simulator on the same randomly drawn relations, and
// the results must agree bit-for-bit (the membership/duplicate/quotient
// bits) and tuple-for-tuple (the materialised relations). Shapes cover
// the edge cases that have historically disagreed between drivers: empty
// relations, single-tuple relations, width-1 tuples, and duplicate-heavy
// inputs drawn from tiny domains.

import (
	"math/rand"
	"testing"

	"systolicdb/internal/bitset"
	"systolicdb/internal/cells"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// pairsPerOp is the number of random relation pairs each operation is
// differentially checked on (the acceptance floor is 1000 per op).
const pairsPerOp = 1000

func iterations(t *testing.T) int {
	if testing.Short() {
		return 100
	}
	return pairsPerOp
}

// randN draws a cardinality weighted toward the interesting small end:
// empty and single-tuple relations come up often enough to be pinned.
func randN(rng *rand.Rand) int {
	switch r := rng.Intn(20); {
	case r == 0:
		return 0
	case r <= 2:
		return 1
	default:
		return 2 + rng.Intn(23)
	}
}

// randDomain keeps element domains tiny so duplicates and matches are
// common rather than coincidental.
func randDomain(rng *rand.Rand) int64 {
	doms := [...]int64{1, 2, 3, 5, 9, 17}
	return doms[rng.Intn(len(doms))]
}

func randWidth(rng *rand.Rand) int {
	ws := [...]int{1, 1, 2, 2, 3}
	return ws[rng.Intn(len(ws))]
}

func randRel(t *testing.T, rng *rand.Rand, n, m int, domain int64) *relation.Relation {
	t.Helper()
	sch, err := workload.Schema(m)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tu := make(relation.Tuple, m)
		for k := range tu {
			tu[k] = relation.Element(rng.Int63n(domain))
		}
		tuples[i] = tu
	}
	rel, err := relation.NewRelation(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func sameRelation(t *testing.T, label string, pulse, bits *relation.Relation) {
	t.Helper()
	if pulse.Cardinality() != bits.Cardinality() || pulse.Width() != bits.Width() {
		t.Fatalf("%s: pulse %dx%d != bitset %dx%d\npulse:\n%s\nbitset:\n%s",
			label, pulse.Cardinality(), pulse.Width(), bits.Cardinality(), bits.Width(), pulse, bits)
	}
	pt, bt := pulse.Tuples(), bits.Tuples()
	for i := range pt {
		for k := range pt[i] {
			if pt[i][k] != bt[i][k] {
				t.Fatalf("%s: tuple %d differs: pulse %v, bitset %v", label, i, pt[i], bt[i])
			}
		}
	}
}

func sameBits(t *testing.T, label string, pulse, bits []bool) {
	t.Helper()
	if len(pulse) != len(bits) {
		t.Fatalf("%s: %d pulse bits != %d bitset bits", label, len(pulse), len(bits))
	}
	for i := range pulse {
		if pulse[i] != bits[i] {
			t.Fatalf("%s: bit %d: pulse %v, bitset %v", label, i, pulse[i], bits[i])
		}
	}
}

func TestDifferentialIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < iterations(t); i++ {
		m, dom := randWidth(rng), randDomain(rng)
		a := randRel(t, rng, randN(rng), m, dom)
		b := randRel(t, rng, randN(rng), m, dom)
		p, err := intersect.Intersection(a, b)
		if err != nil {
			t.Fatalf("case %d: pulse: %v", i, err)
		}
		w, err := bitset.Intersection(a, b)
		if err != nil {
			t.Fatalf("case %d: bitset: %v", i, err)
		}
		sameBits(t, "intersection keep bits", p.Keep, w.Bits)
		sameRelation(t, "intersection", p.Rel, w.Rel)
	}
}

func TestDifferentialDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < iterations(t); i++ {
		m, dom := randWidth(rng), randDomain(rng)
		a := randRel(t, rng, randN(rng), m, dom)
		b := randRel(t, rng, randN(rng), m, dom)
		p, err := intersect.Difference(a, b)
		if err != nil {
			t.Fatalf("case %d: pulse: %v", i, err)
		}
		w, err := bitset.Difference(a, b)
		if err != nil {
			t.Fatalf("case %d: bitset: %v", i, err)
		}
		sameBits(t, "difference keep bits", p.Keep, w.Bits)
		sameRelation(t, "difference", p.Rel, w.Rel)
	}
}

func TestDifferentialDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < iterations(t); i++ {
		a := randRel(t, rng, randN(rng), randWidth(rng), randDomain(rng))
		p, err := dedup.RemoveDuplicates(a)
		if err != nil {
			t.Fatalf("case %d: pulse: %v", i, err)
		}
		w, err := bitset.RemoveDuplicates(a)
		if err != nil {
			t.Fatalf("case %d: bitset: %v", i, err)
		}
		sameBits(t, "duplicate bits", p.Duplicate, w.Bits)
		sameRelation(t, "dedup", p.Rel, w.Rel)

		// Union and projection ride on the same remove-duplicates core;
		// spot-check them on the same draw.
		if i%8 == 0 {
			b := randRel(t, rng, randN(rng), a.Width(), randDomain(rng))
			pu, err := dedup.Union(a, b)
			if err != nil {
				t.Fatalf("case %d: pulse union: %v", i, err)
			}
			wu, err := bitset.Union(a, b)
			if err != nil {
				t.Fatalf("case %d: bitset union: %v", i, err)
			}
			sameRelation(t, "union", pu.Rel, wu.Rel)

			cols := []int{rng.Intn(a.Width())}
			pp, err := dedup.Project(a, cols)
			if err != nil {
				t.Fatalf("case %d: pulse project: %v", i, err)
			}
			wp, err := bitset.Project(a, cols)
			if err != nil {
				t.Fatalf("case %d: bitset project: %v", i, err)
			}
			sameRelation(t, "project", pp.Rel, wp.Rel)
		}
	}
}

func TestDifferentialJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	allOps := []cells.Op{cells.EQ, cells.NE, cells.LT, cells.LE, cells.GT, cells.GE}
	for i := 0; i < iterations(t); i++ {
		dom := randDomain(rng)
		w := 1 + rng.Intn(2) // join columns
		mA := w + rng.Intn(2)
		mB := w + rng.Intn(2)
		a := randRel(t, rng, randN(rng), mA, dom)
		b := randRel(t, rng, randN(rng), mB, dom)
		spec := join.Spec{
			ACols: rng.Perm(mA)[:w],
			BCols: rng.Perm(mB)[:w],
		}
		// One third equi-joins (nil Ops), the rest random θ columns —
		// including mixes of EQ and θ on multi-column specs.
		if rng.Intn(3) != 0 {
			spec.Ops = make([]cells.Op, w)
			for k := range spec.Ops {
				spec.Ops[k] = allOps[rng.Intn(len(allOps))]
			}
		}
		p, err := join.Join(a, b, spec)
		if err != nil {
			t.Fatalf("case %d (%+v): pulse: %v", i, spec, err)
		}
		wj, err := bitset.Join(a, b, spec)
		if err != nil {
			t.Fatalf("case %d (%+v): bitset: %v", i, spec, err)
		}
		ops := spec.Ops
		if ops == nil {
			ops = make([]cells.Op, w) // equi-join: EQ throughout
		}
		wT, _, err := bitset.JoinT(join.Keys(a, spec.ACols), join.Keys(b, spec.BCols), ops)
		if err != nil {
			t.Fatalf("case %d (%+v): bitset T: %v", i, spec, err)
		}
		if !p.T.Equal(wT) {
			t.Fatalf("case %d (%+v): match matrices differ\npulse:\n%v\nbitset:\n%v", i, spec, p.T, wT)
		}
		if p.Pairs != wj.Pairs {
			t.Fatalf("case %d (%+v): %d pulse pairs != %d bitset pairs", i, spec, p.Pairs, wj.Pairs)
		}
		sameRelation(t, "join", p.Rel, wj.Rel)
	}
}

func TestDifferentialDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < iterations(t); i++ {
		dom := randDomain(rng)
		mQ := 1 + rng.Intn(2)
		mD := 1 + rng.Intn(2)
		a := randRel(t, rng, randN(rng), mQ+mD, dom)
		b := randRel(t, rng, randN(rng), mD, dom)
		aQuot := make([]int, mQ)
		aDiv := make([]int, mD)
		bCols := make([]int, mD)
		for k := range aQuot {
			aQuot[k] = k
		}
		for k := range aDiv {
			aDiv[k] = mQ + k
			bCols[k] = k
		}
		p, err := division.Divide(a, b, aQuot, aDiv, bCols)
		if err != nil {
			t.Fatalf("case %d: pulse: %v", i, err)
		}
		w, err := bitset.Divide(a, b, aQuot, aDiv, bCols)
		if err != nil {
			t.Fatalf("case %d: bitset: %v", i, err)
		}
		if len(p.Xs) != len(w.Xs) {
			t.Fatalf("case %d: %d pulse xs != %d bitset xs", i, len(p.Xs), len(w.Xs))
		}
		for k := range p.Xs {
			if p.Xs[k] != w.Xs[k] {
				t.Fatalf("case %d: x %d: pulse %v, bitset %v", i, k, p.Xs[k], w.Xs[k])
			}
		}
		sameBits(t, "quotient bits", p.Bits, w.Bits)
		sameRelation(t, "division", p.Rel, w.Rel)
	}
}

// FuzzMembershipDifferential fuzzes the core accumulation against the
// pulse array: any byte string decodes to a pair of tuple lists, and the
// two backends must agree on every membership bit.
func FuzzMembershipDifferential(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 2})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 7, 7, 7, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0]%3)
		data = data[1:]
		if len(data) < m { // at least one full tuple between the two lists
			return
		}
		elems := make([]relation.Element, len(data))
		for i, by := range data {
			elems[i] = relation.Element(by % 8)
		}
		nTuples := len(elems) / m
		split := nTuples / 2
		mk := func(lo, hi int) []relation.Tuple {
			ts := make([]relation.Tuple, 0, hi-lo)
			for i := lo; i < hi; i++ {
				ts = append(ts, relation.Tuple(elems[i*m:(i+1)*m]))
			}
			return ts
		}
		a, b := mk(0, split), mk(split, nTuples)
		pulse, _, err := intersect.RunAccumulated(a, b, nil, nil)
		if err != nil {
			t.Fatalf("pulse: %v", err)
		}
		bits, _, err := bitset.Membership(a, b)
		if err != nil {
			t.Fatalf("bitset: %v", err)
		}
		if len(pulse) != len(bits) {
			t.Fatalf("%d pulse bits != %d bitset bits", len(pulse), len(bits))
		}
		for i := range pulse {
			if pulse[i] != bits[i] {
				t.Fatalf("bit %d: pulse %v, bitset %v (a=%v b=%v)", i, pulse[i], bits[i], a, b)
			}
		}
	})
}
