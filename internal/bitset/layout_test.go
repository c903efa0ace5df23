package bitset_test

// Differential and memory tests for the index layouts: every cardinality
// straddling a word boundary, on tuples whose columns take the arena form
// (low cardinality), the sparse form (unique) and a θ lane at once. The
// references are the host specifications the pulse arrays are themselves
// verified against, so the table can reach sizes the simulator cannot.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"systolicdb/internal/bitset"
	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/division"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

var layoutSizes = []int{1, 63, 64, 65, 129, 4100}

// mixedRel draws n tuples (low, unique, theta): column 0 has three values,
// column 1 is a permutation of [0, n) shifted by off (so two relations with
// different offsets share n-off values), column 2 has seven values.
func mixedRel(t *testing.T, rng *rand.Rand, n, off int) *relation.Relation {
	t.Helper()
	sch, err := workload.Schema(3)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	for i, u := range rng.Perm(n) {
		tuples[i] = relation.Tuple{relation.Element(rng.Intn(3)), relation.Element(u + off), relation.Element(rng.Intn(7))}
	}
	return relation.MustRelation(sch, tuples)
}

func key(t relation.Tuple) string { return fmt.Sprint([]relation.Element(t)) }

func TestLayoutMembershipAndDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, n := range layoutSizes {
		// B holds a third of A's tuples verbatim and a third with only the
		// low-cardinality column changed: the sparse lane hits, the arena
		// lane decides.
		a := mixedRel(t, rng, n, 0).Tuples()
		var b []relation.Tuple
		for i, tu := range a {
			switch i % 3 {
			case 0:
				b = append(b, tu.Clone())
			case 1:
				c := tu.Clone()
				c[0] += 3
				b = append(b, c)
			}
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		in := make(map[string]bool)
		for _, tu := range b {
			in[key(tu)] = true
		}
		keep, _, err := bitset.Membership(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, tu := range a {
			if keep[i] != in[key(tu)] {
				t.Fatalf("n=%d: membership bit %d = %v, want %v", n, i, keep[i], in[key(tu)])
			}
		}

		// Every fourth tuple repeats an earlier one, possibly words away.
		d := mixedRel(t, rng, n, 0).Tuples()
		for i := 3; i < n; i += 4 {
			d[i] = d[rng.Intn(i)].Clone()
		}
		dup, _, err := bitset.Duplicates(d)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[string]bool)
		for i, tu := range d {
			if dup[i] != seen[key(tu)] {
				t.Fatalf("n=%d: duplicate bit %d = %v, want %v", n, i, dup[i], seen[key(tu)])
			}
			seen[key(tu)] = true
		}
	}
}

func TestLayoutJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	specs := []join.Spec{
		{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.EQ}},
		{ACols: []int{1}, BCols: []int{1}, Ops: []cells.Op{cells.EQ}},
		{ACols: []int{2}, BCols: []int{2}, Ops: []cells.Op{cells.LT}},
		{ACols: []int{0, 1}, BCols: []int{0, 1}, Ops: []cells.Op{cells.EQ, cells.EQ}},
		{ACols: []int{0, 2}, BCols: []int{0, 2}, Ops: []cells.Op{cells.EQ, cells.GE}},
		{ACols: []int{2, 1}, BCols: []int{2, 1}, Ops: []cells.Op{cells.NE, cells.EQ}},
		{ACols: []int{0, 1, 2}, BCols: []int{0, 1, 2}, Ops: []cells.Op{cells.EQ, cells.EQ, cells.LE}},
	}
	for _, n := range layoutSizes {
		a, b := mixedRel(t, rng, n, 0), mixedRel(t, rng, n, n/3)
		for _, spec := range specs {
			aKeys, bKeys := join.Keys(a, spec.ACols), join.Keys(b, spec.BCols)
			want := comparison.ReferenceT(aKeys, bKeys, spec.Ops, nil)
			got, _, err := bitset.JoinT(aKeys, bKeys, spec.Ops)
			if err != nil {
				t.Fatalf("n=%d %+v: %v", n, spec, err)
			}
			if !want.Equal(got) {
				t.Fatalf("n=%d %+v: T differs from the reference", n, spec)
			}
			pairs := 0
			for _, bits := range want.Bits {
				for _, bit := range bits {
					if bit {
						pairs++
					}
				}
			}
			if pairs > 1<<18 {
				continue // millions of result rows; T above already compared every bit
			}
			wantRel, _, err := join.Materialize(a, b, spec, want)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bitset.Join(a, b, spec)
			if err != nil {
				t.Fatalf("n=%d %+v: %v", n, spec, err)
			}
			if res.Pairs != pairs {
				t.Fatalf("n=%d %+v: %d pairs, want %d", n, spec, res.Pairs, pairs)
			}
			sameRelation(t, fmt.Sprintf("n=%d %+v", n, spec), wantRel, res.Rel)
		}
	}
}

func TestLayoutDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	for _, n := range layoutSizes {
		for _, nDiv := range []int{0, 1, 64, 65} {
			// n pairs over ~n/(nDiv+1) stored x's; most x's get the whole
			// divisor, some lose one element, some get strangers only.
			divisor := make([]relation.Element, nDiv)
			for k := range divisor {
				divisor[k] = relation.Element(100 + k)
			}
			var pairs []division.Pair
			var xs []relation.Element
			for x := 0; len(pairs) < n; x++ {
				xs = append(xs, relation.Element(x))
				miss := -1
				if x%3 == 1 && nDiv > 0 {
					miss = rng.Intn(nDiv)
				}
				for k, y := range divisor {
					if k != miss {
						pairs = append(pairs, division.Pair{Z: relation.Element(x), Y: y})
					}
				}
				pairs = append(pairs, division.Pair{Z: relation.Element(x), Y: 7}) // not a divisor element
			}
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			xs = append(xs, 1<<40) // stored, never paired
			got, _ := bitset.DivisionBits(pairs, xs, divisor)
			sameBits(t, fmt.Sprintf("n=%d divisor=%d", n, nDiv), division.ReferenceBits(pairs, xs, divisor), got)
		}
	}
}

// FuzzJoinDifferential fuzzes the row evaluator's second consumer against
// the pulse array: any byte string decodes to two key lists and an
// operator per column, and the two backends must agree on every t_ij.
func FuzzJoinDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{1, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 5, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w := 1 + int(data[0]%2)
		ops := make([]cells.Op, w)
		for k := range ops {
			ops[k] = []cells.Op{cells.EQ, cells.NE, cells.LT, cells.LE, cells.GT, cells.GE}[int(data[1]>>(3*k))%6]
		}
		data = data[2:]
		if len(data) > 48 { // the pulse array is the slow side
			data = data[:48]
		}
		n := len(data) / w
		mk := func(lo, hi int) []relation.Tuple {
			ts := make([]relation.Tuple, 0, hi-lo)
			for i := lo; i < hi; i++ {
				tu := make(relation.Tuple, w)
				for k := range tu {
					tu[k] = relation.Element(data[i*w+k] % 8)
				}
				ts = append(ts, tu)
			}
			return ts
		}
		a, b := mk(0, n/2), mk(n/2, n)
		pulse, _, err := join.RunT(a, b, ops)
		if err != nil {
			t.Fatalf("pulse: %v", err)
		}
		bits, _, err := bitset.JoinT(a, b, ops)
		if err != nil {
			t.Fatalf("bitset: %v", err)
		}
		if !pulse.Equal(bits) {
			t.Fatalf("T differs (ops=%v a=%v b=%v)\npulse:\n%v\nbitset:\n%v", ops, a, b, pulse, bits)
		}
	})
}

// TestLinearMemory pins the O(n) index: intersecting and equi-joining two
// unique-key relations of 65 536 tuples allocates under 64 MiB in total
// (one n-bit vector per distinct value needed over 1 GiB per column), and
// a 4× larger input allocates less than 6× the bytes.
func TestLinearMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a few hundred MiB in total")
	}
	alloc := func(n int) uint64 {
		a, b, err := workload.OverlapPair(1, n, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := bitset.Intersection(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Cardinality() != n/2 {
			t.Fatalf("n=%d: intersection has %d tuples, want %d", n, res.Rel.Cardinality(), n/2)
		}
		jr, err := bitset.Join(a, b, join.Spec{ACols: []int{0}, BCols: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		if jr.Pairs != n/2 {
			t.Fatalf("n=%d: join has %d pairs, want %d", n, jr.Pairs, n/2)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1<<16), alloc(1<<18)
	if small >= 64<<20 {
		t.Errorf("n=65536: allocated %d MiB, want < 64 MiB", small>>20)
	}
	if large >= 6*small {
		t.Errorf("n=262144 allocated %d bytes, n=65536 %d: more than 6x for 4x the input", large, small)
	}
}
