package treemachine

import (
	"math/rand"
	"testing"

	"systolicdb/internal/relation"
)

func tuples(rows ...[]int64) []relation.Tuple {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		t := make(relation.Tuple, len(r))
		for k := range t {
			t[k] = relation.Element(r[k])
		}
		out[i] = t
	}
	return out
}

func TestNewRoundsUpToPowerOfTwo(t *testing.T) {
	cases := []struct{ cap, leaves, depth int }{
		{1, 1, 0}, {2, 2, 1}, {3, 4, 2}, {4, 4, 2}, {5, 8, 3}, {1000, 1024, 10},
	}
	for _, c := range cases {
		tr, err := New(c.cap)
		if err != nil {
			t.Fatal(err)
		}
		if tr.leaves != c.leaves || tr.depth != c.depth {
			t.Errorf("New(%d): leaves=%d depth=%d, want %d/%d", c.cap, tr.leaves, tr.depth, c.leaves, c.depth)
		}
	}
	if _, err := New(0); err == nil {
		t.Error("zero capacity not rejected")
	}
}

func TestIntersect(t *testing.T) {
	a := tuples([]int64{1, 1}, []int64{2, 2}, []int64{3, 3})
	b := tuples([]int64{2, 2}, []int64{9, 9})
	tr, err := New(len(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(a); err != nil {
		t.Fatal(err)
	}
	bits, err := tr.Intersect(b, len(a))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false}
	for i := range want {
		if bits[i] != want[i] {
			t.Errorf("bits[%d] = %v, want %v", i, bits[i], want[i])
		}
	}
	if tr.Stats().Pulses == 0 {
		t.Error("no pulses counted")
	}
}

func TestJoinPairs(t *testing.T) {
	a := tuples([]int64{1, 10}, []int64{2, 20}, []int64{1, 30})
	b := tuples([]int64{1, 99}, []int64{3, 98})
	tr, err := New(len(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(a); err != nil {
		t.Fatal(err)
	}
	pairs, err := tr.JoinPairs([]int{0}, b, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{{0, 0}: true, {2, 0}: true}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs %v, want 2", len(pairs), pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %v", p)
		}
	}
}

func TestJoinFunnelSerialisation(t *testing.T) {
	// Degenerate all-match join: output size |A|*|B| must dominate the
	// pulse count because results funnel through the root one per pulse.
	n := 16
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{7, int64(i)}
	}
	a := tuples(rows...)
	tr, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(a); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().Pulses
	pairs, err := tr.JoinPairs([]int{0}, a, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n*n {
		t.Fatalf("got %d pairs, want %d", len(pairs), n*n)
	}
	opPulses := tr.Stats().Pulses - before
	if opPulses < n*n {
		t.Errorf("join took %d pulses; funnel should force at least |A||B| = %d", opPulses, n*n)
	}
}

func TestIntersectRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		mk := func(n int) []relation.Tuple {
			out := make([]relation.Tuple, n)
			for i := range out {
				out[i] = relation.Tuple{relation.Element(rng.Int63n(5)), relation.Element(rng.Int63n(5))}
			}
			return out
		}
		a, b := mk(n), mk(1+rng.Intn(20))
		tr, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Load(a); err != nil {
			t.Fatal(err)
		}
		bits, err := tr.Intersect(b, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			want := false
			for _, tb := range b {
				if a[i].Equal(tb) {
					want = true
					break
				}
			}
			if bits[i] != want {
				t.Fatalf("trial %d: bits[%d]=%v, want %v", trial, i, bits[i], want)
			}
		}
	}
}

func TestLoadOverCapacity(t *testing.T) {
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Load(tuples([]int64{1}, []int64{2}, []int64{3})); err == nil {
		t.Error("overfull load not rejected")
	}
}
