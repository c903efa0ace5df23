package bitlevel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"systolicdb/internal/comparison"
	"systolicdb/internal/intersect"
	"systolicdb/internal/relation"
)

func TestExpandCollapseRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		tu := make(relation.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = relation.Element(v)
		}
		bits, err := Expand(tu, 16)
		if err != nil {
			return false
		}
		back, err := Collapse(bits, 16)
		if err != nil {
			return false
		}
		return back.Equal(tu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpandBitOrder(t *testing.T) {
	bits, err := Expand(relation.Tuple{5}, 4) // 0101
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Tuple{0, 1, 0, 1}
	if !bits.Equal(want) {
		t.Errorf("Expand(5,4) = %v, want %v", bits, want)
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := Expand(relation.Tuple{4}, 2); err == nil {
		t.Error("overflow not rejected")
	}
	if _, err := Expand(relation.Tuple{-1}, 8); err == nil {
		t.Error("negative element not rejected")
	}
	if _, err := Expand(relation.Tuple{0}, 0); err == nil {
		t.Error("zero width not rejected")
	}
	if _, err := Expand(relation.Tuple{0}, 99); err == nil {
		t.Error("excessive width not rejected")
	}
	if _, err := Collapse(relation.Tuple{1, 0, 1}, 2); err == nil {
		t.Error("non-multiple bit count not rejected")
	}
	if _, err := Collapse(relation.Tuple{2, 0}, 2); err == nil {
		t.Error("non-bit element not rejected")
	}
}

func TestBitLevelCompareMatchesWordLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(4)
		a := make(relation.Tuple, m)
		b := make(relation.Tuple, m)
		for k := range a {
			a[k] = relation.Element(rng.Int63n(16))
			if rng.Intn(2) == 0 {
				b[k] = a[k]
			} else {
				b[k] = relation.Element(rng.Int63n(16))
			}
		}
		wordEq, _, err := comparison.CompareTuples(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitEq, stats, err := CompareTuples(a, b, 4)
		if err != nil {
			t.Fatal(err)
		}
		if wordEq != bitEq {
			t.Errorf("trial %d: word=%v bit=%v for %v vs %v", trial, wordEq, bitEq, a, b)
		}
		if stats.Pulses != m*4 {
			t.Errorf("trial %d: bit-level latency %d pulses, want m*W=%d", trial, stats.Pulses, m*4)
		}
	}
}

func TestBitLevel2DMatchesWordLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mk := func(n, m int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			tu := make(relation.Tuple, m)
			for k := range tu {
				tu[k] = relation.Element(rng.Int63n(4))
			}
			out[i] = tu
		}
		return out
	}
	a, b := mk(5, 2), mk(6, 2)
	word, err := comparison.Run2D(a, b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := Run2D(a, b, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !word.T.Equal(bit.T) {
		t.Errorf("bit-level T differs from word-level T")
	}
}

func TestIntersectBitsMatchesWordLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{relation.Element(rng.Int63n(4)), relation.Element(rng.Int63n(4))}
		}
		return out
	}
	a, b := mk(7), mk(6)
	bitBits, bitStats, err := IntersectBits(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	wordBits, wordStats, err := intersect.RunAccumulated(a, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wordBits {
		if bitBits[i] != wordBits[i] {
			t.Errorf("tuple %d: bit-level %v, word-level %v", i, bitBits[i], wordBits[i])
		}
	}
	if bitStats.Pulses <= wordStats.Pulses {
		t.Errorf("bit-level latency %d should exceed word-level %d (serialized bits)",
			bitStats.Pulses, wordStats.Pulses)
	}
	if _, _, err := IntersectBits([]relation.Tuple{{-1}}, mk(1), 3); err == nil {
		t.Error("negative element not rejected")
	}
}

func TestMinWidth(t *testing.T) {
	cases := []struct {
		max  relation.Element
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, c := range cases {
		w, err := MinWidth([]relation.Tuple{{c.max}})
		if err != nil {
			t.Fatal(err)
		}
		if w != c.want {
			t.Errorf("MinWidth(%d) = %d, want %d", c.max, w, c.want)
		}
	}
	if _, err := MinWidth([]relation.Tuple{{-3}}); err == nil {
		t.Error("negative element not rejected")
	}
}
