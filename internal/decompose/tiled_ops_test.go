package decompose

import (
	"math/rand"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/division"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
)

func TestTiledJoinTMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mk := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{relation.Element(rng.Int63n(4))}
		}
		return out
	}
	a, b := mk(13), mk(9)
	ops := []cells.Op{cells.EQ}
	mono, _, err := join.RunT(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []ArraySize{{4, 3}, {13, 9}, {1, 1}, {5, 20}} {
		tiled, st, err := Tiler{Size: size}.T(a, b, ops, nil)
		if err != nil {
			t.Fatalf("size %v: %v", size, err)
		}
		if !tiled.Equal(mono) {
			t.Errorf("size %v: tiled join T differs from monolithic", size)
		}
		if st.Tiles != size.Tiles(13, 9) {
			t.Errorf("size %v: %d tiles, want %d", size, st.Tiles, size.Tiles(13, 9))
		}
	}
	if _, _, err := (Tiler{Size: ArraySize{0, 1}}).T(a, b, ops, nil); err == nil {
		t.Error("invalid size not rejected")
	}
}

func TestTiledJoinTThetaOps(t *testing.T) {
	a := []relation.Tuple{{1}, {5}, {9}}
	b := []relation.Tuple{{4}, {6}}
	mono, _, err := join.RunT(a, b, []cells.Op{cells.GT})
	if err != nil {
		t.Fatal(err)
	}
	tiled, _, err := Tiler{Size: ArraySize{2, 1}}.T(a, b, []cells.Op{cells.GT}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tiled.Equal(mono) {
		t.Error("tiled θ-join differs from monolithic")
	}
}

func TestTiledDivisionMatchesMonolithic(t *testing.T) {
	pairs := []division.Pair{
		{Z: 0, Y: 10}, {Z: 0, Y: 20}, {Z: 1, Y: 10},
		{Z: 2, Y: 10}, {Z: 2, Y: 20}, {Z: 3, Y: 20},
	}
	xs := []relation.Element{0, 1, 2, 3}
	divisor := []relation.Element{10, 20}
	mono, _, err := division.RunArray(pairs, xs, divisor, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []ArraySize{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {10, 1}} {
		tiled, st, err := Tiler{Size: size}.Division(pairs, xs, divisor)
		if err != nil {
			t.Fatalf("size %v: %v", size, err)
		}
		for r := range mono {
			if tiled[r] != mono[r] {
				t.Errorf("size %v: bit %d = %v, want %v", size, r, tiled[r], mono[r])
			}
		}
		wantTiles := (len(xs) + size.MaxA - 1) / size.MaxA
		if st.Tiles != wantTiles {
			t.Errorf("size %v: %d bands, want %d", size, st.Tiles, wantTiles)
		}
	}
	if _, _, err := (Tiler{Size: ArraySize{-1, 1}}).Division(pairs, xs, divisor); err == nil {
		t.Error("invalid size not rejected")
	}
}

func TestTiledSelectErrorPaths(t *testing.T) {
	dom := relation.IntDomain("d")
	s := relation.MustSchema(relation.Column{Name: "x", Domain: dom})
	a := relation.MustRelation(s, []relation.Tuple{{1}})
	other := relation.MustRelation(
		relation.MustSchema(relation.Column{Name: "x", Domain: relation.IntDomain("o")}),
		[]relation.Tuple{{1}})
	if _, _, err := (Tiler{Size: ArraySize{2, 2}}).Intersection(nil, a); err == nil {
		t.Error("nil relation not rejected")
	}
	if _, _, err := (Tiler{Size: ArraySize{2, 2}}).Difference(a, other); err == nil {
		t.Error("incompatible relations not rejected")
	}
	if _, _, err := (Tiler{Size: ArraySize{2, 2}}).RemoveDuplicates(nil); err == nil {
		t.Error("nil dedup input not rejected")
	}
}
