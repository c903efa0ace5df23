package decompose

import (
	"math/rand"
	"testing"

	"systolicdb/internal/comparison"
	"systolicdb/internal/relation"
)

var dom = relation.IntDomain("d")

func mk(rng *rand.Rand, n, m int, domain int64) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		tu := make(relation.Tuple, m)
		for k := range tu {
			tu[k] = relation.Element(rng.Int63n(domain))
		}
		out[i] = tu
	}
	return out
}

func TestTiledTMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := mk(rng, 17, 2, 3)
	b := mk(rng, 11, 2, 3)
	mono, err := comparison.Run2D(a, b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []ArraySize{{4, 4}, {5, 3}, {17, 11}, {1, 1}, {100, 100}} {
		tiled, stats, err := TiledT(a, b, nil, size)
		if err != nil {
			t.Fatalf("size %v: %v", size, err)
		}
		if !tiled.Equal(mono.T) {
			t.Errorf("size %v: tiled T differs from monolithic T", size)
		}
		if stats.Tiles != size.Tiles(17, 11) {
			t.Errorf("size %v: ran %d tiles, formula says %d", size, stats.Tiles, size.Tiles(17, 11))
		}
	}
}

func TestTiledTWithGlobalInit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := mk(rng, 10, 1, 2)
	init := func(i, j int) bool { return i > j }
	mono := comparison.ReferenceT(a, a, nil, init)
	tiled, _, err := TiledT(a, a, init, ArraySize{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tiled.Equal(mono) {
		t.Error("tiled masked T differs from reference (global init indices broken)")
	}
}

func TestTiledIntersectionMatchesSetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	schema := relation.MustSchema(
		relation.Column{Name: "x", Domain: dom},
		relation.Column{Name: "y", Domain: dom})
	a := relation.MustRelation(schema, mk(rng, 23, 2, 3))
	b := relation.MustRelation(schema, mk(rng, 9, 2, 3))
	got, stats, err := Tiler{Size: ArraySize{5, 4}}.Intersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: tuples of A present in B.
	want := 0
	for i := 0; i < a.Cardinality(); i++ {
		if b.Contains(a.Tuple(i)) {
			want++
		}
	}
	if got.Cardinality() != want {
		t.Errorf("tiled intersection has %d tuples, want %d", got.Cardinality(), want)
	}
	if stats.Tiles != 15 { // ceil(23/5)*ceil(9/4) = 5*3
		t.Errorf("tiles = %d, want 15", stats.Tiles)
	}
	diff, _, err := Tiler{Size: ArraySize{5, 4}}.Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Cardinality()+got.Cardinality() != a.Cardinality() {
		t.Errorf("tiled intersection (%d) + difference (%d) != |A| (%d)",
			got.Cardinality(), diff.Cardinality(), a.Cardinality())
	}
}

func TestTiledRemoveDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	schema := relation.MustSchema(relation.Column{Name: "x", Domain: dom})
	a := relation.MustRelation(schema, mk(rng, 19, 1, 3))
	got, _, err := Tiler{Size: ArraySize{4, 6}}.RemoveDuplicates(a)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultiset(a.Dedup()) {
		t.Errorf("tiled dedup differs from host dedup:\n%v\nvs\n%v", got, a.Dedup())
	}
}

func TestTilesFormula(t *testing.T) {
	cases := []struct {
		size   ArraySize
		nA, nB int
		want   int
	}{
		{ArraySize{10, 10}, 10, 10, 1},
		{ArraySize{10, 10}, 11, 10, 2},
		{ArraySize{10, 10}, 100, 100, 100},
		{ArraySize{3, 7}, 10, 15, 12}, // ceil(10/3)=4, ceil(15/7)=3
	}
	for _, c := range cases {
		if got := c.size.Tiles(c.nA, c.nB); got != c.want {
			t.Errorf("Tiles(%v, %d, %d) = %d, want %d", c.size, c.nA, c.nB, got, c.want)
		}
	}
}

func TestInvalidArraySize(t *testing.T) {
	if _, _, err := TiledT(nil, nil, nil, ArraySize{0, 5}); err == nil {
		t.Error("zero capacity not rejected")
	}
	if _, _, err := (Tiler{Size: ArraySize{5, -1}}).Accumulate(nil, nil, nil); err == nil {
		t.Error("negative capacity not rejected")
	}
}

func TestTiledEmptyInputs(t *testing.T) {
	bits, stats, err := Tiler{Size: ArraySize{4, 4}}.Accumulate(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 0 || stats.Tiles != 0 {
		t.Errorf("empty problem ran %d tiles", stats.Tiles)
	}
}

func TestRecordPrefilter(t *testing.T) {
	selects0 := mPrefilterSelects.Value()
	rows0 := mPrefilterRows.Value()
	RecordPrefilter(100, 40)
	RecordPrefilter(10, 25) // growth clamps: zero rows charged
	if d := mPrefilterSelects.Value() - selects0; d != 2 {
		t.Errorf("prefilter selects delta %d, want 2", d)
	}
	if d := mPrefilterRows.Value() - rows0; d != 60 {
		t.Errorf("prefilter rows delta %d, want 60", d)
	}
}
