package bitset

import (
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/division"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func tuples(m int, vals ...int64) []relation.Tuple {
	ts := make([]relation.Tuple, 0, len(vals)/m)
	for i := 0; i+m <= len(vals); i += m {
		tu := make(relation.Tuple, m)
		for k := 0; k < m; k++ {
			tu[k] = relation.Element(vals[i+k])
		}
		ts = append(ts, tu)
	}
	return ts
}

// TestMembershipConventions pins the return conventions shared with the
// array driver: nil bits for an empty A, an all-FALSE slice for an empty B.
func TestMembershipConventions(t *testing.T) {
	bits, _, err := Membership(nil, tuples(1, 1, 2))
	if err != nil || bits != nil {
		t.Fatalf("empty A: got bits=%v err=%v, want nil, nil", bits, err)
	}
	bits, _, err = Membership(tuples(1, 1, 2, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 3 {
		t.Fatalf("empty B: got %d bits, want 3", len(bits))
	}
	for i, b := range bits {
		if b {
			t.Errorf("empty B: bit %d is TRUE, want all FALSE", i)
		}
	}
}

// TestMembershipWide exercises rows wider than one word, so the multi-word
// AND/scan paths (full words plus a partial tail) are covered.
func TestMembershipWide(t *testing.T) {
	const nB = 3*Lanes + 17
	b := make([]relation.Tuple, nB)
	for j := range b {
		b[j] = relation.Tuple{relation.Element(j), relation.Element(j % 7)}
	}
	a := []relation.Tuple{
		{relation.Element(2*Lanes + 5), relation.Element((2*Lanes + 5) % 7)}, // present, lane in word 2
		{relation.Element(nB - 1), relation.Element((nB - 1) % 7)},           // present, last partial word
		{relation.Element(5), relation.Element(6)},                           // column values exist, pair does not
		{relation.Element(nB + 99), relation.Element(0)},                     // absent entirely
	}
	bits, st, err := Membership(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if bits[i] != want[i] {
			t.Errorf("bit %d = %v, want %v", i, bits[i], want[i])
		}
	}
	if st.WordOps == 0 {
		t.Error("no word ops counted")
	}
}

// TestDuplicatesFirstOccurrence pins the §5 semantics: the first occurrence
// of each value survives, every later one is marked.
func TestDuplicatesFirstOccurrence(t *testing.T) {
	dup, _, err := Duplicates(tuples(1, 3, 1, 3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true, true}
	for i := range want {
		if dup[i] != want[i] {
			t.Errorf("dup[%d] = %v, want %v", i, dup[i], want[i])
		}
	}
	if dup, _, err = Duplicates(nil); err != nil || dup != nil {
		t.Fatalf("empty input: got %v, %v; want nil, nil", dup, err)
	}
}

// TestDuplicatesAcrossWords places equal tuples more than a word apart so
// the triangle mask's full-word prefix scan is exercised.
func TestDuplicatesAcrossWords(t *testing.T) {
	n := Lanes + 10
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Element(i)}
	}
	ts[Lanes+5] = relation.Tuple{relation.Element(3)} // dup of row 3, one word later
	dup, _, err := Duplicates(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		want := i == Lanes+5
		if d != want {
			t.Errorf("dup[%d] = %v, want %v", i, d, want)
		}
	}
}

// TestRaggedInputsRejected pins the guard added by this change: every
// bitset entry point that accepts raw tuple lists rejects ragged widths
// with an explicit error instead of indexing out of range.
func TestRaggedInputsRejected(t *testing.T) {
	ragged := []relation.Tuple{{1, 2}, {3}}
	even := []relation.Tuple{{1, 2}, {3, 4}}

	if _, _, err := Membership(ragged, even); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("Membership ragged A: got %v", err)
	}
	if _, _, err := Membership(even, ragged); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("Membership ragged B: got %v", err)
	}
	if _, _, err := Membership([]relation.Tuple{{}}, even); err == nil || !strings.Contains(err.Error(), "zero-width") {
		t.Errorf("Membership zero-width: got %v", err)
	}
	if _, _, err := Duplicates(ragged); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("Duplicates ragged: got %v", err)
	}
	ops := []cells.Op{cells.EQ, cells.EQ}
	if _, _, err := JoinT(ragged, even, ops); err == nil || !strings.Contains(err.Error(), "width") {
		t.Errorf("JoinT ragged A keys: got %v", err)
	}
	if _, _, err := JoinT(even, ragged, ops); err == nil || !strings.Contains(err.Error(), "width") {
		t.Errorf("JoinT ragged B keys: got %v", err)
	}
	if _, _, err := JoinT(even, even, nil); err == nil || !strings.Contains(err.Error(), "operator") {
		t.Errorf("JoinT no ops: got %v", err)
	}
}

// TestJoinTEmptySides pins the empty-side convention shared with the
// pulse array (comparison.Run2D): an empty side yields an all-FALSE
// matrix, no error, even when the other side is ragged (the guard runs
// after the early return).
func TestJoinTEmptySides(t *testing.T) {
	m, _, err := JoinT(nil, tuples(1, 1, 2), []cells.Op{cells.EQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Bits) != 0 {
		t.Errorf("empty A: matrix has %d rows, want 0", len(m.Bits))
	}
	if _, _, err := JoinT(tuples(1, 7), nil, []cells.Op{cells.EQ}); err != nil {
		t.Fatalf("empty B: %v", err)
	}
}

// TestDivisionBitsEmptyDivisor pins the §7 convention: with an empty
// divisor every stored x qualifies; with empty xs the bits are nil.
func TestDivisionBitsEmptyDivisor(t *testing.T) {
	pairs := []division.Pair{{Z: 1, Y: 5}, {Z: 2, Y: 6}}
	bits, _ := DivisionBits(pairs, []relation.Element{1, 2}, nil)
	for i, b := range bits {
		if !b {
			t.Errorf("empty divisor: bit %d FALSE, want TRUE", i)
		}
	}
	if bits, _ := DivisionBits(pairs, nil, []relation.Element{5}); bits != nil {
		t.Errorf("empty xs: got %v, want nil", bits)
	}
}

// TestOpsNilAndIncompatible pins the relation-level guards of the
// exported operations.
func TestOpsNilAndIncompatible(t *testing.T) {
	sch2, _ := workload.Schema(2)
	a := relation.MustRelation(sch2, tuples(2, 1, 2))
	sch3, _ := workload.Schema(3)
	c := relation.MustRelation(sch3, tuples(3, 1, 2, 3))

	if _, err := Intersection(nil, a); err == nil {
		t.Error("nil A accepted")
	}
	if _, err := Intersection(a, c); err == nil {
		t.Error("width-incompatible relations accepted")
	}
	if _, err := RemoveDuplicates(nil); err == nil {
		t.Error("nil dedup input accepted")
	}
	if _, err := Union(a, nil); err == nil {
		t.Error("nil union input accepted")
	}
	if _, err := Project(nil, []int{0}); err == nil {
		t.Error("nil project input accepted")
	}
}

// TestColumnLayoutRule pins the layout choice, read off the input alone: a
// three-value column is stored whole in one arena, a unique column as
// exactly one (position, word) entry per tuple.
func TestColumnLayoutRule(t *testing.T) {
	const n = 4100
	ts := make([]relation.Tuple, n)
	for j := range ts {
		ts[j] = relation.Tuple{relation.Element(j % 3), relation.Element(j)}
	}
	var ix indexer
	low, unique := ix.index(ts, 0), ix.index(ts, 1)
	if low.start != nil || len(low.words) != 3*wordsFor(n) {
		t.Errorf("low-cardinality column: sparse=%v with %d words, want an arena of %d", low.start != nil, len(low.words), 3*wordsFor(n))
	}
	if unique.start == nil || len(unique.pos) != n || len(unique.words) != n {
		t.Errorf("unique column: sparse=%v with %d entries, want sparse with %d", unique.start != nil, len(unique.words), n)
	}
	if r := unique.row(4099); len(r.words) != 1 || r.pos[0] != 4099>>6 || r.words[0] != 1<<(4099&63) {
		t.Errorf("unique.row(4099) = %+v", r)
	}
}
