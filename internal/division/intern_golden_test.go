package division

import (
	"reflect"
	"testing"

	"systolicdb/internal/relation"
)

// TestPrepareInternGolden pins the composite interning of Prepare on a
// two-column quotient group holding Null and negative elements: the codes,
// their first-seen order and the stored quotient tuples are the values the
// Tuple.String()-keyed interner produced before it keyed on element bytes.
func TestPrepareInternGolden(t *testing.T) {
	d := relation.IntDomain("g")
	a := relation.MustRelation(relation.MustSchema(
		relation.Column{Name: "q0", Domain: d},
		relation.Column{Name: "q1", Domain: d},
		relation.Column{Name: "y", Domain: d}), nil)
	b := relation.MustRelation(relation.MustSchema(relation.Column{Name: "y", Domain: d}), nil)
	// Append, unlike NewRelation, admits Null.
	fill := func(r *relation.Relation, ts ...relation.Tuple) {
		for _, tu := range ts {
			if err := r.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(a,
		relation.Tuple{relation.Null, -1, 7}, relation.Tuple{-1, relation.Null, 7},
		relation.Tuple{1, 23, -5}, relation.Tuple{12, 3, 7},
		relation.Tuple{relation.Null, -1, -5}, relation.Tuple{-1, -1, relation.Null},
		relation.Tuple{1, 23, 7}, relation.Tuple{-1, relation.Null, -5},
		relation.Tuple{12, 3, 9}, relation.Tuple{-12, 3, 7},
		relation.Tuple{relation.Null, -1, 7}, relation.Tuple{-1, -1, 7}, relation.Tuple{-1, -1, -5})
	fill(b, relation.Tuple{7}, relation.Tuple{-5}, relation.Tuple{7}, relation.Tuple{relation.Null})

	p, err := Prepare(a, b, []int{0, 1}, []int{2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := []Pair{{0, 0}, {1, 0}, {2, 1}, {3, 0}, {0, 1}, {4, 2}, {2, 0}, {1, 1}, {3, 3}, {5, 0}, {0, 0}, {4, 0}, {4, 1}}
	if !reflect.DeepEqual(p.Pairs, wantPairs) {
		t.Errorf("Pairs = %v, want %v", p.Pairs, wantPairs)
	}
	if want := []relation.Element{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(p.Xs, want) {
		t.Errorf("Xs = %v, want %v", p.Xs, want)
	}
	if want := []relation.Element{0, 1, 2}; !reflect.DeepEqual(p.Divisor, want) {
		t.Errorf("Divisor = %v, want %v", p.Divisor, want)
	}
	rel, err := p.Materialize([]bool{true, true, true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []relation.Tuple{{relation.Null, -1}, {-1, relation.Null}, {1, 23}, {12, 3}, {-1, -1}, {-12, 3}}
	if got := rel.Tuples(); !reflect.DeepEqual(got, wantRows) {
		t.Errorf("quotient tuples = %v, want %v", got, wantRows)
	}
}
