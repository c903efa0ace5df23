package join

import (
	"reflect"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/relation"
)

// TestLayoutMatchesJoin pins Layout as the one join layout: for every shape
// of spec it must return exactly the schema the array's own result carries,
// and a kept-column list that rebuilds every result row from its (a_i, b_j).
func TestLayoutMatchesJoin(t *testing.T) {
	a := rel(schema("k", "v", "w"),
		[]int64{1, 2, 3},
		[]int64{4, 5, 6},
		[]int64{1, 5, 9},
	)
	cases := []struct {
		name      string
		b         *relation.Relation
		spec      Spec
		wantNames []string
		wantKeep  []int
	}{
		{"equi drops B's join column",
			rel(schema("x", "y"), []int64{1, 7}, []int64{4, 8}),
			Spec{ACols: []int{0}, BCols: []int{0}},
			[]string{"k", "v", "w", "y"}, []int{1}},
		{"explicit all-EQ ops are still an equi-join",
			rel(schema("x", "y"), []int64{1, 7}, []int64{4, 8}),
			Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.EQ}},
			[]string{"k", "v", "w", "y"}, []int{1}},
		{"theta keeps every column of B",
			rel(schema("x", "y"), []int64{0, 7}, []int64{3, 8}),
			Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.GT}},
			[]string{"k", "v", "w", "x", "y"}, []int{0, 1}},
		{"multi-column equi drops both, in B's column order",
			rel(schema("x", "y", "z"), []int64{5, 7, 1}, []int64{2, 8, 1}),
			Spec{ACols: []int{0, 1}, BCols: []int{2, 0}},
			[]string{"k", "v", "w", "y"}, []int{1}},
		{"one theta pair keeps the equi pair's column too",
			rel(schema("x", "y"), []int64{1, 0}, []int64{4, 9}),
			Spec{ACols: []int{0, 1}, BCols: []int{0, 1}, Ops: []cells.Op{cells.EQ, cells.GT}},
			[]string{"k", "v", "w", "x", "y"}, []int{0, 1}},
		{"name collision gets b_",
			rel(schema("j", "v"), []int64{1, 7}),
			Spec{ACols: []int{0}, BCols: []int{0}},
			[]string{"k", "v", "w", "b_v"}, []int{1}},
		{"collision with an existing b_ name gets b_b_",
			rel(schema("j", "v", "b_v"), []int64{1, 7, 8}),
			Spec{ACols: []int{0}, BCols: []int{0}},
			[]string{"k", "v", "w", "b_v", "b_b_v"}, []int{1, 2}},
		{"theta self-shaped join prefixes every column",
			rel(schema("k", "v", "w"), []int64{0, 0, 0}),
			Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.NE}},
			[]string{"k", "v", "w", "b_k", "b_v", "b_w"}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Join(a, c.b, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			s, keep, err := Layout(a.Schema(), c.b.Schema(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Names(); !reflect.DeepEqual(got, c.wantNames) {
				t.Errorf("Layout names %v, want %v", got, c.wantNames)
			}
			if !reflect.DeepEqual(s, res.Rel.Schema()) {
				t.Errorf("Layout schema %v differs from Join's %v", s.Names(), res.Rel.Schema().Names())
			}
			if !reflect.DeepEqual(keep, c.wantKeep) {
				t.Errorf("Layout kept %v, want %v", keep, c.wantKeep)
			}
			if !reflect.DeepEqual(keep, c.spec.BKeep(c.b.Width())) {
				t.Errorf("Layout kept %v, Spec.BKeep %v", keep, c.spec.BKeep(c.b.Width()))
			}
			// Rebuild the rows from T through the kept list, row-major.
			row := 0
			for i := 0; i < a.Cardinality(); i++ {
				for j := 0; j < c.b.Cardinality(); j++ {
					if !res.T.Get(i, j) {
						continue
					}
					want := a.Tuple(i).Clone()
					for _, col := range keep {
						want = append(want, c.b.Tuple(j)[col])
					}
					if got := res.Rel.Tuple(row); !reflect.DeepEqual(got, want) {
						t.Errorf("row %d = %v, want %v", row, got, want)
					}
					row++
				}
			}
			if row != res.Rel.Cardinality() || row == 0 {
				t.Errorf("rebuilt %d rows, Join produced %d (want > 0)", row, res.Rel.Cardinality())
			}
		})
	}
}

// TestLayoutErrors pins the validation error strings: Layout, Spec.Validate
// and Join all report a bad spec in the words Spec.Validate always used.
func TestLayoutErrors(t *testing.T) {
	a := rel(schema("x", "y"), []int64{1, 2})
	b := rel(schema("z"), []int64{1})
	other := relation.MustRelation(
		relation.MustSchema(relation.Column{Name: "o", Domain: relation.IntDomain("other")}),
		[]relation.Tuple{{1}})
	cases := []struct {
		b    *relation.Relation
		spec Spec
		want string
	}{
		{b, Spec{}, "join: no join columns specified"},
		{b, Spec{ACols: []int{0}, BCols: []int{0, 0}}, "join: 1 columns of A against 2 of B"},
		{b, Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.EQ, cells.LT}}, "join: 2 operators for 1 column pairs"},
		{b, Spec{ACols: []int{2}, BCols: []int{0}}, "join: column 2 of A out of range [0,2)"},
		{b, Spec{ACols: []int{-1}, BCols: []int{0}}, "join: column -1 of A out of range [0,2)"},
		{b, Spec{ACols: []int{0}, BCols: []int{1}}, "join: column 1 of B out of range [0,1)"},
		{other, Spec{ACols: []int{1}, BCols: []int{0}}, `join: columns "y" and "o" are not drawn from the same underlying domain`},
	}
	for _, c := range cases {
		_, _, err := Layout(a.Schema(), c.b.Schema(), c.spec)
		if err == nil || err.Error() != c.want {
			t.Errorf("Layout(%+v) error = %v, want %q", c.spec, err, c.want)
		}
		spec := c.spec
		if verr := spec.Validate(a, c.b); verr == nil || verr.Error() != c.want {
			t.Errorf("Validate(%+v) error = %v, want %q", c.spec, verr, c.want)
		}
		if _, jerr := Join(a, c.b, c.spec); jerr == nil || jerr.Error() != c.want {
			t.Errorf("Join(%+v) error = %v, want %q", c.spec, jerr, c.want)
		}
	}
}
