package relation

import (
	"strings"
	"testing"
	"testing/quick"
)

var dom = IntDomain("test")

func schema2(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(Column{Name: "x", Domain: dom}, Column{Name: "y", Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTupleEqual(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want bool
	}{
		{Tuple{1, 2}, Tuple{1, 2}, true},
		{Tuple{1, 2}, Tuple{1, 3}, false},
		{Tuple{1, 2}, Tuple{1}, false},
		{Tuple{}, Tuple{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{1, 2}, Tuple{1, 2}, 0},
		{Tuple{1, 2}, Tuple{1, 3}, -1},
		{Tuple{2}, Tuple{1, 9}, 1},
		{Tuple{1}, Tuple{1, 0}, -1},
		{Tuple{}, Tuple{}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleCompareAntisymmetric(t *testing.T) {
	f := func(a, b []int8) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Element(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Element(v)
		}
		return ta.Compare(tb) == -tb.Compare(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestTupleProjectAndString(t *testing.T) {
	tu := Tuple{10, 20, 30}
	p := tu.Project([]int{2, 0})
	if !p.Equal(Tuple{30, 10}) {
		t.Errorf("Project = %v", p)
	}
	if s := tu.String(); s != "<10, 20, 30>" {
		t.Errorf("String = %q", s)
	}
	if s := (Tuple{Null}).String(); !strings.Contains(s, "∅") {
		t.Errorf("null rendering = %q", s)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema not rejected")
	}
	if _, err := NewSchema(Column{Name: "", Domain: dom}); err == nil {
		t.Error("empty column name not rejected")
	}
	if _, err := NewSchema(Column{Name: "x", Domain: nil}); err == nil {
		t.Error("nil domain not rejected")
	}
	if _, err := NewSchema(Column{Name: "x", Domain: dom}, Column{Name: "x", Domain: dom}); err == nil {
		t.Error("duplicate column name not rejected")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := schema2(t)
	if s.Width() != 2 {
		t.Errorf("Width = %d", s.Width())
	}
	if i, err := s.ColumnIndex("y"); err != nil || i != 1 {
		t.Errorf("ColumnIndex(y) = %d, %v", i, err)
	}
	if _, err := s.ColumnIndex("z"); err == nil {
		t.Error("unknown column not rejected")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
	if s.Col(0).Name != "x" {
		t.Errorf("Col(0) = %v", s.Col(0))
	}
}

func TestUnionCompatibility(t *testing.T) {
	s1 := schema2(t)
	s2 := schema2(t) // same domains, different names are fine
	if !s1.UnionCompatible(s2) {
		t.Error("same-domain schemas not union-compatible")
	}
	other, err := NewSchema(Column{Name: "x", Domain: IntDomain("other")}, Column{Name: "y", Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if s1.UnionCompatible(other) {
		t.Error("cross-domain schemas reported compatible")
	}
	one, err := NewSchema(Column{Name: "x", Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if s1.UnionCompatible(one) {
		t.Error("different widths reported compatible")
	}
}

func TestProjectSchemaDisambiguation(t *testing.T) {
	s := schema2(t)
	p, err := s.ProjectSchema([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Col(0).Name == p.Col(1).Name {
		t.Errorf("repeated projection column not disambiguated: %v", p.Names())
	}
	if _, err := s.ProjectSchema([]int{5}); err == nil {
		t.Error("out-of-range column not rejected")
	}
}

func TestNewRelationValidation(t *testing.T) {
	s := schema2(t)
	if _, err := NewRelation(nil, nil); err == nil {
		t.Error("nil schema not rejected")
	}
	if _, err := NewRelation(s, []Tuple{{1}}); err == nil {
		t.Error("width mismatch not rejected")
	}
	if _, err := NewRelation(s, []Tuple{{1, Null}}); err == nil {
		t.Error("reserved null element not rejected")
	}
}

func TestRelationValueSemantics(t *testing.T) {
	s := schema2(t)
	src := []Tuple{{1, 2}}
	r, err := NewRelation(s, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if r.Tuple(0)[0] != 1 {
		t.Error("NewRelation aliases caller tuples")
	}
	out := r.Tuples()
	out[0][0] = 42
	if r.Tuple(0)[0] != 1 {
		t.Error("Tuples aliases internal storage")
	}
}

func TestSelectConcatProject(t *testing.T) {
	s := schema2(t)
	r := MustRelation(s, []Tuple{{1, 1}, {2, 2}, {3, 3}})
	kept, err := r.Select([]bool{true, false, true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Cardinality() != 2 {
		t.Errorf("Select kept %d", kept.Cardinality())
	}
	if _, err := r.Select([]bool{true}, true); err == nil {
		t.Error("short bit vector not rejected")
	}
	cat, err := r.Concat(kept)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Cardinality() != 5 {
		t.Errorf("Concat has %d", cat.Cardinality())
	}
	p, err := r.ProjectColumns([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Width() != 1 || p.Tuple(2)[0] != 3 {
		t.Errorf("ProjectColumns wrong: %v", p)
	}
}

func TestDedupSortedEqualAsSet(t *testing.T) {
	s := schema2(t)
	r := MustRelation(s, []Tuple{{2, 2}, {1, 1}, {2, 2}})
	if !r.HasDuplicates() {
		t.Error("HasDuplicates false")
	}
	d := r.Dedup()
	if d.Cardinality() != 2 || d.HasDuplicates() {
		t.Errorf("Dedup wrong: %v", d)
	}
	// First-occurrence order preserved.
	if !d.Tuple(0).Equal(Tuple{2, 2}) {
		t.Errorf("Dedup order: %v", d.Tuple(0))
	}
	sorted := r.Sorted()
	if !sorted.Tuple(0).Equal(Tuple{1, 1}) {
		t.Errorf("Sorted order: %v", sorted.Tuple(0))
	}
	if !r.EqualAsSet(d) {
		t.Error("EqualAsSet ignores duplicates incorrectly")
	}
	if r.EqualAsMultiset(d) {
		t.Error("EqualAsMultiset should see different multiplicities")
	}
	if !r.EqualAsMultiset(sorted) {
		t.Error("EqualAsMultiset should ignore order")
	}
}

func TestContainsAppend(t *testing.T) {
	s := schema2(t)
	r := MustRelation(s, []Tuple{{1, 1}})
	if !r.Contains(Tuple{1, 1}) || r.Contains(Tuple{2, 2}) {
		t.Error("Contains wrong")
	}
	if err := r.Append(Tuple{2, 2}); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(Tuple{2, 2}) {
		t.Error("Append did not add")
	}
	if err := r.Append(Tuple{1}); err == nil {
		t.Error("Append accepted wrong width")
	}
}

func TestRelationString(t *testing.T) {
	s := schema2(t)
	r := MustRelation(s, []Tuple{{1, 2}})
	out := r.String()
	if !strings.Contains(out, "x | y") || !strings.Contains(out, "1 | 2") {
		t.Errorf("String = %q", out)
	}
}

func TestConcatIncompatible(t *testing.T) {
	s := schema2(t)
	other, err := NewSchema(Column{Name: "x", Domain: IntDomain("o")}, Column{Name: "y", Domain: IntDomain("o")})
	if err != nil {
		t.Fatal(err)
	}
	a := MustRelation(s, nil)
	b := MustRelation(other, nil)
	if _, err := a.Concat(b); err == nil {
		t.Error("incompatible concat not rejected")
	}
	if a.EqualAsSet(b) || a.EqualAsMultiset(b) {
		t.Error("incompatible relations reported equal")
	}
}
