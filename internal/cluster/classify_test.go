package cluster

import (
	"testing"

	"systolicdb/internal/query"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		plan string
		want Part
	}{
		{"scan(A)", PartAligned},
		{"select(scan(A),0<5)", PartAligned},
		{"intersect(scan(A),scan(B))", PartAligned},
		{"difference(scan(A),scan(B))", PartAligned},
		{"union(scan(A),scan(B))", PartAligned},
		{"dedup(scan(A))", PartAligned},
		{"dedup(intersect(scan(A),scan(B)))", PartAligned},
		{"select(difference(scan(A),scan(B)),1>3)", PartAligned},

		// Projection may collide images across shards: gather must dedup.
		{"project(scan(A),0)", PartOverlap},
		{"dedup(project(scan(A),0,1))", PartOverlap},
		{"select(project(scan(A),0),0<5)", PartOverlap},
		{"union(project(scan(A),0),project(scan(B),0))", PartOverlap},
		{"union(scan(A),project(scan(B),0,1))", PartOverlap},

		// Multiset comparisons under a projected (non-aligned) input no
		// longer colocate matching pairs: not scatterable as a whole plan.
		{"intersect(project(scan(A),0),scan(B))", PartNone},
		{"difference(scan(A),project(scan(B),0,1))", PartNone},

		// Joins and division never whole-plan scatter; the executor owns
		// their broadcast/shuffle strategies.
		{"join(scan(A),scan(B),0=0)", PartNone},
		{"theta(scan(A),scan(B),0<1)", PartNone},
		{"divide(scan(A),scan(B),quot=0,div=1,by=0)", PartNone},
		{"project(join(scan(A),scan(B),0=0),0)", PartNone},
		{"dedup(divide(scan(A),scan(B),quot=0,div=1,by=0))", PartNone},
	}
	for _, c := range cases {
		n, err := query.Parse(c.plan)
		if err != nil {
			t.Fatalf("parse %q: %v", c.plan, err)
		}
		if got := Classify(n); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.plan, got, c.want)
		}
	}
}

// TestUnionNeedsBothSidesScatterable pins the Union rule: a union scatters
// (with dedup at gather) only when both inputs may be scattered. With one
// side a join or a division, which never scatters as a whole plan, the
// union runs on the coordinator.
func TestUnionNeedsBothSidesScatterable(t *testing.T) {
	for _, plan := range []string{
		"union(scan(A),join(scan(B),scan(C),0=0))",
		"union(join(scan(B),scan(C),0=0),scan(A))",
		"union(project(scan(A),0),divide(scan(B),scan(C),quot=0,div=1,by=0))",
		"union(divide(scan(B),scan(C),quot=0,div=1,by=0),project(scan(A),0))",
	} {
		n, err := query.Parse(plan)
		if err != nil {
			t.Fatalf("parse %q: %v", plan, err)
		}
		if got := Classify(n); got != PartNone {
			t.Errorf("Classify(%q) = %v, want %v", plan, got, PartNone)
		}
	}
}

func TestPartScatterable(t *testing.T) {
	for p, want := range map[Part]bool{PartNone: false, PartAligned: true, PartDisjoint: true, PartOverlap: true} {
		if p.Scatterable() != want {
			t.Errorf("%v.Scatterable() = %v, want %v", p, !want, want)
		}
	}
}

// String names a partition class in failure messages.
func (p Part) String() string {
	switch p {
	case PartAligned:
		return "aligned"
	case PartDisjoint:
		return "disjoint"
	case PartOverlap:
		return "overlap"
	}
	return "none"
}
