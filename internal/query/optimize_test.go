package query

import (
	"math/rand"
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func optCatalog(t *testing.T) Catalog {
	t.Helper()
	a, err := workload.Uniform(601, 24, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Uniform(602, 24, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	return Catalog{"A": a, "B": b}
}

func ltQ(col int, v int64) relation.Query {
	return relation.Query{{Col: col, Op: cells.LT, Value: relation.Element(v)}}
}

func TestOptimizeSinksSelectToScan(t *testing.T) {
	cat := optCatalog(t)
	plan := Select{
		Child: Union{L: Scan{Name: "A"}, R: Scan{Name: "B"}},
		Query: ltQ(0, 3),
	}
	opt, err := Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Must become union(select(scan(A)), select(scan(B))).
	u, ok := opt.(Union)
	if !ok {
		t.Fatalf("optimized root is %T, want Union", opt)
	}
	if _, ok := u.L.(Select); !ok {
		t.Fatalf("left branch is %T, want Select over scan", u.L)
	}
	if _, ok := u.L.(Select).Child.(Scan); !ok {
		t.Fatal("selection did not sink to the scan")
	}
	// Compiled, the selections are disk-side loads: 2 loads + 1 union.
	tasks, _, err := Compile(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	loadsWithSelect := 0
	for _, task := range tasks {
		if task.Op == machine.OpLoad && task.Select != nil {
			loadsWithSelect++
		}
	}
	if loadsWithSelect != 2 {
		t.Errorf("%d selecting loads, want 2", loadsWithSelect)
	}
	if len(tasks) != 3 {
		t.Errorf("%d tasks, want 3", len(tasks))
	}
}

func TestOptimizeMergesSelects(t *testing.T) {
	cat := optCatalog(t)
	plan := Select{
		Child: Select{Child: Scan{Name: "A"}, Query: ltQ(0, 4)},
		Query: ltQ(1, 3),
	}
	opt, err := Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := opt.(Select)
	if !ok || len(s.Query) != 2 {
		t.Fatalf("optimized = %#v, want single Select with merged query", opt)
	}
}

func TestOptimizeDedupRules(t *testing.T) {
	cat := optCatalog(t)
	cases := []struct {
		name string
		plan Node
		want string
	}{
		{"dedup-dedup", Dedup{Dedup{Scan{Name: "A"}}}, "dedup(scan(A))"},
		{"dedup-project", Dedup{Project{Child: Scan{Name: "A"}, Cols: []int{0}}}, "project[0](scan(A))"},
		{"dedup-union", Dedup{Union{L: Scan{Name: "A"}, R: Scan{Name: "B"}}}, "union(scan(A), scan(B))"},
		// Outer column 1 of the inner [1,0] permutation is original
		// column 0.
		{"project-project", Project{Child: Project{Child: Scan{Name: "A"}, Cols: []int{1, 0}}, Cols: []int{1}},
			"project[0](scan(A))"},
	}
	for _, c := range cases {
		opt, err := Optimize(c.plan, cat)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := Render(opt); got != c.want {
			t.Errorf("%s: optimized to %q, want %q", c.name, got, c.want)
		}
	}
}

func TestOptimizeJoinPushdown(t *testing.T) {
	cat := optCatalog(t)
	spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
	plan := Select{
		Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
		Query: ltQ(1, 3), // column 1 belongs to A (width 2)
	}
	opt, err := Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := opt.(Join)
	if !ok {
		t.Fatalf("optimized root is %T, want Join", opt)
	}
	if _, ok := j.L.(Select); !ok {
		t.Fatal("predicate on A's columns not pushed into the join's left input")
	}
	// A predicate on B's part of the join output is pushed into the
	// right input, remapped through the kept-column layout: output
	// column 2 is B's input column 1 (the equi-join drops B column 0).
	plan2 := Select{
		Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
		Query: ltQ(2, 3), // column 2 comes from B
	}
	opt2, err := Optimize(plan2, cat)
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := opt2.(Join)
	if !ok {
		t.Fatalf("optimized root is %T, want Join", opt2)
	}
	rs, ok := j2.R.(Select)
	if !ok {
		t.Fatal("predicate on B's columns not pushed into the join's right input")
	}
	if len(rs.Query) != 1 || rs.Query[0].Col != 1 {
		t.Fatalf("pushed predicate targets column %v, want B input column 1", rs.Query)
	}
	if _, ok := j2.L.(Select); ok {
		t.Fatal("left input gained a spurious select")
	}
	// An out-of-range predicate must stay above the join so execution
	// still reports the error.
	plan3 := Select{
		Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
		Query: ltQ(99, 3),
	}
	opt3, err := Optimize(plan3, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opt3.(Select); !ok {
		t.Fatalf("optimized root is %T; out-of-range select must stay above the join", opt3)
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	cat := optCatalog(t)
	rng := rand.New(rand.NewSource(603))
	spec := join.Spec{ACols: []int{0}, BCols: []int{0}}

	// A generator of random plan trees over the catalog.
	var gen func(depth int) Node
	gen = func(depth int) Node {
		if depth <= 0 {
			if rng.Intn(2) == 0 {
				return Scan{Name: "A"}
			}
			return Scan{Name: "B"}
		}
		switch rng.Intn(7) {
		case 0:
			return Intersect{L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return Union{L: gen(depth - 1), R: gen(depth - 1)}
		case 2:
			return Difference{L: gen(depth - 1), R: gen(depth - 1)}
		case 3:
			return Dedup{Child: gen(depth - 1)}
		case 4:
			// Keep width stable: project both columns, permuted.
			return Project{Child: gen(depth - 1), Cols: []int{1, 0}}
		case 5:
			return Select{Child: gen(depth - 1), Query: ltQ(rng.Intn(2), int64(1+rng.Intn(4)))}
		default:
			// Joins change width; keep them at the leaves over scans
			// followed by a projection back to width 2.
			return Project{
				Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
				Cols:  []int{0, 1},
			}
		}
	}

	for trial := 0; trial < 40; trial++ {
		plan := gen(1 + rng.Intn(3))
		want, err := Execute(plan, cat)
		if err != nil {
			t.Fatalf("trial %d: execute original: %v\nplan: %s", trial, err, Render(plan))
		}
		opt, err := Optimize(plan, cat)
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\nplan: %s", trial, err, Render(plan))
		}
		got, err := Execute(opt, cat)
		if err != nil {
			t.Fatalf("trial %d: execute optimized: %v\noriginal: %s\noptimized: %s",
				trial, err, Render(plan), Render(opt))
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: optimization changed the result\noriginal:  %s\noptimized: %s",
				trial, Render(plan), Render(opt))
		}
	}
}

func TestWidthResolution(t *testing.T) {
	cat := optCatalog(t) // A, B both width 2
	spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
	thetaSpec := join.Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.GT}}
	cases := []struct {
		name string
		plan Node
		want int
	}{
		{"scan", Scan{Name: "A"}, 2},
		{"intersect", Intersect{L: Scan{Name: "A"}, R: Scan{Name: "B"}}, 2},
		{"difference", Difference{L: Scan{Name: "A"}, R: Scan{Name: "B"}}, 2},
		{"union", Union{L: Scan{Name: "A"}, R: Scan{Name: "B"}}, 2},
		{"dedup", Dedup{Scan{Name: "A"}}, 2},
		{"select", Select{Child: Scan{Name: "A"}, Query: ltQ(0, 1)}, 2},
		{"project", Project{Child: Scan{Name: "A"}, Cols: []int{0}}, 1},
		{"equi-join drops redundant column", Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec}, 3},
		{"theta-join keeps all columns", Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: thetaSpec}, 4},
		{"divide", Divide{L: Scan{Name: "A"}, R: Scan{Name: "B"}, AQuot: []int{0}, ADiv: []int{1}, BCols: []int{0}}, 1},
	}
	for _, c := range cases {
		got, err := width(c.plan, cat)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: width %d, want %d", c.name, got, c.want)
		}
	}
	if _, err := width(Scan{Name: "nope"}, cat); err == nil {
		t.Error("unknown scan width not rejected")
	}
}

func TestRenderAllNodeKinds(t *testing.T) {
	plan := Divide{
		L: Select{Child: Difference{L: Scan{Name: "A"}, R: Scan{Name: "B"}}, Query: ltQ(0, 1)},
		R: Project{Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"},
			Spec: join.Spec{ACols: []int{0}, BCols: []int{0}}}, Cols: []int{0}},
		AQuot: []int{0}, ADiv: []int{0}, BCols: []int{0},
	}
	s := Render(plan)
	for _, frag := range []string{"divide", "select", "difference", "project", "join"} {
		if !strings.Contains(s, frag) {
			t.Errorf("render %q missing %q", s, frag)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(Scan{Name: "missing"}, Catalog{}); err == nil {
		// Scans themselves don't resolve widths; only join pushdown
		// does. Force it through a join.
		plan := Select{
			Child: Join{L: Scan{Name: "missing"}, R: Scan{Name: "alsoMissing"},
				Spec: join.Spec{ACols: []int{0}, BCols: []int{0}}},
			Query: ltQ(0, 1),
		}
		if _, err := Optimize(plan, Catalog{}); err == nil {
			t.Error("unknown relation in join pushdown not reported")
		}
	}
}
