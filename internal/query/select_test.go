package query

import (
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/machine"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func TestSelectHostExecution(t *testing.T) {
	r, err := workload.Uniform(50, 40, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"R": r}
	plan := Select{Child: Scan{Name: "R"}, Query: relation.Query{{Col: 0, Op: cells.LT, Value: 5}}}
	got, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < r.Cardinality(); i++ {
		if r.Tuple(i)[0] < 5 {
			want++
		}
	}
	if got.Cardinality() != want {
		t.Errorf("selected %d, want %d", got.Cardinality(), want)
	}
	for i := 0; i < got.Cardinality(); i++ {
		if got.Tuple(i)[0] >= 5 {
			t.Errorf("tuple %v violates predicate", got.Tuple(i))
		}
	}
}

func TestSelectOverNonScanHostOnly(t *testing.T) {
	r, err := workload.Uniform(51, 20, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"R": r}
	plan := Select{
		Child: Dedup{Scan{Name: "R"}},
		Query: relation.Query{{Col: 0, Op: cells.GE, Value: 2}},
	}
	if _, err := Execute(plan, cat); err != nil {
		t.Errorf("host execution of select over non-scan failed: %v", err)
	}
	if _, _, err := Compile(plan, cat); err == nil {
		t.Error("machine compilation of select over non-scan not rejected (selection happens at the disk)")
	}
}

func TestSelectCompilesToSingleLoad(t *testing.T) {
	r, err := workload.Uniform(52, 30, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"R": r}
	plan := Select{Child: Scan{Name: "R"}, Query: relation.Query{{Col: 1, Op: cells.EQ, Value: 3}}}
	tasks, out, err := Compile(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Op != machine.OpLoad || tasks[0].Select == nil {
		t.Fatalf("compiled tasks = %+v, want one selecting load", tasks)
	}
	m, err := machine.Default1980(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	host, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relations[out].EqualAsMultiset(host) {
		t.Error("machine selection differs from host selection")
	}
}

func TestSelectFeedsDownstreamOperators(t *testing.T) {
	a, err := workload.Uniform(53, 30, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Uniform(54, 30, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a, "B": b}
	plan := Intersect{
		L: Select{Child: Scan{Name: "A"}, Query: relation.Query{{Col: 0, Op: cells.LT, Value: 4}}},
		R: Scan{Name: "B"},
	}
	host, err := Execute(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	tasks, out, err := Compile(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Default1980(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relations[out].EqualAsSet(host) {
		t.Error("select-into-intersect pipeline differs between machine and host")
	}
}

func TestSelectInvalidColumn(t *testing.T) {
	r, err := workload.Uniform(55, 5, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"R": r}
	plan := Select{Child: Scan{Name: "R"}, Query: relation.Query{{Col: 9, Op: cells.EQ, Value: 1}}}
	if _, err := Execute(plan, cat); err == nil {
		t.Error("out-of-range predicate column not rejected by host executor")
	}
}
