package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func streamCatalog(t *testing.T, n int) Catalog {
	t.Helper()
	a, err := workload.Uniform(901, n, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Uniform(902, n, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Catalog{"A": a, "B": b}
}

// genPlan returns a random plan of the given depth whose result is always
// width 2 over the shared domain, so any node composes under any other.
func genPlan(rng *rand.Rand, depth int) Node {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return Scan{Name: "A"}
		}
		return Scan{Name: "B"}
	}
	spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
	switch rng.Intn(9) {
	case 0:
		return Intersect{L: genPlan(rng, depth-1), R: genPlan(rng, depth-1)}
	case 1:
		return Union{L: genPlan(rng, depth-1), R: genPlan(rng, depth-1)}
	case 2:
		return Difference{L: genPlan(rng, depth-1), R: genPlan(rng, depth-1)}
	case 3:
		return Dedup{Child: genPlan(rng, depth-1)}
	case 4:
		return Project{Child: genPlan(rng, depth-1), Cols: []int{1, 0}}
	case 5:
		return Select{Child: genPlan(rng, depth-1), Query: ltQ(rng.Intn(2), int64(1+rng.Intn(3)))}
	case 6:
		// θ-join at the leaves, projected back to width 2.
		theta := join.Spec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{cells.GT}}
		return Project{
			Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: theta},
			Cols:  []int{0, 1},
		}
	case 7:
		// Division at the leaves: quotient column duplicated back to
		// width 2 (all columns share the pooled domain).
		return Project{
			Child: Divide{
				L:     Scan{Name: "A"},
				R:     Project{Child: Scan{Name: "B"}, Cols: []int{1}},
				AQuot: []int{0}, ADiv: []int{1}, BCols: []int{0},
			},
			Cols: []int{0, 0},
		}
	default:
		return Project{
			Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
			Cols:  []int{0, 1},
		}
	}
}

// TestStreamingEquivalenceProperty is the 1000-plan property suite: every
// random plan must produce the same multiset of tuples under the
// materializing pulse executor, the materializing bitset executor, the
// streaming executor, and the streaming executor over the optimized
// (predicate-pushed-down) plan.
func TestStreamingEquivalenceProperty(t *testing.T) {
	cat := streamCatalog(t, 10)
	rng := rand.New(rand.NewSource(903))
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		plan := genPlan(rng, 1+rng.Intn(2))
		want, err := ExecuteCtx(context.Background(), plan, cat, &Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("trial %d: pulse: %v\nplan: %s", trial, err, Render(plan))
		}
		bit, err := ExecuteCtx(context.Background(), plan, cat,
			&Options{Metrics: obs.NewRegistry(), Backend: machine.BackendBitset})
		if err != nil {
			t.Fatalf("trial %d: bitset: %v\nplan: %s", trial, err, Render(plan))
		}
		if !bit.EqualAsMultiset(want) {
			t.Fatalf("trial %d: bitset differs from pulse\nplan: %s", trial, Render(plan))
		}
		var st ExecStats
		got, err := ExecuteCtx(context.Background(), plan, cat,
			&Options{Metrics: obs.NewRegistry(), Streaming: true, Stats: &st})
		if err != nil {
			t.Fatalf("trial %d: streaming: %v\nplan: %s", trial, err, Render(plan))
		}
		if !got.EqualAsMultiset(want) {
			t.Fatalf("trial %d: streaming differs from materializing\nplan: %s", trial, Render(plan))
		}
		opt, err := Optimize(plan, cat)
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\nplan: %s", trial, err, Render(plan))
		}
		gotOpt, err := ExecuteCtx(context.Background(), opt, cat,
			&Options{Metrics: obs.NewRegistry(), Streaming: true})
		if err != nil {
			t.Fatalf("trial %d: streaming optimized: %v\noriginal: %s\noptimized: %s",
				trial, err, Render(plan), Render(opt))
		}
		// Pushdown preserves sets (selection commutes with the set
		// operators' duplicate handling), matching Optimize's contract.
		if !gotOpt.EqualAsSet(want) {
			t.Fatalf("trial %d: streaming optimized differs\noriginal: %s\noptimized: %s",
				trial, Render(plan), Render(opt))
		}
	}
}

// TestStreamingPeakTuples pins the tentpole's memory claim: a select-heavy
// chain holds far fewer tuples under the streaming executor than under the
// materializing one, and materializes no nodes (the chain has no pipeline
// breaker).
func TestStreamingPeakTuples(t *testing.T) {
	a, err := workload.Uniform(904, 2000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a}
	plan := Dedup{Child: Project{
		Child: Select{Child: Scan{Name: "A"}, Query: ltQ(0, 3)},
		Cols:  []int{0},
	}}

	var mat, str ExecStats
	want, err := ExecuteCtx(context.Background(), plan, cat, &Options{Metrics: obs.NewRegistry(), Stats: &mat})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteCtx(context.Background(), plan, cat,
		&Options{Metrics: obs.NewRegistry(), Stats: &str, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultiset(want) {
		t.Fatal("streaming result differs from materializing result")
	}
	if mat.PeakTuples == 0 || str.PeakTuples == 0 {
		t.Fatalf("peak tuples not tracked: materializing %d, streaming %d", mat.PeakTuples, str.PeakTuples)
	}
	if str.PeakTuples >= mat.PeakTuples {
		t.Errorf("streaming peak %d not below materializing peak %d", str.PeakTuples, mat.PeakTuples)
	}
	if str.MaterializedNodes != 0 {
		t.Errorf("streaming chain materialized %d nodes, want 0", str.MaterializedNodes)
	}
	if mat.MaterializedNodes == 0 {
		t.Error("materializing executor reported no materialized nodes")
	}
}

// TestStreamingBreakerPeak: a join's build side is a pipeline breaker, so
// the streaming executor must report it in both PeakTuples and
// MaterializedNodes.
func TestStreamingBreakerPeak(t *testing.T) {
	cat := streamCatalog(t, 50)
	plan := Join{L: Scan{Name: "A"}, R: Scan{Name: "B"},
		Spec: join.Spec{ACols: []int{0}, BCols: []int{0}}}
	var st ExecStats
	if _, err := ExecuteCtx(context.Background(), plan, cat,
		&Options{Metrics: obs.NewRegistry(), Stats: &st, Streaming: true}); err != nil {
		t.Fatal(err)
	}
	if st.MaterializedNodes != 1 {
		t.Errorf("join plan materialized %d nodes, want 1 (the build side)", st.MaterializedNodes)
	}
	if st.PeakTuples < 50 {
		t.Errorf("peak %d does not cover the 50-tuple build table", st.PeakTuples)
	}
}

// TestStreamCancelMidNode is the deadline regression for the iterator
// executor: cancelling the context interrupts a long never-matching scan
// inside a single Next call, at batch granularity — the streaming analogue
// of a 504 deadline firing mid-node.
func TestStreamCancelMidNode(t *testing.T) {
	a, err := workload.Uniform(905, 4000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a}
	// The predicate never matches, so a single Next would otherwise pull
	// all 4000 input rows before reporting exhaustion.
	plan := Select{Child: Scan{Name: "A"},
		Query: relation.Query{{Col: 0, Op: cells.LT, Value: 0}}}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := Open(ctx, plan, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	cancel()
	if _, ok := it.Next(); ok {
		t.Fatal("Next yielded a tuple under a cancelled context")
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", err)
	}
	if !strings.Contains(it.Err().Error(), "cancelled") {
		t.Errorf("error %q does not name the cancellation", it.Err())
	}
}

// countdownCtx reports Canceled only after its first n Err calls, making
// mid-node cancellation deterministic: early per-plan-node checks pass and
// a later per-batch check inside the operator loop trips.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestMaterializingSelectCancelMidNode pins the per-batch check inside
// the blocking select's filter loop: the plan-node entry checks (select, then its
// scan child) pass, the first in-loop check passes, and the second in-loop
// check — 256 rows into the filter — observes the cancellation.
func TestMaterializingSelectCancelMidNode(t *testing.T) {
	a, err := workload.Uniform(906, 1000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a}
	plan := Select{Child: Scan{Name: "A"}, Query: ltQ(0, 3)}
	ctx := &countdownCtx{Context: context.Background(), remaining: 3}
	_, err = ExecuteCtx(ctx, plan, cat, &Options{Metrics: obs.NewRegistry()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "select node") {
		t.Fatalf("error %q not raised by the select filter loop", err)
	}
}

// TestStreamingCancelledExecute: ExecuteCtx with Streaming set surfaces
// cancellation as an error, not a truncated result.
func TestStreamingCancelledExecute(t *testing.T) {
	a, err := workload.Uniform(907, 4000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a}
	plan := Select{Child: Scan{Name: "A"},
		Query: relation.Query{{Col: 0, Op: cells.LT, Value: 0}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteCtx(ctx, plan, cat,
		&Options{Metrics: obs.NewRegistry(), Streaming: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("streaming ExecuteCtx error = %v, want context.Canceled", err)
	}
}

// TestStreamOpenErrors pins construction-time validation of the iterator
// tree: unknown scans, incompatible operands and bad projections are
// reported by Open, before any tuple flows.
func TestStreamOpenErrors(t *testing.T) {
	cat := streamCatalog(t, 10)
	cases := []struct {
		name string
		plan Node
	}{
		{"unknown scan", Scan{Name: "missing"}},
		{"bad project", Project{Child: Scan{Name: "A"}, Cols: []int{7}}},
		{"bad select", Select{Child: Scan{Name: "A"}, Query: ltQ(9, 1)}},
		{"bad join column", Join{L: Scan{Name: "A"}, R: Scan{Name: "B"},
			Spec: join.Spec{ACols: []int{5}, BCols: []int{0}}}},
	}
	for _, c := range cases {
		it, err := Open(context.Background(), c.plan, cat, nil)
		if err == nil {
			it.Close()
			t.Errorf("%s: Open accepted an invalid plan", c.name)
		}
	}
	var nilNode Node
	if _, err := Open(context.Background(), nilNode, cat, nil); err == nil {
		t.Error("nil plan accepted")
	}
}

// TestPushdownReducesTiles is the machine-level payoff of predicate
// pushdown: on a small fixed array, the optimized select-over-join loads
// A through the selecting disk (§9) and decomposes the join into fewer
// tiles than the bare join of the full relations — measured on the real
// decompose counters — while producing exactly the host result.
func TestPushdownReducesTiles(t *testing.T) {
	cat := streamCatalog(t, 64)
	spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
	sel := Select{
		Child: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec},
		Query: ltQ(1, 2), // selective predicate on A's columns
	}
	opt, err := Optimize(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opt.(Join); !ok {
		t.Fatalf("optimized root is %T, want Join (select pushed into input)", opt)
	}

	tiles := obs.Default.Counter("decompose_tiles_total", nil)
	runTiles := func(plan Node) (*relation.Relation, int64) {
		t.Helper()
		tasks, out, err := Compile(plan, cat)
		if err != nil {
			t.Fatalf("compile %s: %v", Render(plan), err)
		}
		m, err := machine.Default1980(8) // 8x8 array: 64x64 join = 64 tiles
		if err != nil {
			t.Fatal(err)
		}
		before := tiles.Value()
		res, err := m.Run(tasks)
		if err != nil {
			t.Fatalf("run %s: %v", Render(plan), err)
		}
		return res.Relations[out], tiles.Value() - before
	}

	bare := Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}, Spec: spec}
	_, bareTiles := runTiles(bare)
	got, optTiles := runTiles(opt)
	if bareTiles == 0 {
		t.Fatal("bare join ran no tiles; array size assumption broken")
	}
	if optTiles >= bareTiles {
		t.Errorf("pushdown did not reduce tiles: %d vs %d for the bare join", optTiles, bareTiles)
	}
	host, err := Execute(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultiset(host) {
		t.Error("pushed-down machine result differs from host select-over-join")
	}
}

// Open builds the streaming iterator tree for a plan without running it
// (an iterator is being asked for, so Options.Streaming is implied). The
// rest of o applies as in ExecuteCtx: blocking nodes run on o.Backend's
// kernel and record their spans into o.Metrics, and o.Stats is filled in
// as tuples are pulled. The context is observed by every iterator at batch
// granularity. Callers must Close the iterator and check Err after the
// final Next.
func Open(ctx context.Context, n Node, cat Catalog, o *Options) (TupleIterator, error) {
	if n == nil {
		return nil, fmt.Errorf("query: nil plan node")
	}
	return newDriver(ctx, cat, o, true).open(n)
}
