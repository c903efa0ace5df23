package fault_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"systolicdb/internal/fault"
	"systolicdb/internal/intersect"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
	"systolicdb/internal/workload"
)

// steps counts the Step calls of a grid's cells, and those of them with an
// input present.
type steps struct{ all, active int }

// stepCounter wraps a cell and counts its Step calls. every sets what it
// reports to the grid: false is its inner cell's visit rule (the
// intersection array's cells are not Visited), true makes the grid visit
// it at every pulse.
type stepCounter struct {
	systolic.Cell
	n     *steps
	every bool
}

func (c *stepCounter) Step(in *systolic.Inputs, out *systolic.Outputs) {
	c.n.all++
	if in.Any() {
		c.n.active++
	}
	c.Cell.Step(in, out)
}

func (c *stepCounter) EveryPulse() bool { return c.every }

// counting wraps every cell in a stepCounter, under an optional outer wrap.
func counting(n *steps, every bool, outer systolic.Wrap) systolic.Wrap {
	return func(row, col int, cell systolic.Cell) systolic.Cell {
		cell = &stepCounter{Cell: cell, n: n, every: every}
		if outer != nil {
			cell = outer(row, col, cell)
		}
		return cell
	}
}

// TestFaultedGridIsEventDriven: a fault-wrapped intersection grid steps
// only the cells a token reaches (the clean grid's cells when no fault
// fires), and injects exactly the faults the same plan and nonce inject
// into a grid that visits every cell at every pulse — over every mode and
// random rates, seeds, cell and pulse targets.
func TestFaultedGridIsEventDriven(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var fired [5]int64
	for k := 0; k < 100; k++ {
		a, b, err := workload.OverlapPair(int64(k), 2+rng.Intn(10), 1+rng.Intn(4), rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		at, bt := a.Tuples(), b.Tuples()
		var clean steps
		_, stats, err := intersect.RunAccumulatedWrap(at, bt, nil, nil, counting(&clean, false, nil))
		if err != nil {
			t.Fatal(err)
		}
		if clean.all != stats.ActiveSteps {
			t.Fatalf("clean grid stepped %d cells, %d had an input present", clean.all, stats.ActiveSteps)
		}
		cols := len(at[0]) + 1
		rows := stats.Cells / cols
		plan := &fault.Plan{Mode: fault.Mode(k % 5), Seed: rng.Int63(), Row: -1, Col: -1, Pulse: -1, StuckVal: rng.Intn(2) == 0}
		plan.Rate = []float64{0, 0.002, 0.02, 0.1}[rng.Intn(4)]
		if plan.Rate == 0 || rng.Intn(4) == 0 {
			plan.Pulse = rng.Intn(stats.Pulses)
		}
		if rng.Intn(3) == 0 {
			plan.Row, plan.Col = rng.Intn(rows), rng.Intn(cols)
		}

		type run struct {
			bits  []bool
			stats systolic.Stats
			err   string
			steps steps
			inj   int64
		}
		faulted := func(every bool) run {
			inj, err := fault.NewInjector(plan)
			if err != nil {
				t.Fatal(err)
			}
			var r run
			var runErr error
			r.bits, r.stats, runErr = intersect.RunAccumulatedWrap(at, bt, nil, nil, counting(&r.steps, every, inj.NewRun()))
			r.err, r.inj = fmt.Sprint(runErr), inj.Injected()
			return r
		}
		sparse, dense := faulted(false), faulted(true)
		// A fault that moves or drops a token changes which cells a token
		// reaches, so the faulted grid must step exactly the cells that had
		// an input present in the dense run, and the clean grid's cells
		// when nothing fired.
		if want := rows * cols * stats.Pulses; dense.steps.all != want {
			t.Fatalf("%v: dense reference stepped %d cells, want %d", plan, dense.steps.all, want)
		}
		if sparse.steps.all != dense.steps.active || (sparse.inj == 0 && sparse.steps != clean) {
			t.Errorf("%v: faulted grid stepped %d cells with %d injected; %d had an input present in the dense run, the clean grid stepped %d",
				plan, sparse.steps.all, sparse.inj, dense.steps.active, clean.all)
		}
		if !slices.Equal(sparse.bits, dense.bits) || sparse.stats != dense.stats || sparse.err != dense.err || sparse.inj != dense.inj {
			t.Errorf("%v: result %v stats %+v err %s injected %d; every cell visited: %v %+v %s %d",
				plan, sparse.bits, sparse.stats, sparse.err, sparse.inj, dense.bits, dense.stats, dense.err, dense.inj)
		}
		fired[plan.Mode] += sparse.inj
	}
	for m, n := range fired {
		if n == 0 {
			t.Errorf("no %v fault fired: the comparison shows nothing for that mode", fault.Mode(m))
		}
	}
}

// holdCell is a hold register: it emits east the token it latched from
// the west one pulse earlier, so it emits on idle inputs too.
type holdCell struct{ held systolic.Token }

func (c *holdCell) Step(in *systolic.Inputs, out *systolic.Outputs) { out.E, c.held = c.held, in.W }
func (c *holdCell) EveryPulse() bool                                { return true }

// TestFaultWrapKeepsEveryPulse: wrapped by a plan that never fires, a row
// of hold registers emits exactly what it emits unwrapped — the wrapper is
// visited at every pulse when its inner cell asks to be.
func TestFaultWrapKeepsEveryPulse(t *testing.T) {
	inj, err := fault.NewInjector(&fault.Plan{Mode: fault.Drop, Row: -1, Col: -1, Pulse: 1000})
	if err != nil {
		t.Fatal(err)
	}
	emits := func(wrap systolic.Wrap) []string {
		grid, err := systolic.NewGrid(1, 3, systolic.BuildWith(func(_, _ int) systolic.Cell { return &holdCell{} }, wrap))
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.Feed(systolic.Port{Side: systolic.West, Window: systolic.Window{First: 1, Stride: 3, Count: 3},
			Feed: func(p int) systolic.Token { return systolic.ValToken(relation.Element(p), systolic.Tag{}) }}); err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := grid.Drain(systolic.East, 0, func(p int, tok systolic.Token) { got = append(got, fmt.Sprint(p, tok)) }); err != nil {
			t.Fatal(err)
		}
		grid.Run(14)
		return got
	}
	plain, wrapped := emits(nil), emits(inj.NewRun())
	if want := []string{"6 1", "9 4", "12 7"}; !slices.Equal(plain, want) {
		t.Fatalf("unwrapped hold registers emit %q, want %q", plain, want)
	}
	if !slices.Equal(wrapped, plain) || inj.Injected() != 0 {
		t.Errorf("wrapped hold registers emit %q with %d injected, want %q with none", wrapped, inj.Injected(), plain)
	}
}
