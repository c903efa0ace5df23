package systolic

import "testing"

// TestSteppingAllocatesNothing pins that cells step in place: once a grid
// has run, further pulses allocate nothing, traced or not. A cell's inputs
// and outputs live in the grid's planes; a per-step Inputs or Outputs
// whose address crosses the Cell interface would escape to the heap on
// every cell step and fail here.
func TestSteppingAllocatesNothing(t *testing.T) {
	const n, m = 8, 3
	for _, tc := range []struct {
		name       string
		accumulate bool
	}{{"comparison", false}, {"intersection", true}} {
		for _, traced := range []bool{false, true} {
			seen := 0
			g := buildComparisonGrid(t, n, m, tc.accumulate, func(_ int, tok Token) {
				if tok.Present() {
					seen++
				}
			})
			if traced {
				g.SetTracer(tracerFunc(func(Snapshot) {}))
			}
			g.Run(4)
			allocs := testing.AllocsPerRun(10, func() { g.Run(4) })
			if allocs != 0 {
				t.Errorf("%s (traced %v): %v allocations per 4 pulses, want 0", tc.name, traced, allocs)
			}
			if seen == 0 {
				t.Errorf("%s (traced %v): no token left the grid", tc.name, traced)
			}
			if st := g.Stats(); st.ActiveSteps == 0 || st.Pulses != 48 {
				t.Errorf("%s (traced %v): stats %+v, want 48 pulses with work", tc.name, traced, st)
			}
			g.Release()
		}
	}

	// A grid's whole life on a shape a released grid has: NewGrid takes
	// the released grid's planes and port tables, so building, feeding,
	// draining, running and releasing it allocate nothing.
	if raceEnabled {
		t.Log("skipping the released-grid cycle: the race detector's pool drops grids")
		return
	}
	rows, cols, build, ports := comparisonProblem(n, m, true)
	seen, want := 0, -1
	sink := func(int, Token) { seen++ }
	cycle := func() {
		g, err := NewGrid(rows, cols, build)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Feed(ports...); err != nil {
			t.Fatal(err)
		}
		if err := g.Drain(South, m, sink); err != nil {
			t.Fatal(err)
		}
		seen = 0
		g.Run(4 * n)
		g.Release()
		if want < 0 {
			want = seen
		}
		if seen == 0 || seen != want {
			t.Errorf("released-grid cycle: %d tokens left the grid, want %d (and not 0)", seen, want)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("released-grid cycle: %v allocations per NewGrid, Feed, Drain, Run and Release, want 0", allocs)
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
