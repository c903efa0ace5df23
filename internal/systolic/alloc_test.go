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
			g.Reset()
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
		}
	}
}
