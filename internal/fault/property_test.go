// The safety property of the detection layer, tested exhaustively for
// single faults: injecting one fault into one cell at one pulse of an
// intersection-array run either (a) leaves the relational result bit-exact,
// (b) is caught by the driver's structural self-checks (the run errors), or
// (c) is caught by checksum verification against the host reference. A
// fault that silently changes the result would falsify fault-tolerant
// execution, because retry only triggers on detection.
package fault_test

import (
	"testing"

	"systolicdb/internal/comparison"
	"systolicdb/internal/fault"
	"systolicdb/internal/intersect"
	"systolicdb/internal/workload"
)

func TestSingleFaultDetectedOrHarmless(t *testing.T) {
	a, b, err := workload.OverlapPair(21, 4, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	at, bt := a.Tuples(), b.Tuples()
	want := fault.BoolChecksum(comparison.ReferenceT(at, bt, nil, nil).OrRows())
	wantBits := comparison.ReferenceT(at, bt, nil, nil).OrRows()

	// Probe the grid dimensions and pulse budget with a pristine run.
	_, stats, err := intersect.RunAccumulatedWrap(at, bt, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	plans := func(row, col, pulse int) []*fault.Plan {
		base := fault.Plan{Rate: 0, Seed: 1, Row: row, Col: col, Pulse: pulse}
		flip, drop, mis := base, base, base
		flip.Mode = fault.Flip
		drop.Mode = fault.Drop
		mis.Mode = fault.Misroute
		stuck0, stuck1 := base, base
		stuck0.Mode, stuck0.StuckVal = fault.StuckAt, false
		stuck1.Mode, stuck1.StuckVal = fault.StuckAt, true
		flaky := base
		flaky.Mode = fault.Flaky
		return []*fault.Plan{&flip, &drop, &mis, &stuck0, &stuck1, &flaky}
	}

	// The comparison grid for 4x4 tuples of width 2 has a handful of rows
	// and 3 columns (2 comparison + 1 accumulation); probing a superset of
	// cells is harmless — off-grid targets simply never fire.
	rows, cols := 8, 4
	checked, silent := 0, 0
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			for pulse := 0; pulse < stats.Pulses; pulse++ {
				for _, plan := range plans(row, col, pulse) {
					inj, err := fault.NewInjector(plan)
					if err != nil {
						t.Fatal(err)
					}
					checked++
					bits, _, err := intersect.RunAccumulatedWrap(at, bt, nil, nil, inj.NewRun())
					if err != nil {
						continue // detected structurally by the driver
					}
					got := fault.BoolChecksum(bits)
					if v := fault.Verify(fault.VerifyChecksum, got, want); !v.OK {
						continue // detected by the checksum lane
					}
					// Verification passed: the result must be bit-exact.
					if len(bits) != len(wantBits) {
						t.Fatalf("fault %s at (%d,%d) pulse %d: length changed undetected",
							plan, row, col, pulse)
					}
					for i := range bits {
						if bits[i] != wantBits[i] {
							t.Errorf("SILENT CORRUPTION: fault %s at cell (%d,%d) pulse %d "+
								"changed bit %d but passed verification", plan, row, col, pulse, i)
						}
					}
					silent++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no faults probed")
	}
	// Sanity: some faults must be harmless (hitting empty pulses), and not
	// all may be — otherwise the sweep is not exercising both outcomes.
	if silent == 0 || silent == checked {
		t.Errorf("sweep degenerate: %d of %d faults were harmless-and-verified-clean", silent, checked)
	}
}
