package comparison

import (
	"testing"

	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
)

// runWithFault runs a 4x4x2 comparison problem through the configurable
// injector with a single fault targeted at cell (row 2, col 1) at the
// given pulse, and returns the resulting matrix (or the driver's error).
func runWithFault(t *testing.T, mode fault.Mode, pulse int) (*Matrix, error) {
	t.Helper()
	a := []relation.Tuple{{1, 1}, {2, 2}, {3, 3}, {1, 1}}
	b := []relation.Tuple{{2, 2}, {1, 1}, {4, 4}, {3, 3}}
	inj, err := fault.NewInjector(&fault.Plan{Mode: mode, Rate: 0, Seed: 1, Row: 2, Col: 1, Pulse: pulse})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run2DWrap(a, b, nil, nil, nil, inj.NewRun())
	if err != nil {
		return nil, err
	}
	return res.T, nil
}

// TestFaultInjection verifies that the detection layer catches every
// injected single-fault mode on the comparison array: a fault either
// errors out of the driver's structural self-checks (completeness,
// positional alignment) or corrupts T visibly against the host reference —
// and for each mode at least one pulse placement must actually be caught,
// so faults cannot pass silently.
func TestFaultInjection(t *testing.T) {
	a := []relation.Tuple{{1, 1}, {2, 2}, {3, 3}, {1, 1}}
	b := []relation.Tuple{{2, 2}, {1, 1}, {4, 4}, {3, 3}}
	want := ReferenceT(a, b, nil, nil)
	wantSum := fault.MatrixChecksum(want.Bits)

	t.Run("baseline-no-fault", func(t *testing.T) {
		// An off-grid target never fires: the wrapped grid must behave
		// exactly like a pristine one.
		tm, err := runWithFault(t, fault.Drop, 10_000)
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		if !tm.Equal(want) {
			t.Fatal("fault-free run produced wrong T")
		}
		if fault.MatrixChecksum(tm.Bits) != wantSum {
			t.Fatal("equal matrices, different checksums")
		}
	})

	for _, mode := range []fault.Mode{fault.Flip, fault.Drop, fault.Misroute, fault.StuckAt} {
		t.Run(mode.String(), func(t *testing.T) {
			detected := false
			for pulse := 0; pulse < 12; pulse++ {
				tm, err := runWithFault(t, mode, pulse)
				if err != nil {
					detected = true // structural self-check
					break
				}
				if v := fault.Verify(fault.VerifyChecksum, fault.MatrixChecksum(tm.Bits), wantSum); !v.OK {
					detected = true // checksum lane
					break
				}
				if !tm.Equal(want) {
					t.Fatalf("pulse %d: corrupted T passed checksum verification", pulse)
				}
			}
			if !detected {
				t.Errorf("no %v fault at any pulse was detected (faults pass silently)", mode)
			}
		})
	}
}
