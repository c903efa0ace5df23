package trace

import (
	"bytes"
	"strings"
	"testing"

	"systolicdb/internal/comparison"
	"systolicdb/internal/relation"
)

func record(t *testing.T) *Recorder {
	t.Helper()
	rec := &Recorder{}
	a := []relation.Tuple{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	b := []relation.Tuple{{4, 5, 6}, {1, 2, 3}, {9, 9, 9}}
	if _, err := comparison.Run2D(a, b, nil, nil, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesEveryPulse(t *testing.T) {
	rec := record(t)
	sched, err := comparison.NewSchedule(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pulses() != sched.TotalPulses() {
		t.Errorf("recorded %d pulses, schedule runs %d", rec.Pulses(), sched.TotalPulses())
	}
	if _, ok := rec.Snapshot(0); !ok {
		t.Error("pulse 0 missing")
	}
	if _, ok := rec.Snapshot(rec.Pulses()); ok {
		t.Error("out-of-range snapshot returned")
	}
}

func TestRenderPulseShowsTokens(t *testing.T) {
	rec := record(t)
	var buf bytes.Buffer
	if err := rec.RenderPulse(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pulse 0") {
		t.Errorf("missing header: %q", out)
	}
	// At pulse 0, a_{0,0}=1 enters from the top of column 0 and
	// b_{0,0}=4 from the bottom: both must appear.
	if !strings.Contains(out, "v1") {
		t.Errorf("first A element not rendered:\n%s", out)
	}
	if !strings.Contains(out, "^4") {
		t.Errorf("first B element not rendered:\n%s", out)
	}
	if err := rec.RenderPulse(&buf, 999); err == nil {
		t.Error("out-of-range pulse not rejected")
	}
}

func TestRenderRange(t *testing.T) {
	rec := record(t)
	var buf bytes.Buffer
	if err := rec.RenderRange(&buf, -5, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, hdr := range []string{"pulse 0", "pulse 1", "pulse 2"} {
		if !strings.Contains(out, hdr) {
			t.Errorf("missing %q", hdr)
		}
	}
	if strings.Contains(out, "pulse 3") {
		t.Error("range end not respected")
	}
}

// TestFigure34DataMovement pins the recorded snapshots to the paper's
// Figure 3-4 depiction of a 3x3 comparison: at each pair's start pulse, the
// pair's meeting cell must have latched element 0 of the A tuple from the
// north and element 0 of the B tuple from the south, with the initial
// boolean arriving from the west.
func TestFigure34DataMovement(t *testing.T) {
	rec := &Recorder{}
	a := []relation.Tuple{{11, 12, 13}, {21, 22, 23}, {31, 32, 33}}
	b := []relation.Tuple{{41, 42, 43}, {11, 12, 13}, {21, 22, 23}}
	res, err := comparison.Run2D(a, b, nil, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	sched := res.Sched
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			snap, ok := rec.Snapshot(sched.StartPulse(i, j))
			if !ok {
				t.Fatalf("no snapshot at pulse %d", sched.StartPulse(i, j))
			}
			in := snap.Latched[sched.Row(i, j)][0]
			if !in.N.HasVal || in.N.Val != a[i][0] {
				t.Errorf("pair (%d,%d): north input %v, want a_%d0=%d", i, j, in.N, i, a[i][0])
			}
			if !in.S.HasVal || in.S.Val != b[j][0] {
				t.Errorf("pair (%d,%d): south input %v, want b_%d0=%d", i, j, in.S, j, b[j][0])
			}
			if !in.W.HasFlag || !in.W.Flag {
				t.Errorf("pair (%d,%d): west input %v, want initial TRUE", i, j, in.W)
			}
		}
	}
	// And the element-k comparison happens k columns right, k pulses
	// later (the rippling of Figure 3-4).
	for k := 1; k < 3; k++ {
		snap, _ := rec.Snapshot(sched.StartPulse(1, 1) + k)
		in := snap.Latched[sched.Row(1, 1)][k]
		if !in.N.HasVal || in.N.Val != a[1][k] || !in.S.HasVal || in.S.Val != b[1][k] {
			t.Errorf("element %d of pair (1,1) not at column %d: %+v", k, k, in)
		}
	}
}

func TestActiveCellsGrowsThenDrains(t *testing.T) {
	rec := record(t)
	first := rec.ActiveCells(0)
	mid := rec.ActiveCells(rec.Pulses() / 2)
	if first == 0 {
		t.Error("no active cells at pulse 0")
	}
	if mid <= first {
		t.Errorf("activity did not grow toward the middle: %d -> %d", first, mid)
	}
	if rec.ActiveCells(9999) != 0 {
		t.Error("out-of-range pulse should report 0")
	}
}

// ActiveCells returns how many cells had at least one token latched at the
// given pulse (0 if not recorded) — used by utilization inspection tests.
func (r *Recorder) ActiveCells(pulse int) int {
	s, ok := r.Snapshot(pulse)
	if !ok {
		return 0
	}
	n := 0
	for i := range s.Latched {
		for j := range s.Latched[i] {
			if s.Latched[i][j].Any() {
				n++
			}
		}
	}
	return n
}
