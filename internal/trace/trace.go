// Package trace records and renders per-pulse snapshots of a systolic
// grid, reproducing the data-movement pictures of the paper (Figure 3-4
// "Data moving through the comparison array", Figure 4-1's intersection
// array in action, and Figure 7-2's division array in operation).
//
// Each rendered cell shows the tokens latched on its input lines that
// pulse: `v` is the element moving down (relation A), `^` the element
// moving up (relation B), `>` the boolean or gated value moving right.
package trace

import (
	"fmt"
	"io"
	"strings"

	"systolicdb/internal/systolic"
)

// Recorder implements systolic.Tracer by keeping every snapshot.
type Recorder struct {
	snaps []systolic.Snapshot
}

var _ systolic.Tracer = (*Recorder)(nil)

// Observe implements systolic.Tracer.
func (r *Recorder) Observe(s systolic.Snapshot) {
	// Deep-copy the latched state: the engine reuses nothing, but the
	// snapshot slices are per-pulse allocations owned by the engine's
	// step; copying keeps the recorder self-contained.
	cp := systolic.Snapshot{Pulse: s.Pulse, Rows: s.Rows, Cols: s.Cols}
	cp.Latched = make([][]systolic.Inputs, s.Rows)
	for i := range s.Latched {
		cp.Latched[i] = make([]systolic.Inputs, s.Cols)
		copy(cp.Latched[i], s.Latched[i])
	}
	r.snaps = append(r.snaps, cp)
}

// Pulses returns the number of recorded snapshots.
func (r *Recorder) Pulses() int { return len(r.snaps) }

// Snapshot returns the recorded snapshot for a pulse.
func (r *Recorder) Snapshot(pulse int) (systolic.Snapshot, bool) {
	if pulse < 0 || pulse >= len(r.snaps) {
		return systolic.Snapshot{}, false
	}
	return r.snaps[pulse], true
}

// cellText renders one cell's latched inputs, or "." when idle.
func cellText(in systolic.Inputs) string {
	var parts []string
	if in.N.Present() {
		parts = append(parts, "v"+in.N.String())
	}
	if in.S.Present() {
		parts = append(parts, "^"+in.S.String())
	}
	if in.W.Present() {
		parts = append(parts, ">"+in.W.String())
	}
	if in.E.Present() {
		parts = append(parts, "<"+in.E.String())
	}
	if len(parts) == 0 {
		return "."
	}
	return strings.Join(parts, " ")
}

// RenderPulse writes an ASCII picture of one pulse.
func (r *Recorder) RenderPulse(w io.Writer, pulse int) error {
	s, ok := r.Snapshot(pulse)
	if !ok {
		return fmt.Errorf("trace: pulse %d not recorded (have %d)", pulse, len(r.snaps))
	}
	// Compute a uniform cell width.
	width := 1
	cellStrs := make([][]string, s.Rows)
	for i := range s.Latched {
		cellStrs[i] = make([]string, s.Cols)
		for j := range s.Latched[i] {
			t := cellText(s.Latched[i][j])
			cellStrs[i][j] = t
			if len(t) > width {
				width = len(t)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "pulse %d\n", s.Pulse); err != nil {
		return err
	}
	border := "+" + strings.Repeat(strings.Repeat("-", width+2)+"+", s.Cols)
	for i := 0; i < s.Rows; i++ {
		if _, err := fmt.Fprintln(w, border); err != nil {
			return err
		}
		row := "|"
		for j := 0; j < s.Cols; j++ {
			row += fmt.Sprintf(" %-*s |", width, cellStrs[i][j])
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, border)
	return err
}

// RenderRange writes pictures for pulses [from, to).
func (r *Recorder) RenderRange(w io.Writer, from, to int) error {
	if from < 0 {
		from = 0
	}
	if to > len(r.snaps) {
		to = len(r.snaps)
	}
	for p := from; p < to; p++ {
		if err := r.RenderPulse(w, p); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
