package decompose

import (
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// countingRunner runs every tile once on pristine cells, counting them
// and recording each tile's fault op label.
type countingRunner struct {
	tiles int
	ops   []string
}

func (r *countingRunner) RunTile(op string, _ func() fault.Checksum, attempt fault.Attempt) (systolic.Stats, error) {
	r.tiles++
	r.ops = append(r.ops, op)
	_, st, err := attempt(nil)
	return st, err
}

// TestTilerOpLabels: T's tiles carry the fault op label of the array they
// run — "compare" for the comparison array, "join" when the join
// operators are given — so the fault_* series keep their op labels.
func TestTilerOpLabels(t *testing.T) {
	a := []relation.Tuple{{1}, {2}, {3}}
	for _, tc := range []struct {
		ops  []cells.Op
		want string
	}{{nil, "compare"}, {[]cells.Op{cells.EQ}, "join"}, {[]cells.Op{cells.GT}, "join"}} {
		r := &countingRunner{}
		if _, _, err := (Tiler{Size: ArraySize{MaxA: 2, MaxB: 2}, Runner: r}).T(a, a, tc.ops, nil); err != nil {
			t.Fatal(err)
		}
		if r.tiles != 4 {
			t.Errorf("ops %v: %d tiles, want 4", tc.ops, r.tiles)
		}
		for _, op := range r.ops {
			if op != tc.want {
				t.Errorf("ops %v: tile labelled %q, want %q", tc.ops, op, tc.want)
			}
		}
	}
}

// TestTilerRejectsBeforeAnyTile: a ragged tuple list is rejected before
// the runner sees a tile, so no device attempt, retry or quarantine is
// spent on input no tile could accept; an empty side still answers
// without looking at widths.
func TestTilerRejectsBeforeAnyTile(t *testing.T) {
	even := []relation.Tuple{{1, 2}, {3, 4}, {5, 6}}
	ragged := []relation.Tuple{{1, 2}, {3, 4}, {5}}
	ops := []cells.Op{cells.EQ, cells.LT}
	runs := map[string]func(Tiler, []relation.Tuple, []relation.Tuple) error{
		"T": func(tl Tiler, a, b []relation.Tuple) error {
			_, _, err := tl.T(a, b, nil, nil)
			return err
		},
		"Accumulate": func(tl Tiler, a, b []relation.Tuple) error {
			_, _, err := tl.Accumulate(a, b, nil)
			return err
		},
		"T with operators": func(tl Tiler, a, b []relation.Tuple) error {
			_, _, err := tl.T(a, b, ops, nil)
			return err
		},
	}
	for name, run := range runs {
		for _, tc := range []struct {
			what    string
			a, b    []relation.Tuple
			wantErr bool
		}{
			{"ragged A", ragged, even, true},
			{"ragged B", even, ragged, true},
			{"ragged A, empty B", ragged, nil, false},
		} {
			r := &countingRunner{}
			err := run(Tiler{Size: ArraySize{MaxA: 1, MaxB: 1}, Runner: r}, tc.a, tc.b)
			if (err != nil) != tc.wantErr {
				t.Errorf("%s %s: error = %v, want error %v", name, tc.what, err, tc.wantErr)
			}
			if r.tiles != 0 {
				t.Errorf("%s %s: %d tiles ran, want 0", name, tc.what, r.tiles)
			}
		}
	}
}
