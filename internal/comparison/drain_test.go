package comparison

import (
	"math/rand"
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// eastCell wraps one processor and rewrites the token it presents on its
// east output line.
type eastCell struct {
	systolic.Cell
	rewrite func(*systolic.Token)
}

func (c eastCell) Step(in *systolic.Inputs, out *systolic.Outputs) {
	c.Cell.Step(in, out)
	c.rewrite(&out.E)
}

// eastWrap rewrites the east output of every cell in column col, and of
// row row only when row >= 0.
func eastWrap(row, col int, rewrite func(*systolic.Token)) systolic.Wrap {
	return func(r, c int, cell systolic.Cell) systolic.Cell {
		if c != col || row >= 0 && r != row {
			return cell
		}
		return eastCell{cell, rewrite}
	}
}

// TestRun2DOneSideEmpty: an empty A or B is answered with an all-FALSE
// matrix of the right shape and no error, whatever the other side holds.
func TestRun2DOneSideEmpty(t *testing.T) {
	tuples := []relation.Tuple{{1, 2}, {3, 4}, {5, 6}}
	for _, tc := range []struct {
		a, b   []relation.Tuple
		nA, nB int
	}{{nil, tuples, 0, 3}, {tuples, nil, 3, 0}} {
		res, err := Run2D(tc.a, tc.b, nil, nil, nil)
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.nA, tc.nB, err)
		}
		if res.T.NA != tc.nA || res.T.NB != tc.nB || len(res.T.Bits) != tc.nA {
			t.Errorf("%dx%d: got a %dx%d matrix", tc.nA, tc.nB, res.T.NA, res.T.NB)
		}
	}
}

// thetaCases are the operator lists the drain tests run under: the
// comparison array's equality processors, and the join array's θ
// processors with one operator per column.
var thetaCases = map[string][]cells.Op{"equality": nil, "theta": {cells.LE, cells.GT}}

// TestRun2DTagCrossCheck: a result whose provenance tag disagrees with the
// schedule in either coordinate is a schedule misalignment, not a t_ij —
// for a θ-join as for the comparison array.
func TestRun2DTagCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randTuples(rng, 4, 2, 3), randTuples(rng, 3, 2, 3)
	s, err := NewSchedule(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Row(2, 1)
	for opsName, ops := range thetaCases {
		for name, rewrite := range map[string]func(*systolic.Token){
			"tuple": func(tok *systolic.Token) { tok.Tag.Tuple += 7 },
			"elem":  func(tok *systolic.Token) { tok.Tag.Elem += 7 },
		} {
			_, err := Run2DWrap(a, b, ops, nil, nil, eastWrap(row, 1, func(tok *systolic.Token) {
				if tok.HasFlag {
					rewrite(tok)
				}
			}))
			if err == nil || !strings.Contains(err.Error(), "misalignment") {
				t.Errorf("%s, %s rewritten: error = %v, want a schedule misalignment", opsName, name, err)
			}
		}
	}
}

// TestRun2DDrainsOnlyResults: the east side collects boolean results only;
// a data token leaving the last column is not a t_ij and is ignored.
func TestRun2DDrainsOnlyResults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randTuples(rng, 5, 2, 3), randTuples(rng, 4, 2, 3)
	for opsName, ops := range thetaCases {
		injected := 0
		res, err := Run2DWrap(a, b, ops, nil, nil, eastWrap(-1, 1, func(tok *systolic.Token) {
			if !tok.Present() {
				*tok = systolic.ValToken(9, systolic.Tag{})
				injected++
			}
		}))
		if err != nil {
			t.Fatalf("%s: %v", opsName, err)
		}
		if injected == 0 {
			t.Fatalf("%s: no data token reached the east side", opsName)
		}
		if want := ReferenceT(a, b, ops, nil); !res.T.Equal(want) {
			t.Errorf("%s: T = %v, want %v", opsName, res.T.Bits, want.Bits)
		}
	}
}
