package join

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// RunTDynamic runs the join array in the streamed-operator mode of §6.3.2:
// instead of preloading a comparison operator into the processors, the
// operator for each pair (i, j) is "encoded in a few bits, and passed along
// with" the data — it rides in the value field of the boolean token that
// carries the pair's partial result, so a single physical array evaluates a
// different θ per pair. opFor supplies the operator for each pair; the same
// operator applies to every join column of that pair.
func RunTDynamic(aKeys, bKeys []relation.Tuple, width int, opFor func(i, j int) cells.Op) (*comparison.Matrix, systolic.Stats, error) {
	nA, nB := len(aKeys), len(bKeys)
	if nA == 0 || nB == 0 {
		return comparison.NewMatrix(nA, nB), systolic.Stats{}, nil
	}
	if width <= 0 {
		return nil, systolic.Stats{}, fmt.Errorf("join: width %d must be positive", width)
	}
	if opFor == nil {
		return nil, systolic.Stats{}, fmt.Errorf("join: nil operator function")
	}
	for _, t := range aKeys {
		if len(t) != width {
			return nil, systolic.Stats{}, fmt.Errorf("join: key tuple width %d != %d", len(t), width)
		}
	}
	for _, t := range bKeys {
		if len(t) != width {
			return nil, systolic.Stats{}, fmt.Errorf("join: key tuple width %d != %d", len(t), width)
		}
	}
	sched, err := comparison.NewSchedule(nA, nB, width)
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	grid, err := systolic.NewGrid(sched.Rows, width, func(_, _ int) systolic.Cell {
		return cells.StreamTheta{}
	})
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	for k := 0; k < width; k++ {
		k := k
		if err := grid.Feed(systolic.North, k, func(p int) systolic.Token {
			q := p - sched.Alpha - k
			if q >= 0 && q%2 == 0 && q/2 < nA {
				i := q / 2
				return systolic.ValToken(aKeys[i][k], systolic.Tag{Tuple: int32(i), Elem: int32(k), Valid: true})
			}
			return systolic.Empty
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
		if err := grid.Feed(systolic.South, k, func(p int) systolic.Token {
			q := p - sched.Beta - k
			if q >= 0 && q%2 == 0 && q/2 < nB {
				j := q / 2
				return systolic.ValToken(bKeys[j][k], systolic.Tag{Tuple: int32(j), Elem: int32(k), Valid: true})
			}
			return systolic.Empty
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
	}
	for r := 0; r < sched.Rows; r++ {
		r := r
		if err := grid.Feed(systolic.West, r, func(p int) systolic.Token {
			i, j, ok := sched.PairAt(r, p)
			if !ok {
				return systolic.Empty
			}
			return cells.EncodeOpToken(true, opFor(i, j), systolic.Tag{Tuple: int32(i), Elem: int32(j), Valid: true})
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
	}
	t := comparison.NewMatrix(nA, nB)
	seen := 0
	var collectErr error
	for r := 0; r < sched.Rows; r++ {
		r := r
		if err := grid.Drain(systolic.East, r, func(p int, tok systolic.Token) {
			if !tok.HasFlag || collectErr != nil {
				return
			}
			i, j, ok := sched.PairAt(r, p-(width-1))
			if !ok {
				collectErr = fmt.Errorf("join: unexpected dynamic t at row %d pulse %d", r, p)
				return
			}
			t.Bits[i][j] = tok.Flag
			seen++
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
	}
	grid.Reset()
	grid.Run(sched.TotalPulses())
	if collectErr != nil {
		return nil, systolic.Stats{}, collectErr
	}
	if seen != nA*nB {
		return nil, systolic.Stats{}, fmt.Errorf("join: dynamic array collected %d of %d bits", seen, nA*nB)
	}
	return t, grid.Stats(), nil
}
