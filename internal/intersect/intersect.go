// Package intersect implements the intersection array of Kung & Lehman
// (1980) §4 (Figure 4-1) and, per §4.3, the difference array obtained from
// it by inverting the accumulated output.
//
// The intersection array is a single systolic grid made of two modules: the
// two-dimensional comparison array of §3 on the left (columns 0..m-1) and
// the linear accumulation array on the right (column m). Comparison results
// t_ij stream out of the comparison module and are OR-ed into per-tuple
// accumulators t_i that travel down the accumulation column:
//
//	t_i = OR_{1<=j<=n} t_ij                             (equation 4.1)
//
// A tuple a_i belongs to A ∩ B iff t_i is TRUE, and to A - B iff t_i is
// FALSE.
package intersect

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Result is the outcome of running the intersection or difference array.
type Result struct {
	Rel   *relation.Relation // materialised output relation
	Keep  []bool             // the accumulated t_i bit per tuple of A
	Stats systolic.Stats
}

// accumEnterPulse returns the pulse at which tuple i's accumulator (initial
// value FALSE) must enter the top of the accumulation column.
//
// Derivation: t_ij is latched by the accumulation cell in row r =
// Row(i,j) at pulse ExitPulse(i,j)+1. An accumulator entering the top at
// pulse τ_i reaches row r at pulse τ_i + r. Equating for all j gives
// τ_i = Alpha + 2i + M — independent of j, which is exactly why a single
// downward-moving accumulator can collect a whole row of T (paper §4.2).
func accumEnterPulse(s comparison.Schedule, i int) int {
	return s.Alpha + 2*i + s.M
}

// accumExitPulse returns the pulse at which tuple i's finished t_i leaves
// the bottom of the accumulation column.
func accumExitPulse(s comparison.Schedule, i int) int {
	return accumEnterPulse(s, i) + s.Rows - 1
}

// accumPort feeds the top of the accumulation column (column M) each
// tuple's accumulator with initial value FALSE (paper §4.2: "provided we
// initialize the value moving down through the accumulation array as
// FALSE"), tuple i's at accumEnterPulse(s, i).
func accumPort(s comparison.Schedule) systolic.Port {
	return systolic.Port{Side: systolic.North, Index: s.M, Window: systolic.Window{First: accumEnterPulse(s, 0), Stride: 2, Count: s.NA},
		Feed: func(p int) systolic.Token {
			q := p - accumEnterPulse(s, 0)
			if q >= 0 && q%2 == 0 && q/2 < s.NA {
				return systolic.FlagToken(false, systolic.Tag{Tuple: int32(q / 2), Valid: true})
			}
			return systolic.Empty
		}}
}

// RunAccumulated builds and runs the combined comparison + accumulation
// grid of Figure 4-1 on tuple lists a and b, with init supplying the
// initial boolean for each pair (nil = all TRUE, the intersection setting;
// the remove-duplicates array of §5 passes a triangle mask instead). It
// returns the accumulated bit t_i for every tuple of a.
//
// An optional tracer observes every pulse of the combined grid.
func RunAccumulated(a, b []relation.Tuple, init comparison.InitFunc, tracer systolic.Tracer) ([]bool, systolic.Stats, error) {
	return RunAccumulatedWrap(a, b, init, tracer, nil)
}

// RunAccumulatedWrap is RunAccumulated with an optional cell wrapper
// applied to every processor (the fault layer's injection hook); a nil
// wrap behaves exactly like RunAccumulated.
func RunAccumulatedWrap(a, b []relation.Tuple, init comparison.InitFunc, tracer systolic.Tracer, wrap systolic.Wrap) ([]bool, systolic.Stats, error) {
	nA, nB := len(a), len(b)
	if nA == 0 {
		return nil, systolic.Stats{}, nil
	}
	if nB == 0 {
		return make([]bool, nA), systolic.Stats{}, nil
	}
	m, err := comparison.CheckWidths(a, b, nil)
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	sched, err := comparison.NewSchedule(nA, nB, m)
	if err != nil {
		return nil, systolic.Stats{}, err
	}

	// Columns 0..m-1: comparison processors. Column m: accumulation.
	grid, err := systolic.NewGrid(sched.Rows, m+1, systolic.BuildWith(func(_, c int) systolic.Cell {
		if c < m {
			return cells.Compare{}
		}
		return cells.Accumulate{}
	}, wrap))
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	defer grid.Release()
	grid.SetTracer(tracer)

	// The comparison module's feeds, identical to comparison.Run2D, and
	// the accumulators entering the top of the accumulation column.
	if err := grid.Feed(append(sched.Ports(a, b, init), accumPort(sched))...); err != nil {
		return nil, systolic.Stats{}, err
	}

	// South side of the accumulation column: collect the finished t_i.
	keep := make([]bool, nA)
	gotten := make([]bool, nA)
	var collectErr error
	if err := grid.Drain(systolic.South, m, func(p int, tok systolic.Token) {
		if !tok.HasFlag || collectErr != nil {
			return
		}
		// Invert accumExitPulse: p = Alpha + 2i + M + Rows - 1.
		q := p - sched.Alpha - m - (sched.Rows - 1)
		if q < 0 || q%2 != 0 || q/2 >= nA {
			collectErr = fmt.Errorf("intersect: unexpected accumulator output at pulse %d", p)
			return
		}
		i := q / 2
		if tok.Tag.Valid && int(tok.Tag.Tuple) != i {
			collectErr = fmt.Errorf("intersect: accumulator misalignment at pulse %d: schedule says %d, tag says %d", p, i, tok.Tag.Tuple)
			return
		}
		if gotten[i] {
			collectErr = fmt.Errorf("intersect: duplicate accumulator output for tuple %d", i)
			return
		}
		keep[i] = tok.Flag
		gotten[i] = true
	}); err != nil {
		return nil, systolic.Stats{}, err
	}

	grid.Run(accumExitPulse(sched, nA-1) + 1)
	if collectErr != nil {
		return nil, systolic.Stats{}, collectErr
	}
	for i, g := range gotten {
		if !g {
			return nil, systolic.Stats{}, fmt.Errorf("intersect: no accumulator output for tuple %d", i)
		}
	}
	return keep, grid.Stats(), nil
}

// checkCompatible validates the §2.4 precondition shared by intersection
// and difference.
func checkCompatible(a, b *relation.Relation) error {
	if a == nil || b == nil {
		return fmt.Errorf("intersect: nil relation")
	}
	if !a.Schema().UnionCompatible(b.Schema()) {
		return fmt.Errorf("intersect: relations are not union-compatible")
	}
	return nil
}

// Intersection computes C = A ∩ B on the intersection array: tuples of A
// whose accumulated t_i is TRUE (paper §4.2).
func Intersection(a, b *relation.Relation) (*Result, error) {
	return run(a, b, true)
}

// Difference computes C = A - B: tuples of A whose accumulated t_i is FALSE
// (paper §4.3; equivalently the intersection array with an inverter on the
// accumulation output line).
func Difference(a, b *relation.Relation) (*Result, error) {
	return run(a, b, false)
}

func run(a, b *relation.Relation, want bool) (*Result, error) {
	if err := checkCompatible(a, b); err != nil {
		return nil, err
	}
	keep, stats, err := RunAccumulated(a.Tuples(), b.Tuples(), nil, nil)
	if err != nil {
		return nil, err
	}
	if keep == nil {
		keep = []bool{}
	}
	rel, err := a.Select(keep, want)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, Keep: keep, Stats: stats}, nil
}
