package comparison

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Matrix is the boolean result matrix T of paper §3.3: Bits[i][j] is t_ij,
// the result of comparing tuple a_i with tuple b_j (ANDed with the row's
// initial boolean input).
type Matrix struct {
	NA, NB int
	Bits   [][]bool
}

// NewMatrix allocates an all-false NA x NB matrix, its rows carved out of
// one backing array.
func NewMatrix(nA, nB int) *Matrix {
	m := &Matrix{NA: nA, NB: nB, Bits: make([][]bool, nA)}
	backing := make([]bool, nA*nB)
	for i := range m.Bits {
		m.Bits[i] = backing[i*nB : (i+1)*nB : (i+1)*nB]
	}
	return m
}

// Get returns t_ij.
func (m *Matrix) Get(i, j int) bool { return m.Bits[i][j] }

// OrRows returns the per-row OR: t_i = OR_j t_ij (equation 4.1 of the
// paper), the value the accumulation array computes in hardware.
func (m *Matrix) OrRows() []bool {
	out := make([]bool, m.NA)
	for i := range m.Bits {
		for _, b := range m.Bits[i] {
			if b {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Equal reports whether two matrices have identical shape and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.NA != o.NA || m.NB != o.NB {
		return false
	}
	for i := range m.Bits {
		for j := range m.Bits[i] {
			if m.Bits[i][j] != o.Bits[i][j] {
				return false
			}
		}
	}
	return true
}

// InitFunc supplies the initial boolean fed into the west side of the
// comparison array for pair (i, j). The intersection array feeds TRUE
// everywhere; the remove-duplicates array feeds FALSE on and above the
// diagonal (paper §5). A nil InitFunc means all-TRUE.
type InitFunc func(i, j int) bool

// Result is the outcome of running a comparison array.
type Result struct {
	T     *Matrix
	Stats systolic.Stats
	Sched Schedule
}

// CompareTuples runs the linear comparison array of Figure 3-1 on a single
// pair of tuples: m processors in a row, a fed from above with the k-th
// element entering column k at pulse k, b fed symmetrically from below, and
// the boolean TRUE injected at the left end at pulse 0. After m pulses the
// right-most processor emits TRUE iff the tuples are equal.
func CompareTuples(a, b relation.Tuple) (bool, systolic.Stats, error) {
	if len(a) != len(b) {
		return false, systolic.Stats{}, fmt.Errorf("comparison: tuple widths %d and %d differ", len(a), len(b))
	}
	if len(a) == 0 {
		return false, systolic.Stats{}, fmt.Errorf("comparison: empty tuples")
	}
	m := len(a)
	grid, err := systolic.NewGrid(1, m, func(_, _ int) systolic.Cell { return cells.Compare{} })
	if err != nil {
		return false, systolic.Stats{}, err
	}
	defer grid.Release()
	if err := grid.Feed(tuplePorts(a, b)...); err != nil {
		return false, systolic.Stats{}, err
	}
	var (
		got    bool
		result bool
	)
	if err := grid.Drain(systolic.East, 0, func(p int, tok systolic.Token) {
		if tok.HasFlag {
			got = true
			result = tok.Flag
		}
	}); err != nil {
		return false, systolic.Stats{}, err
	}
	grid.Run(m)
	if !got {
		return false, grid.Stats(), fmt.Errorf("comparison: linear array produced no result in %d pulses", m)
	}
	return result, grid.Stats(), nil
}

// tuplePorts returns the feeds of the linear comparison array: element k
// of a from above and of b from below, both at pulse k, and TRUE from the
// west at pulse 0.
func tuplePorts(a, b relation.Tuple) []systolic.Port {
	ports := []systolic.Port{{Side: systolic.West, Window: systolic.Window{Stride: 1, Count: 1},
		Feed: func(p int) systolic.Token {
			if p == 0 {
				return systolic.FlagToken(true, systolic.Tag{Valid: true})
			}
			return systolic.Empty
		}}}
	for k := range a {
		elem := func(t relation.Tuple) systolic.Feeder {
			return func(p int) systolic.Token {
				if p == k {
					return systolic.ValToken(t[k], systolic.Tag{Elem: int32(k), Valid: true})
				}
				return systolic.Empty
			}
		}
		w := systolic.Window{First: k, Stride: 1, Count: 1}
		ports = append(ports,
			systolic.Port{Side: systolic.North, Index: k, Window: w, Feed: elem(a)},
			systolic.Port{Side: systolic.South, Index: k, Window: w, Feed: elem(b)})
	}
	return ports
}

// CheckWidths is the one width check of the tuple lists fed to the
// comparison array, to the arrays built on it and to the bitset backend.
// Every tuple of a and b must be len(ops) wide, one element per column's
// operator, or, for nil ops, as wide as a's first tuple; a width of zero
// is rejected. It returns the width, or 0 with no error when a or b is
// empty: an empty side is answered without looking at widths.
func CheckWidths(a, b []relation.Tuple, ops []cells.Op) (int, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, nil
	}
	m := len(ops)
	if ops == nil {
		m = len(a[0])
	}
	if m == 0 {
		return 0, fmt.Errorf("comparison: zero-width tuples")
	}
	for _, side := range []struct {
		what   string
		tuples []relation.Tuple
	}{{"ragged tuple widths in A", a}, {"tuple width mismatch between relations", b}} {
		for _, t := range side.tuples {
			if len(t) != m {
				return 0, fmt.Errorf("comparison: %s: key tuple width %d, want %d", side.what, len(t), m)
			}
		}
	}
	return m, nil
}

// Run2D runs the two-dimensional comparison array of Figure 3-3 on
// relations A (fed from the top) and B (fed from the bottom), returning the
// full matrix T. ops holds one comparison operator per column: nil is
// equality everywhere, the comparison processors of §3.2, and otherwise
// column k holds θ-processors preloaded with ops[k] (§6.3.2). The join
// array of §6 is this array fed with the join columns. init supplies the
// per-pair initial boolean (nil = TRUE everywhere). An optional tracer
// observes every pulse.
//
// The function also validates the closed-form Schedule against the
// simulation using token provenance tags: if a result arrives at a row or
// pulse other than the one the schedule predicts, an error is returned.
func Run2D(a, b []relation.Tuple, ops []cells.Op, init InitFunc, tracer systolic.Tracer) (*Result, error) {
	return Run2DWrap(a, b, ops, init, tracer, nil)
}

// Run2DWrap is Run2D with an optional cell wrapper applied to every
// processor of the grid (the fault layer's injection hook); a nil wrap
// behaves exactly like Run2D.
func Run2DWrap(a, b []relation.Tuple, ops []cells.Op, init InitFunc, tracer systolic.Tracer, wrap systolic.Wrap) (*Result, error) {
	nA, nB := len(a), len(b)
	if nA == 0 || nB == 0 {
		return &Result{T: NewMatrix(nA, nB)}, nil
	}
	m, err := CheckWidths(a, b, ops)
	if err != nil {
		return nil, err
	}
	sched, err := NewSchedule(nA, nB, m)
	if err != nil {
		return nil, err
	}
	build := func(_, _ int) systolic.Cell { return cells.Compare{} }
	if ops != nil {
		build = func(_, c int) systolic.Cell { return cells.Theta{Op: ops[c]} }
	}
	grid, err := systolic.NewGrid(sched.Rows, m, systolic.BuildWith(build, wrap))
	if err != nil {
		return nil, err
	}
	defer grid.Release()
	grid.SetTracer(tracer)

	// Feed A from the top, B from the bottom and the initial booleans
	// from the west with the staggered, two-pulse-spaced schedule of §3.2.
	if err := grid.Feed(sched.Ports(a, b, init)...); err != nil {
		return nil, err
	}

	// Collect the finished t_ij at the east side. The pair identity is
	// recovered positionally from (row, pulse) via the schedule; the
	// provenance tag cross-checks it.
	t := NewMatrix(nA, nB)
	var collectErr error
	seen := 0
	for r := 0; r < sched.Rows; r++ {
		r := r
		if err := grid.Drain(systolic.East, r, func(p int, tok systolic.Token) {
			if !tok.HasFlag || collectErr != nil {
				return
			}
			i, j, ok := sched.PairAt(r, p-(sched.M-1))
			if !ok {
				collectErr = fmt.Errorf("comparison: unexpected result at row %d pulse %d", r, p)
				return
			}
			if tok.Tag.Valid && (int(tok.Tag.Tuple) != i || int(tok.Tag.Elem) != j) {
				collectErr = fmt.Errorf("comparison: schedule misalignment at row %d pulse %d: schedule says (%d,%d), tag says (%d,%d)",
					r, p, i, j, tok.Tag.Tuple, tok.Tag.Elem)
				return
			}
			t.Bits[i][j] = tok.Flag
			seen++
		}); err != nil {
			return nil, err
		}
	}

	grid.Run(sched.TotalPulses())
	if collectErr != nil {
		return nil, collectErr
	}
	if seen != nA*nB {
		return nil, fmt.Errorf("comparison: collected %d of %d results", seen, nA*nB)
	}
	return &Result{T: t, Stats: grid.Stats(), Sched: sched}, nil
}

// FixedSchedule is the timing of the fixed-relation variant (§8): B is
// preloaded into an NB x M grid (row j holds tuple b_j) and only A moves.
// Without counter-flow, consecutive A tuples follow one pulse apart:
//
//	a_{i,k} enters the top of column k at pulse i + k
//	pair (i, j) starts in row j at pulse i + j
//	t_ij leaves the east side of row j at pulse i + j + M - 1
type FixedSchedule struct {
	NA, NB, M int
}

// ExitPulse returns the pulse at which t_ij leaves the array.
func (s FixedSchedule) ExitPulse(i, j int) int { return i + j + s.M - 1 }

// TotalPulses returns the pulses needed to drain all results.
func (s FixedSchedule) TotalPulses() int { return s.ExitPulse(s.NA-1, s.NB-1) + 1 }

// ports returns the feeds of the fixed-relation array: a_{i,k} enters the
// top of column k at pulse i + k, and the initial boolean of pair (i, j)
// the west of row j at pulse i + j.
func (s FixedSchedule) ports(a []relation.Tuple, init InitFunc) []systolic.Port {
	var ports []systolic.Port
	for k := 0; k < s.M; k++ {
		ports = append(ports, systolic.Port{Side: systolic.North, Index: k, Window: systolic.Window{First: k, Stride: 1, Count: s.NA},
			Feed: func(p int) systolic.Token {
				i := p - k
				if i >= 0 && i < s.NA {
					return systolic.ValToken(a[i][k], systolic.Tag{Tuple: int32(i), Elem: int32(k), Valid: true})
				}
				return systolic.Empty
			}})
	}
	for r := 0; r < s.NB; r++ {
		ports = append(ports, systolic.Port{Side: systolic.West, Index: r, Window: systolic.Window{First: r, Stride: 1, Count: s.NA},
			Feed: func(p int) systolic.Token {
				i := p - r
				if i >= 0 && i < s.NA {
					v := true
					if init != nil {
						v = init(i, r)
					}
					return systolic.FlagToken(v, systolic.Tag{Tuple: int32(i), Elem: int32(r), Valid: true})
				}
				return systolic.Empty
			}})
	}
	return ports
}

// RunFixed runs the fixed-relation comparison variant of §8: relation B is
// preloaded (one tuple per row, one element per cell) and relation A
// streams through. It produces the same matrix T as Run2D with roughly
// double the utilization — experiment E14.
func RunFixed(a, b []relation.Tuple, init InitFunc) (*Result, error) {
	nA, nB := len(a), len(b)
	if nA == 0 || nB == 0 {
		return &Result{T: NewMatrix(nA, nB)}, nil
	}
	m, err := CheckWidths(a, b, nil)
	if err != nil {
		return nil, err
	}
	sched := FixedSchedule{NA: nA, NB: nB, M: m}
	grid, err := systolic.NewGrid(nB, m, func(r, c int) systolic.Cell {
		return &cells.StoredCompare{B: b[r][c], Op: cells.EQ}
	})
	if err != nil {
		return nil, err
	}
	defer grid.Release()
	if err := grid.Feed(sched.ports(a, init)...); err != nil {
		return nil, err
	}
	t := NewMatrix(nA, nB)
	var collectErr error
	seen := 0
	for r := 0; r < nB; r++ {
		r := r
		if err := grid.Drain(systolic.East, r, func(p int, tok systolic.Token) {
			if !tok.HasFlag || collectErr != nil {
				return
			}
			i := p - (m - 1) - r
			if i < 0 || i >= nA {
				collectErr = fmt.Errorf("comparison: unexpected fixed-array result at row %d pulse %d", r, p)
				return
			}
			t.Bits[i][r] = tok.Flag
			seen++
		}); err != nil {
			return nil, err
		}
	}
	grid.Run(sched.TotalPulses())
	if collectErr != nil {
		return nil, collectErr
	}
	if seen != nA*nB {
		return nil, fmt.Errorf("comparison: fixed array collected %d of %d results", seen, nA*nB)
	}
	return &Result{T: t, Stats: grid.Stats(), Sched: Schedule{NA: nA, NB: nB, M: m, Rows: nB}}, nil
}

// ReferenceT computes the matrix T by direct software evaluation — the
// specification the arrays are tested against (paper §3.3's defining
// equation) and the host side of the fault layer's checksum lane. ops and
// init mean what they mean to Run2D; with ops, every tuple must be at
// least len(ops) wide (CheckWidths).
func ReferenceT(a, b []relation.Tuple, ops []cells.Op, init InitFunc) *Matrix {
	t := NewMatrix(len(a), len(b))
	for i := range a {
		for j := range b {
			t.Bits[i][j] = (init == nil || init(i, j)) && match(a[i], b[j], ops)
		}
	}
	return t
}

// match reports whether every column's operator holds between x and y
// (tuple equality for nil ops).
func match(x, y relation.Tuple, ops []cells.Op) bool {
	if ops == nil {
		return x.Equal(y)
	}
	for c, op := range ops {
		if !op.Apply(x[c], y[c]) {
			return false
		}
	}
	return true
}
